//! Editor-service benchmark for the `wg-workspace` service.
//!
//! One client thread drives a workspace with one shard thread the way an
//! editor does: it opens documents, sends keystrokes (one `apply_async`
//! command carrying one edit, the next keystroke of a document only after
//! the reply to its previous one), asks semantic queries of documents with
//! no apply in flight while other documents' applies are in flight, and
//! hot-swaps grammars. Every answer is checked against an oracle computed
//! apart from the service (see `oracle.rs`), outside the timed sections.
//!
//! ```text
//! perfbench --workload <edit_simp_c|broken_simp_c|lifecycle_full_c>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run plays whole episodes until `--seconds` of timed rounds have
//! passed: each sets up a fresh registry and workspace, plays one untimed
//! warm-up round, then `EPISODE_ROUNDS` timed rounds (`setup_s` is the
//! median set-up). Every round attempts the same operations, so the share
//! of failed operations does not depend on the seed or the run length. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`, which also replays every operation
//! through the crates' public APIs with spans around each call).

mod oracle;
mod trace;

use oracle::{BrokenCycle, Key, Sites, Tok, ValidStream};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{iqm, pct, Layers, Spans};
use wg_core::{LanguageRegistry, ReparseReport, Session, SessionConfig};
use wg_grammar::{Grammar, GrammarDelta, Symbol};
use wg_langs::generate::{c_program, edit_script, full_c_program, GenSpec};
use wg_lexer::LexerDef;
use wg_sem::{SemState, Strictness};
use wg_workspace::{
    ApplyOutcome, DocId, EditReq, GrammarSwapReport, PendingApply, SemAnswer, SemQuery, Workspace,
    WorkspaceError, WorkspaceMetrics,
};

// ---------------------------------------------------------------------------
// Workload shapes. Every number here is fixed: only `--seed` varies inputs.
// The sizes, step counts and query rates are assumptions chosen to exercise
// each path, not measured editor traffic; README.md gives the reason for
// each value.
// ---------------------------------------------------------------------------

/// Ambiguous-statement rate of every generated document.
const AMBIGUITY: f64 = 0.1;
/// Timed rounds per episode. A run is a sequence of episodes, each on a
/// fresh registry and workspace: set-up, one untimed warm-up round, then
/// this many timed rounds. The service slows down the longer one workspace
/// lives (README.md, *Steadiness*), so a run that simply played rounds
/// until time ran out would report a figure that depends on how many
/// rounds the machine managed; with whole episodes every run samples the
/// same stretch of a workspace's life.
const EPISODE_ROUNDS: u64 = 8;
/// The fixed fault-probe document (independent of `--seed`), open and
/// never edited for a whole episode.
const PROBE_LINES: usize = 240;
const PROBE_SEED: u64 = 0x5EED;

/// `edit_simp_c`: two documents of each size (lines). In a round one of
/// each pair is replaced by a freshly opened document and typed into while
/// the other is queried; the roles swap each round, so every document is
/// typed into for one round and read for the next.
const EDIT_SIZES: [usize; 3] = [400, 1200, 2400];
const EDIT_STEPS: usize = 60;
const EDIT_QUERIES_PER_STEP: usize = 2;

/// `broken_simp_c`: two documents of each size, in two groups holding one
/// of each size. Each round one group is replaced by freshly opened
/// documents, then every document runs one break → `BROKEN_TYPED`
/// keystrokes → repair cycle, the groups typing in alternate steps.
const BROKEN_SIZES: [usize; 3] = [400, 800, 1200];
const BROKEN_TYPED: usize = 14;
const BROKEN_QUERIES_PER_STEP: usize = 2;

/// `lifecycle_full_c`: each round opens one document of each size, types
/// `LIFE_STEPS` keystrokes of its `edit_script` into each, swaps a grammar
/// pair while they are open, and closes them.
const LIFE_SIZES: [usize; 5] = [200, 500, 1000, 1500, 2000];
const LIFE_STEPS: usize = 60;
const LIFE_READER_LINES: usize = 1500;
const LIFE_QUERIES_PER_STEP: usize = 2;

/// The production every grammar swap adds and the next one removes:
/// `<lhs> -> swap_kw`, where `swap_kw` is a terminal no lexer rule emits.
const SWAP_TERMINAL: &str = "swap_kw";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Edit,
    Broken,
    Lifecycle,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "edit_simp_c" => Some(Workload::Edit),
            "broken_simp_c" => Some(Workload::Broken),
            "lifecycle_full_c" => Some(Workload::Lifecycle),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Edit => "edit_simp_c",
            Workload::Broken => "broken_simp_c",
            Workload::Lifecycle => "lifecycle_full_c",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Lang {
    SimpC,
    FullC,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Languages.
// ---------------------------------------------------------------------------

/// An uncompiled language definition, the registry's cache key.
struct LangDefs {
    lang: Lang,
    grammar: Grammar,
    lexdef: LexerDef,
    /// Nonterminal the swap production hangs off.
    swap_lhs: &'static str,
}

/// `simp_c`'s lexer definition. `wg-langs` exposes `simp_c` only compiled,
/// so the registry path needs the definition spelled out; `setup` checks
/// that it lexes exactly like the compiled one.
fn simp_c_lexdef() -> LexerDef {
    let mut lx = LexerDef::new();
    lx.literal("typedef", "typedef");
    lx.literal("int", "int");
    lx.literal("return", "return");
    lx.rule("id", "[a-zA-Z_][a-zA-Z0-9_]*").expect("id rule");
    lx.rule("num", "[0-9]+").expect("num rule");
    for p in ["(", ")", "{", "}", ";", "=", "+"] {
        lx.literal(p, p);
    }
    lx.skip("ws", "[ \\t\\n\\r]+").expect("ws rule");
    lx.skip("comment", "//[^\\n]*").expect("comment rule");
    lx.skip("block_comment", "/\\*([^*]|\\*+[^*/])*\\*+/")
        .expect("block comment rule");
    lx.skip("preprocessor", "#[^\\n]*")
        .expect("preprocessor rule");
    lx
}

fn check_simp_c_lexdef(reference: &SessionConfig) {
    let ours = simp_c_lexdef().compile();
    let text = c_program(&GenSpec::sized(400, AMBIGUITY, 1)).text;
    let a = reference.lexer().lex(&text);
    let b = ours.lex(&text);
    let same = a.tokens.len() == b.tokens.len()
        && a.tokens.iter().zip(&b.tokens).all(|(x, y)| {
            x.start == y.start
                && x.end() == y.end()
                && reference.lexer().rule_name(x.rule) == ours.rule_name(y.rule)
        });
    assert!(
        same && a.errors == b.errors,
        "the benchmark's simp_c lexer definition no longer matches wg_langs::simp_c"
    );
}

fn config_of(reg: &LanguageRegistry, defs: &LangDefs) -> SessionConfig {
    reg.get_or_compile(defs.grammar.clone(), defs.lexdef.clone())
        .expect("language compiles")
}

/// The grammar swap that adds (`add`) or removes the swap production on
/// the language's current grammar in `reg`.
fn swap_delta(reg: &LanguageRegistry, defs: &LangDefs, add: bool) -> GrammarDelta {
    let slot = reg
        .slot_by_fingerprint(defs.grammar.fingerprint())
        .expect("language is registered");
    let (g, _, _) = slot.current();
    let lhs = g
        .nonterminal_by_name(defs.swap_lhs)
        .expect("swap lhs exists");
    let mut d = GrammarDelta::new(&g);
    if add {
        let t = match g.terminal_by_name(SWAP_TERMINAL) {
            Some(t) => t,
            None => d.add_terminal(SWAP_TERMINAL),
        };
        d.add_production(lhs, vec![Symbol::T(t)]);
    } else {
        let t = g.terminal_by_name(SWAP_TERMINAL).expect("swap terminal");
        let (id, _) = g
            .productions()
            .find(|(_, p)| p.lhs() == lhs && p.rhs() == [Symbol::T(t)])
            .expect("swap production present");
        d.remove_production(id);
    }
    d
}

// ---------------------------------------------------------------------------
// Measurements and failure accounting.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Key = 0,
    Query = 1,
    Open = 2,
    Swap = 3,
}

const OP_NAMES: [&str; 4] = ["keystroke", "query", "open", "swap"];

#[derive(Default)]
struct Measure {
    attempted: [u64; 4],
    failed: [u64; 4],
    /// Failures due to the named `ResolveAt` fault.
    fault: [u64; 4],
    key_us: Vec<f64>,
    query_us: Vec<f64>,
    open_ms: Vec<f64>,
    open_tokens: u64,
    open_time: Duration,
    swap_ms: Vec<f64>,
    key_phase: Duration,
    /// Per-round statistics; the run reports their interquartile mean.
    rounds: RoundStats,
}

#[derive(Default)]
struct RoundStats {
    key_p50: Vec<f64>,
    key_p99: Vec<f64>,
    edits_per_s: Vec<f64>,
    query_p50: Vec<f64>,
    query_p99: Vec<f64>,
    open_p50: Vec<f64>,
    open_tokens_per_s: Vec<f64>,
    /// Mean round trip of the round's swap pair.
    swap_pair: Vec<f64>,
}

/// Where a round's samples start in the run's sample vectors.
#[derive(Clone, Copy)]
struct RoundMark {
    keys: usize,
    queries: usize,
    opens: usize,
    open_tokens: u64,
    open_time: Duration,
    swaps: usize,
    key_phase: Duration,
}

impl Measure {
    fn mark(&self) -> RoundMark {
        RoundMark {
            keys: self.key_us.len(),
            queries: self.query_us.len(),
            opens: self.open_ms.len(),
            open_tokens: self.open_tokens,
            open_time: self.open_time,
            swaps: self.swap_ms.len(),
            key_phase: self.key_phase,
        }
    }

    /// Folds the samples taken since `from` into per-round statistics.
    fn close_round(&mut self, from: RoundMark) {
        let keys = &self.key_us[from.keys..];
        let queries = &self.query_us[from.queries..];
        let opens = &self.open_ms[from.opens..];
        let swaps = &self.swap_ms[from.swaps..];
        let phase = (self.key_phase - from.key_phase).as_secs_f64();
        let open_time = (self.open_time - from.open_time).as_secs_f64();
        let r = &mut self.rounds;
        r.key_p50.push(pct(keys, 0.50));
        r.key_p99.push(pct(keys, 0.99));
        r.edits_per_s.push(keys.len() as f64 / phase.max(1e-9));
        r.query_p50.push(pct(queries, 0.50));
        r.query_p99.push(pct(queries, 0.99));
        r.open_p50.push(pct(opens, 0.50));
        r.open_tokens_per_s
            .push((self.open_tokens - from.open_tokens) as f64 / open_time.max(1e-9));
        r.swap_pair
            .push(swaps.iter().sum::<f64>() / swaps.len().max(1) as f64);
    }
}

/// Everything the run measures; `other` survives the warm-up reset.
struct Books {
    m: Measure,
    /// Failures not due to the named fault, with their first messages.
    other: u64,
    messages: Vec<String>,
    layers: Layers,
}

impl Books {
    fn attempt(&mut self, op: Op) {
        self.m.attempted[op as usize] += 1;
    }

    fn fail(&mut self, op: Op, fault: bool, msg: String) {
        self.m.failed[op as usize] += 1;
        if fault {
            self.m.fault[op as usize] += 1;
        } else {
            self.other += 1;
            if self.messages.len() < 20 {
                self.messages
                    .push(format!("{}: {msg}", OP_NAMES[op as usize]));
            }
        }
    }
}

/// Workspace counters summed over the timed rounds of every episode.
#[derive(Default)]
struct WsDelta {
    edits: u64,
    reparses: u64,
    queries: u64,
    snapshot_reads: u64,
}

impl WsDelta {
    fn add(&mut self, before: &WorkspaceMetrics, after: &WorkspaceMetrics) {
        self.edits += after.edits_applied.saturating_sub(before.edits_applied);
        self.reparses += after.reparses.saturating_sub(before.reparses);
        self.queries += after.queries.saturating_sub(before.queries);
        self.snapshot_reads += after.snapshot_reads.saturating_sub(before.snapshot_reads);
    }
}

// ---------------------------------------------------------------------------
// Documents and oracles.
// ---------------------------------------------------------------------------

/// A from-scratch session (with semantics) of one committed text: the
/// reference every query answer on that text is checked against.
struct Oracle {
    version: u64,
    text: String,
    session: Session,
    sites: Sites,
}

impl Oracle {
    fn new(cfg: &SessionConfig, text: &str, version: u64, limit: usize) -> Oracle {
        let mut session = Session::new(cfg, text).expect("oracle text parses");
        session.attach_semantics(Box::new(SemState::new(
            cfg.grammar(),
            Strictness::RequireBinding,
        )));
        Oracle {
            version,
            text: text.to_string(),
            session,
            sites: oracle::sites(text, limit),
        }
    }
}

enum Stream {
    /// Never edited (query-only readers and the fault probe).
    None,
    Valid(ValidStream),
    /// A precomputed `edit_script`, consumed front to back.
    Script(std::vec::IntoIter<Key>),
}

struct Doc {
    id: DocId,
    lang: Lang,
    /// Plain-`String` replay of every keystroke sent.
    text: String,
    /// Bumped per keystroke; oracles are keyed by it.
    version: u64,
    stream: Stream,
    oracle: Option<Oracle>,
    cycle: Option<BrokenCycle>,
}

impl Doc {
    /// Stands in for the probe and the idle document until `setup` opens
    /// them.
    fn placeholder() -> Doc {
        Doc {
            id: DocId(u64::MAX),
            lang: Lang::SimpC,
            text: String::new(),
            version: 0,
            stream: Stream::None,
            oracle: None,
            cycle: None,
        }
    }
}

/// What a keystroke's reply must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Valid by construction: incorporated at once.
    Valid,
    /// The document is broken: refused (non-correcting recovery).
    Refused,
    /// Repairs the break: everything pending is incorporated.
    Repair,
}

/// Which document a query addresses.
#[derive(Debug, Clone, Copy)]
enum Target {
    Doc(usize),
    Reader(usize),
    Probe,
}

// ---------------------------------------------------------------------------
// The traced replay.
// ---------------------------------------------------------------------------

/// Replays every operation through the crates' public APIs (`wg-core`,
/// `wg-sem`, `wg-lexer`, `wg-lrtable` through the registry), with spans
/// around each call.
struct Mirror {
    reg: LanguageRegistry,
    compiled: Vec<Lang>,
    sessions: HashMap<DocId, Session>,
    spans: Spans,
    attempts: u64,
    useful_cycles: u64,
}

impl Mirror {
    fn config(&mut self, defs: &LangDefs, layers: &mut Layers) -> SessionConfig {
        let (cfg, d) = self
            .spans
            .time("lrtable.get_or_compile", || config_of(&self.reg, defs));
        if !self.compiled.contains(&defs.lang) {
            self.compiled.push(defs.lang);
            layers.push("lrtable.compile_ms", d.as_secs_f64() * 1e3);
        }
        cfg
    }

    fn open(&mut self, id: DocId, defs: &LangDefs, text: &str, sem: bool, layers: &mut Layers) {
        let cfg = self.config(defs, layers);
        self.spans.enter("open");
        let (lexed, d_lex) = self.spans.time("lexer.lex", || cfg.lexer().lex(text));
        let tokens = lexed.tokens.len().max(1) as f64;
        let (session, d_new) = self
            .spans
            .time("core.session_new", || Session::new(&cfg, text));
        let mut session = session.expect("mirror open parses");
        if sem {
            let pass = SemState::new(cfg.grammar(), Strictness::RequireBinding);
            let ((), d) = self.spans.time("sem.attach_semantics", || {
                session.attach_semantics(Box::new(pass))
            });
            layers.push("sem.attach_ms", d.as_secs_f64() * 1e3);
        }
        self.spans.exit();
        layers.push("lexer.lex_us_per_token", d_lex.as_secs_f64() * 1e6 / tokens);
        layers.push("core.open_us_per_token", d_new.as_secs_f64() * 1e6 / tokens);
        self.sessions.insert(id, session);
    }

    fn key(&mut self, id: DocId, key: &Key, layers: &mut Layers) {
        let s = self.sessions.get_mut(&id).expect("mirrored doc");
        self.spans.enter("keystroke");
        self.spans
            .time("core.edit", || s.edit(key.start, key.removed, &key.insert));
        let (out, d_reparse) = self.spans.time("core.reparse", || s.reparse());
        let ((), d_pub) = self.spans.time("core.publish", || drop(s.publish()));
        self.spans.exit();
        let r = out.expect("reparse is infallible").report;
        self.attempts += r.attempts as u64;
        self.useful_cycles += u64::from(r.incorporated_edits > 0);
        layers.push_dur_us("core.reparse_us", d_reparse);
        layers.push("core.attempts_per_reparse", r.attempts as f64);
        layers.push_dur_us("core.parse_us", r.parse);
        layers.push_dur_us("core.maintenance_us", r.maintenance);
        layers.push("core.subtree_shifts", r.parser.subtree_shifts as f64);
        layers.push("core.breakdowns", r.parser.breakdowns as f64);
        layers.push_dur_us("core.publish_us", d_pub);
        // `ReparseReport::buffer` already includes the `Session::edit`
        // calls made since the previous cycle.
        layers.push_dur_us("document.buffer_us", r.buffer);
        layers.push_dur_us("lexer.relex_us", r.relex);
        layers.push("dag.fresh_node_slots", r.fresh_node_slots as f64);
        layers.push("dag.merge_probes", r.merge_probes as f64);
        layers.push("dag.arena_nodes", r.arena_nodes as f64);
        layers.push_dur_us("sem.update_us", r.sem);
        layers.push("sem.reanalyzed_nodes", r.sem_reanalyzed as f64);
    }

    fn query(&mut self, id: DocId, q: &SemQuery, layers: &mut Layers) {
        let snap = self.sessions.get_mut(&id).expect("mirrored doc").publish();
        match q {
            SemQuery::ResolveAt(off) | SemQuery::AmbiguityAt(off) => {
                let (_, d) = self
                    .spans
                    .time("core.snapshot_info_at", || snap.info_at(*off));
                layers.push_dur_us("sem.info_at_us", d);
            }
            SemQuery::UsesOf(name) => {
                let (_, d) = self
                    .spans
                    .time("core.snapshot_uses_of", || snap.uses_of(name));
                layers.push_dur_us("sem.uses_of_us", d);
            }
        }
    }

    fn swap(
        &mut self,
        delta: &GrammarDelta,
        lang: Lang,
        docs: &[(DocId, Lang)],
        layers: &mut Layers,
    ) {
        self.spans.enter("swap");
        let (up, d) = self
            .spans
            .time("lrtable.update_grammar", || self.reg.update_grammar(delta));
        let up = up.expect("mirror registry accepts the swap");
        layers.push("lrtable.update_ms", d.as_secs_f64() * 1e3);
        layers.push(
            "lrtable.states_reused_share",
            up.stats.states_reused as f64 / up.stats.states.max(1) as f64,
        );
        for (id, l) in docs {
            if *l != lang {
                continue;
            }
            let s = self.sessions.get_mut(id).expect("mirrored doc");
            let (out, d) = self.spans.time("core.swap_reparse", || s.reparse());
            let r = out.expect("reparse is infallible").report;
            layers.push("core.swap_reparse_ms", d.as_secs_f64() * 1e3);
            layers.push("dag.arena_nodes", r.arena_nodes as f64);
        }
        self.spans.exit();
    }

    /// Checkpoint: every incremental dag equals a from-scratch parse of
    /// the same text under the session's current grammar, and the text
    /// equals the plain-`String` replay.
    fn check(&self, docs: &[(DocId, &str)]) -> Vec<String> {
        let mut bad = Vec::new();
        for (id, text) in docs {
            let s = &self.sessions[id];
            if s.text() != *text {
                bad.push(format!("{id}: mirror text differs from the replay"));
                continue;
            }
            let fresh = Session::new(s.config(), text).expect("replayed text parses");
            if !wg_dag::structurally_equal(s.arena(), s.root(), fresh.arena(), fresh.root()) {
                bad.push(format!(
                    "{id}: incremental dag differs from a from-scratch parse"
                ));
            }
        }
        bad
    }
}

// ---------------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------------

struct Bench {
    wl: Workload,
    seed: u64,
    ws: Workspace,
    simp: LangDefs,
    full: Option<LangDefs>,
    /// Standalone `simp_c` configuration the query oracles parse with.
    oracle_cfg: SessionConfig,
    /// Edited documents.
    docs: Vec<Doc>,
    /// Query-only documents (lifecycle).
    readers: Vec<Doc>,
    probe: Doc,
    /// Open for a whole episode, never edited or queried: the document an
    /// editor leaves open in a background tab across grammar swaps.
    idle: Doc,
    /// Identifier sites of the probe's ambiguous statements.
    probe_sites: Vec<Tok>,
    rng: StdRng,
    opened: u64,
    round: u64,
    books: Books,
    mirror: Option<Mirror>,
}

fn defs_of<'a>(simp: &'a LangDefs, full: &'a Option<LangDefs>, lang: Lang) -> &'a LangDefs {
    match lang {
        Lang::SimpC => simp,
        Lang::FullC => full.as_ref().expect("full_c defined"),
    }
}

fn gen_simp(lines: usize, seed: u64) -> (String, usize) {
    let p = c_program(&GenSpec::sized(lines, AMBIGUITY, seed));
    (p.text, p.ambiguous_sites)
}

fn gen_full(lines: usize, seed: u64) -> (String, usize) {
    let p = full_c_program(&GenSpec::sized(lines, AMBIGUITY, seed));
    (p.text, p.ambiguous_sites)
}

impl Bench {
    fn setup(wl: Workload, seed: u64, trace: bool) -> Bench {
        let registry = Arc::new(LanguageRegistry::new());
        let ws = Workspace::with_registry(1, 64, Arc::clone(&registry));
        let oracle_cfg = wg_langs::simp_c();
        check_simp_c_lexdef(&oracle_cfg);
        let simp = LangDefs {
            lang: Lang::SimpC,
            grammar: oracle_cfg.grammar().clone(),
            lexdef: simp_c_lexdef(),
            swap_lhs: "stmt",
        };
        let full = (wl == Workload::Lifecycle).then(|| {
            let (grammar, lexdef) = wg_langs::full_c_defs();
            LangDefs {
                lang: Lang::FullC,
                grammar,
                lexdef,
                swap_lhs: "statement",
            }
        });
        let (probe_text, probe_amb) = gen_simp(PROBE_LINES, PROBE_SEED);
        let probe_sites = oracle::sites(&probe_text, usize::MAX).ambiguous;
        let mut b = Bench {
            wl,
            seed,
            ws,
            simp,
            full,
            oracle_cfg,
            docs: Vec::new(),
            readers: Vec::new(),
            probe: Doc::placeholder(),
            idle: Doc::placeholder(),
            probe_sites,
            rng: StdRng::seed_from_u64(mix(seed, 1)),
            opened: 0,
            round: 0,
            books: Books {
                m: Measure::default(),
                other: 0,
                messages: Vec::new(),
                layers: Layers::default(),
            },
            mirror: trace.then(|| Mirror {
                reg: LanguageRegistry::new(),
                compiled: Vec::new(),
                sessions: HashMap::new(),
                spans: Spans::new(Instant::now()),
                attempts: 0,
                useful_cycles: 0,
            }),
        };
        // Compile every language the workload opens, its edited language
        // first (the traced run's mirror compiles its own, and reports the
        // first compile as `lrtable.compile_ms`).
        let langs: &[Lang] = match wl {
            Workload::Lifecycle => &[Lang::FullC, Lang::SimpC],
            _ => &[Lang::SimpC],
        };
        for &lang in langs {
            let defs = defs_of(&b.simp, &b.full, lang);
            config_of(b.ws.registry(), defs);
            if let Some(m) = b.mirror.as_mut() {
                m.config(defs, &mut b.books.layers);
            }
        }
        b.probe = b.open_doc(Lang::SimpC, probe_text, probe_amb, true, false);
        b.probe.oracle = Some(Oracle::new(&b.oracle_cfg, &b.probe.text, 0, usize::MAX));
        let (lang, lines) = match wl {
            Workload::Edit => (Lang::SimpC, EDIT_SIZES[0]),
            Workload::Broken => (Lang::SimpC, BROKEN_SIZES[0]),
            Workload::Lifecycle => (Lang::FullC, LIFE_SIZES[0]),
        };
        let (text, amb) = match lang {
            Lang::SimpC => gen_simp(lines, mix(seed, 3)),
            Lang::FullC => gen_full(lines, mix(seed, 3)),
        };
        b.idle = b.open_doc(lang, text, amb, lang == Lang::SimpC, false);
        match wl {
            Workload::Edit | Workload::Broken => {
                for i in 0..2 * b.simp_sizes().len() {
                    let d = b.new_simp_doc(i, false);
                    b.docs.push(d);
                }
            }
            // The lifecycle reader is opened by each round.
            Workload::Lifecycle => {}
        }
        b
    }

    /// Closes the lifecycle reader, if any, and opens a fresh one (untimed),
    /// so a run's queries spread over as many reader documents as rounds.
    fn replace_reader(&mut self) {
        if let Some(old) = self.readers.pop() {
            if !self.ws.close(old.id) {
                let id = old.id;
                self.books
                    .fail(Op::Open, false, format!("{id}: close found no document"));
            }
            if let Some(m) = self.mirror.as_mut() {
                m.sessions.remove(&old.id);
            }
        }
        self.opened += 1;
        let (text, amb) = gen_simp(LIFE_READER_LINES, mix(self.seed, 100 + self.opened));
        let mut reader = self.open_doc(Lang::SimpC, text, amb, true, false);
        reader.oracle = Some(Oracle::new(&self.oracle_cfg, &reader.text, 0, usize::MAX));
        self.readers.push(reader);
    }

    /// Opens a document in the workspace (and the mirror); with `timed`
    /// the round trip is an open sample. Checks the choice-point count
    /// against the generator's ground truth.
    fn open_doc(&mut self, lang: Lang, text: String, amb: usize, sem: bool, timed: bool) -> Doc {
        let defs = defs_of(&self.simp, &self.full, lang);
        let cfg = config_of(self.ws.registry(), defs);
        if timed {
            self.books.attempt(Op::Open);
        }
        let t = Instant::now();
        let opened = if sem {
            self.ws.open_with_semantics(&cfg, &text)
        } else {
            self.ws.open_with(&cfg, &text)
        };
        let rt = t.elapsed();
        let id = match opened {
            Ok(id) => id,
            Err(e) => panic!("open failed: {e}"),
        };
        if timed {
            let tokens = cfg.lexer().lex(&text).tokens.len() as u64;
            self.books.m.open_ms.push(rt.as_secs_f64() * 1e3);
            self.books.m.open_tokens += tokens;
            self.books.m.open_time += rt;
        }
        let choices = self.ws.dump(id).map_or(usize::MAX, |d| {
            d.lines().filter(|l| l.contains(" choice, ")).count()
        });
        if choices != amb {
            self.books.fail(
                Op::Open,
                false,
                format!("{id}: {choices} choice points, generator made {amb}"),
            );
        }
        if let Some(m) = self.mirror.as_mut() {
            m.open(id, defs, &text, sem, &mut self.books.layers);
        }
        Doc {
            id,
            lang,
            text,
            version: 0,
            stream: Stream::None,
            oracle: None,
            cycle: None,
        }
    }

    fn simp_sizes(&self) -> &'static [usize] {
        match self.wl {
            Workload::Broken => &BROKEN_SIZES,
            _ => &EDIT_SIZES,
        }
    }

    /// Opens a fresh `simp_c` document for slot `slot` (documents `2j` and
    /// `2j + 1` share size `j`).
    fn new_simp_doc(&mut self, slot: usize, timed: bool) -> Doc {
        self.opened += 1;
        let s = mix(self.seed, 100 + self.opened);
        let (text, amb) = gen_simp(self.simp_sizes()[slot / 2], s);
        let mut d = self.open_doc(Lang::SimpC, text, amb, true, timed);
        let toggles = self.wl == Workload::Edit;
        d.stream = Stream::Valid(ValidStream::new(
            StdRng::seed_from_u64(mix(s, slot as u64)),
            toggles,
        ));
        d
    }

    fn new_full_doc(&mut self, lines: usize) -> Doc {
        self.opened += 1;
        let s = mix(self.seed, 100 + self.opened);
        let (text, amb) = gen_full(lines, s);
        let n = LIFE_STEPS;
        let script: Vec<Key> = edit_script(&text, n, mix(s, 3))
            .into_iter()
            .take(n)
            .map(|e| Key {
                start: e.at,
                removed: e.remove,
                insert: e.insert,
            })
            .collect();
        assert_eq!(
            script.len(),
            n,
            "edit_script yields one edit per op at least"
        );
        let mut d = self.open_doc(Lang::FullC, text, amb, false, true);
        d.stream = Stream::Script(script.into_iter());
        d
    }

    /// Every open document.
    fn open_docs(&self) -> impl Iterator<Item = &Doc> {
        self.docs
            .iter()
            .chain(&self.readers)
            .chain([&self.probe, &self.idle])
    }

    fn doc(&self, t: Target) -> &Doc {
        match t {
            Target::Doc(i) => &self.docs[i],
            Target::Reader(i) => &self.readers[i],
            Target::Probe => &self.probe,
        }
    }

    /// Rebuilds the query oracle of `docs[i]` if its text moved on.
    fn refresh_oracle(&mut self, i: usize, limit: usize) {
        let d = &self.docs[i];
        if d.oracle.as_ref().is_some_and(|o| o.version == d.version) {
            return;
        }
        let o = Oracle::new(&self.oracle_cfg, &d.text, d.version, limit);
        self.docs[i].oracle = Some(o);
    }

    /// A random query against a document whose oracle is current.
    fn random_query(&mut self, t: Target) -> SemQuery {
        let roll: f64 = self.rng.random();
        let coin = self.rng.random_bool(0.5);
        let (r1, r2): (u64, u64) = (self.rng.random(), self.rng.random());
        let o = self
            .doc(t)
            .oracle
            .as_ref()
            .expect("queried doc has an oracle");
        let s = &o.sites;
        let pick = |v: &[Tok]| {
            let tok = v[(r1 % v.len() as u64) as usize];
            (tok, tok.start + (r2 % tok.len as u64) as usize)
        };
        if roll < 0.5 || s.ambiguous.is_empty() {
            // Identifiers outside ambiguous statements only: inside them
            // the named fault decides the answer, and the probe covers it.
            SemQuery::ResolveAt(pick(&s.plain).1)
        } else if roll < 0.75 {
            let v = if coin { &s.ambiguous } else { &s.plain };
            SemQuery::AmbiguityAt(pick(v).1)
        } else {
            let (tok, _) = pick(&s.plain);
            SemQuery::UsesOf(o.text[tok.start..tok.start + tok.len].to_string())
        }
    }

    /// One closed-loop step: every keystroke is submitted, the queries run
    /// while those applies are in flight, then every reply is awaited.
    fn step(&mut self, keys: Vec<(usize, Key, Expect)>, queries: Vec<(Target, SemQuery)>) {
        let t_phase = Instant::now();
        let mut inflight: Vec<(Instant, Result<PendingApply, WorkspaceError>)> =
            Vec::with_capacity(keys.len());
        for (i, k, _) in &keys {
            let t = Instant::now();
            let p = self.ws.apply_async(
                self.docs[*i].id,
                vec![EditReq::replace(k.start, k.removed, &k.insert)],
            );
            inflight.push((t, p));
        }
        let mut answers = Vec::with_capacity(queries.len());
        for (t, q) in &queries {
            let id = self.doc(*t).id;
            let t0 = Instant::now();
            let a = self.ws.query(id, q.clone());
            answers.push((t0.elapsed(), a));
        }
        let mut replies = Vec::with_capacity(keys.len());
        for (t, p) in inflight {
            let r = p.map(|p| p.wait().result);
            replies.push((t.elapsed(), r));
        }
        self.books.m.key_phase += t_phase.elapsed();

        // Checks and bookkeeping, untimed.
        for ((i, k, expect), (rt, r)) in keys.iter().zip(replies) {
            self.books.attempt(Op::Key);
            self.books.m.key_us.push(rt.as_secs_f64() * 1e6);
            let id = self.docs[*i].id;
            match r {
                Ok(Ok(out)) => {
                    self.check_key(id, *expect, &out);
                    self.workspace_layers(rt, &out);
                }
                Ok(Err(e)) | Err(e) => self.books.fail(Op::Key, false, format!("{id}: {e}")),
            }
            if let Some(m) = self.mirror.as_mut() {
                m.key(id, k, &mut self.books.layers);
            }
        }
        for ((t, q), (rt, a)) in queries.iter().zip(answers) {
            self.books.attempt(Op::Query);
            self.books.m.query_us.push(rt.as_secs_f64() * 1e6);
            let d = self.doc(*t);
            let id = d.id;
            let checked = check_query(d.oracle.as_ref().expect("queried doc has an oracle"), q, a);
            if let Err((fault, msg)) = checked {
                self.books.fail(Op::Query, fault, format!("{id}: {msg}"));
            }
            if let Some(m) = self.mirror.as_mut() {
                m.query(id, q, &mut self.books.layers);
            }
        }
    }

    fn check_key(&mut self, id: DocId, expect: Expect, out: &ApplyOutcome) {
        let ok = match expect {
            Expect::Valid | Expect::Repair => out.incorporated && out.edits_refused == 0,
            Expect::Refused => !out.incorporated,
        };
        if !ok {
            self.books.fail(
                Op::Key,
                false,
                format!(
                    "{id}: expected {expect:?}, got incorporated={} refused={}",
                    out.incorporated, out.edits_refused
                ),
            );
        }
    }

    fn workspace_layers(&mut self, rt: Duration, out: &ApplyOutcome) {
        if self.mirror.is_none() {
            return;
        }
        let l = &mut self.books.layers;
        l.push_dur_us("workspace.round_trip_us", rt);
        l.push_dur_us("workspace.queue_wait_us", rt.saturating_sub(out.latency));
        l.push_dur_us("workspace.service_us", out.latency);
        l.push_dur_us(
            "workspace.publish_reply_us",
            out.latency.saturating_sub(out.last_report.total),
        );
        let r: &ReparseReport = &out.last_report;
        for (name, d) in [
            ("keystroke.buffer_us", r.buffer),
            ("keystroke.relex_us", r.relex),
            ("keystroke.parse_us", r.parse),
            ("keystroke.maintenance_us", r.maintenance),
            ("keystroke.sem_us", r.sem),
        ] {
            l.push_dur_us(name, d);
        }
    }

    /// Sends a keystroke-free grammar swap pair (add, then remove the swap
    /// production) and checks each report.
    fn swap_pair(&mut self, lang: Lang) {
        for add in [true, false] {
            let defs = defs_of(&self.simp, &self.full, lang);
            let delta = swap_delta(self.ws.registry(), defs, add);
            self.books.attempt(Op::Swap);
            let t = Instant::now();
            let rep = self.ws.update_grammar(&delta);
            let rt = t.elapsed();
            self.books.m.swap_ms.push(rt.as_secs_f64() * 1e3);
            let open: Vec<(DocId, Lang)> = self.open_docs().map(|d| (d.id, d.lang)).collect();
            let same = open.iter().filter(|(_, l)| *l == lang).count();
            match rep {
                Ok(GrammarSwapReport {
                    stats,
                    sessions_swapped,
                    sessions_pending,
                    ..
                }) => {
                    if stats.full_rebuild
                        || sessions_swapped != same
                        || sessions_pending != open.len() - same
                    {
                        self.books.fail(
                            Op::Swap,
                            false,
                            format!(
                                "swapped {sessions_swapped}/{same}, pending {sessions_pending}, full_rebuild {}",
                                stats.full_rebuild
                            ),
                        );
                    }
                }
                Err(e) => self.books.fail(Op::Swap, false, format!("{e}")),
            }
            if let Some(m) = self.mirror.as_mut() {
                m.swap(&delta, lang, &open, &mut self.books.layers);
            }
        }
    }

    /// Closes `docs[i]` (left in place for the caller to replace or
    /// remove) after checking its text against the replay.
    fn close_doc(&mut self, i: usize) {
        self.check_text(i);
        let id = self.docs[i].id;
        if !self.ws.close(id) {
            self.books
                .fail(Op::Open, false, format!("{id}: close found no document"));
        }
        if let Some(m) = self.mirror.as_mut() {
            m.sessions.remove(&id);
        }
    }

    fn check_text(&mut self, i: usize) {
        let d = &self.docs[i];
        if self.ws.text(d.id).as_deref() != Some(d.text.as_str()) {
            let id = d.id;
            self.books.fail(
                Op::Key,
                false,
                format!("{id}: text differs from the replay"),
            );
        }
    }

    /// Mirror checkpoint (traced run): dags against from-scratch parses.
    fn checkpoint(&mut self) {
        let Some(m) = self.mirror.as_ref() else {
            return;
        };
        let docs: Vec<(DocId, &str)> = self.open_docs().map(|d| (d.id, d.text.as_str())).collect();
        for msg in m.check(&docs) {
            self.books.fail(Op::Key, false, msg);
        }
    }

    fn probe_query(&self, k: usize) -> (Target, SemQuery) {
        let t = self.probe_sites[k % self.probe_sites.len()];
        (Target::Probe, SemQuery::ResolveAt(t.start))
    }

    fn play_round(&mut self) {
        match self.wl {
            Workload::Edit => self.round_edit(),
            Workload::Broken => self.round_broken(),
            Workload::Lifecycle => self.round_lifecycle(),
        }
        self.checkpoint();
        self.round += 1;
    }

    /// Closes documents `i` (every `i % 2 == parity`) and opens fresh ones
    /// in their slots: one open of each size.
    fn replace_group(&mut self, parity: usize) {
        for i in (0..self.docs.len()).filter(|i| i % 2 == parity) {
            self.close_doc(i);
            let d = self.new_simp_doc(i, true);
            self.docs[i] = d;
        }
    }

    /// `edit_simp_c`: replace one group, type into it while querying the
    /// other group and the probe, then swap a grammar pair.
    fn round_edit(&mut self) {
        let n = self.docs.len();
        let parity = (self.round % 2) as usize;
        self.replace_group(parity);
        let writers: Vec<usize> = (0..n).filter(|i| i % 2 == parity).collect();
        let readers: Vec<usize> = (0..n).filter(|i| i % 2 != parity).collect();
        for &i in &readers {
            self.refresh_oracle(i, usize::MAX);
        }
        let probes = self.probe_sites.len();
        for s in 0..EDIT_STEPS {
            let keys = writers
                .iter()
                .map(|&i| {
                    let d = &mut self.docs[i];
                    let Stream::Valid(st) = &mut d.stream else {
                        unreachable!("edit docs carry a valid stream")
                    };
                    let len = d.text.len();
                    let key = st.next(&mut d.text, 0, len, true);
                    d.version += 1;
                    (i, key, Expect::Valid)
                })
                .collect();
            let mut queries: Vec<(Target, SemQuery)> = (0..EDIT_QUERIES_PER_STEP)
                .map(|_| {
                    let t = Target::Doc(readers[self.rng.random_range(0..readers.len())]);
                    (t, self.random_query(t))
                })
                .collect();
            if s < probes {
                queries.push(self.probe_query(s));
            }
            self.step(keys, queries);
        }
        for &i in &writers {
            self.check_text(i);
        }
        self.swap_pair(Lang::SimpC);
    }

    /// `broken_simp_c`: every document runs one break → type → repair
    /// cycle. Two groups alternate steps; queries go to the other group's
    /// documents, above their break, checked against their last valid text.
    fn round_broken(&mut self) {
        let n = self.docs.len();
        self.replace_group((self.round % 2) as usize);
        for i in 0..n {
            let cycle = oracle::plan_break(&self.docs[i].text, &mut self.rng);
            // Every document's text moved on since its last oracle (a cycle
            // always leaves typed keystrokes behind), so this builds a new
            // one with this cycle's query limit.
            self.refresh_oracle(i, cycle.query_limit);
            self.docs[i].cycle = Some(cycle);
        }
        let per_doc = BROKEN_TYPED + 2;
        let probes = self.probe_sites.len();
        let steps = 2 * per_doc;
        for s in 0..steps {
            let group = s % 2;
            let j = s / 2;
            let keys = (0..n)
                .filter(|i| i % 2 == group)
                .map(|i| {
                    let d = &mut self.docs[i];
                    let cycle = d.cycle.clone().expect("cycle planned");
                    let (key, expect) = if j == 0 {
                        let key = Key {
                            start: cycle.semi,
                            removed: 1,
                            insert: String::new(),
                        };
                        key.apply(&mut d.text);
                        (key, Expect::Refused)
                    } else if j == per_doc - 1 {
                        let key = Key {
                            start: cycle.semi,
                            removed: 0,
                            insert: ";".to_string(),
                        };
                        key.apply(&mut d.text);
                        (key, Expect::Repair)
                    } else {
                        let Stream::Valid(st) = &mut d.stream else {
                            unreachable!("broken docs carry a valid stream")
                        };
                        let lo = d.text[cycle.semi..]
                            .find('\n')
                            .map_or(d.text.len(), |p| cycle.semi + p + 1);
                        let len = d.text.len();
                        let pairs = j + 1 < per_doc - 1;
                        (st.next(&mut d.text, lo, len, pairs), Expect::Refused)
                    };
                    d.version += 1;
                    (i, key, expect)
                })
                .collect();
            // The last step's queried group has just been repaired; its
            // committed text moved on, so that step sends no queries.
            let mut queries: Vec<(Target, SemQuery)> = Vec::new();
            if s + 1 < steps {
                let others: Vec<usize> = (0..n).filter(|i| i % 2 != group).collect();
                for _ in 0..BROKEN_QUERIES_PER_STEP {
                    let t = Target::Doc(others[self.rng.random_range(0..others.len())]);
                    queries.push((t, self.random_query(t)));
                }
            }
            if s < probes {
                queries.push(self.probe_query(s));
            }
            self.step(keys, queries);
        }
        for i in 0..n {
            self.check_text(i);
        }
        self.swap_pair(Lang::SimpC);
    }

    /// `lifecycle_full_c`: open one `full_c` document of each size, type
    /// into every one while querying the `simp_c` readers, swap a `full_c`
    /// grammar pair while they are open, close them.
    fn round_lifecycle(&mut self) {
        self.replace_reader();
        for &lines in &LIFE_SIZES {
            let d = self.new_full_doc(lines);
            self.docs.push(d);
        }
        let n = self.docs.len();
        let probes = self.probe_sites.len();
        for s in 0..LIFE_STEPS {
            let keys = (0..n)
                .map(|i| {
                    let d = &mut self.docs[i];
                    let Stream::Script(it) = &mut d.stream else {
                        unreachable!("lifecycle docs carry a script")
                    };
                    let key = it.next().expect("script covers the document's life");
                    key.apply(&mut d.text);
                    d.version += 1;
                    (i, key, Expect::Valid)
                })
                .collect();
            let mut queries: Vec<(Target, SemQuery)> = (0..LIFE_QUERIES_PER_STEP)
                .map(|_| (Target::Reader(0), self.random_query(Target::Reader(0))))
                .collect();
            if s < probes {
                queries.push(self.probe_query(s));
            }
            self.step(keys, queries);
        }
        self.swap_pair(Lang::FullC);
        for i in 0..self.docs.len() {
            self.close_doc(i);
        }
        self.docs.clear();
    }
}

/// Checks one query answer against the from-scratch oracle of the same
/// committed text. `Err((fault, why))`: `fault` marks the named
/// `ResolveAt` fault (the answer names another identifier than the one
/// at the offset, inside an ambiguous statement).
fn check_query(
    o: &Oracle,
    q: &SemQuery,
    a: Result<SemAnswer, WorkspaceError>,
) -> Result<(), (bool, String)> {
    let a = a.map_err(|e| (false, format!("{q:?}: {e}")))?;
    match (q, a) {
        (SemQuery::ResolveAt(off), SemAnswer::Resolution(info)) => {
            let want = oracle::ident_at(&o.text, *off).expect("query targets an identifier");
            let Some(info) = info else {
                return Err((false, format!("ResolveAt({off}) = None for `{want}`")));
            };
            if info.name != want {
                // The named fault lives inside ambiguous statements only; a
                // wrong name anywhere else is a failure of its own.
                let fault = o
                    .sites
                    .ambiguous
                    .iter()
                    .any(|t| (t.start..t.start + t.len).contains(off));
                return Err((
                    fault,
                    format!("ResolveAt({off}) names `{}`, text has `{want}`", info.name),
                ));
            }
            match o.session.semantic_info_at(*off) {
                Some(s) if s.name == want && s != info => Err((
                    false,
                    format!("ResolveAt({off}) = {info:?}, from-scratch {s:?}"),
                )),
                _ => Ok(()),
            }
        }
        (SemQuery::UsesOf(name), SemAnswer::Uses(v)) => {
            let want = o.session.semantic_uses_of(name).len();
            if v.len() == want {
                Ok(())
            } else {
                Err((
                    false,
                    format!("UsesOf({name}) = {} sites, from-scratch {want}", v.len()),
                ))
            }
        }
        (SemQuery::AmbiguityAt(off), SemAnswer::Ambiguity(amb, res)) => {
            let want = o
                .session
                .semantic_info_at(*off)
                .map_or((false, false), |i| (i.ambiguous, i.resolved));
            if (amb, res) == want {
                Ok(())
            } else {
                Err((
                    false,
                    format!(
                        "AmbiguityAt({off}) = {:?}, from-scratch {want:?}",
                        (amb, res)
                    ),
                ))
            }
        }
        (q, a) => Err((false, format!("{q:?} answered with {a:?}"))),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(name, value, unit)` rows of the JSON result.
type Rows = Vec<(&'static str, f64, &'static str)>;

/// Every timing is first reduced per round (a median, a rate or a pair's
/// mean); the run reports the interquartile mean of those per-round values.
/// The machine these figures come from switches between a fast and a slow
/// speed every few seconds (README.md, *Steadiness*): a quantile of a run's
/// samples snaps between the two modes as their mix shifts, while the mean
/// of the middle half of rounds follows the mix smoothly and drops the
/// rounds a long stall hit.
fn end_to_end(b: &Bench, setup_s: f64) -> Rows {
    let r = &b.books.m.rounds;
    vec![
        ("keystroke_p50_us", iqm(&r.key_p50), "us"),
        ("edits_per_s", iqm(&r.edits_per_s), "1/s"),
        ("query_p50_us", iqm(&r.query_p50), "us"),
        ("open_p50_ms", iqm(&r.open_p50), "ms"),
        ("open_tokens_per_s", iqm(&r.open_tokens_per_s), "1/s"),
        // A pair's add and remove cost differently (4x apart after the
        // repairs of `broken_simp_c`), so the pair is the unit.
        ("swap_p50_ms", iqm(&r.swap_pair), "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn per_layer(b: &Bench, ws_reparses_per_edit: f64, snapshot_share: f64) -> Rows {
    let l = &b.books.layers;
    let mirror = b.mirror.as_ref().expect("traced run");
    let useful = mirror.useful_cycles as f64 / mirror.attempts.max(1) as f64;
    // Share of the traced run's keystroke p50 that the layers' median self
    // times account for: queue wait, then inside the shard the buffer,
    // relex, parse, maintenance and semantic stages, then publish + reply.
    let parts = [
        "workspace.queue_wait_us",
        "keystroke.buffer_us",
        "keystroke.relex_us",
        "keystroke.parse_us",
        "keystroke.maintenance_us",
        "keystroke.sem_us",
        "workspace.publish_reply_us",
    ];
    let accounted: f64 = parts.iter().map(|p| l.median(p)).sum();
    let rt = l.median("workspace.round_trip_us").max(1e-9);
    vec![
        (
            "workspace.queue_wait_us",
            l.median("workspace.queue_wait_us"),
            "us",
        ),
        (
            "workspace.service_us",
            l.median("workspace.service_us"),
            "us",
        ),
        (
            "workspace.publish_reply_us",
            l.median("workspace.publish_reply_us"),
            "us",
        ),
        ("workspace.reparses_per_edit", ws_reparses_per_edit, "ratio"),
        ("workspace.snapshot_read_share", snapshot_share, "ratio"),
        ("core.reparse_us", l.median("core.reparse_us"), "us"),
        ("core.reparse_p99_us", l.p99("core.reparse_us"), "us"),
        (
            "core.attempts_per_reparse",
            l.mean("core.attempts_per_reparse"),
            "count",
        ),
        ("core.useful_attempt_share", useful, "ratio"),
        ("core.parse_us", l.median("core.parse_us"), "us"),
        (
            "core.maintenance_p99_us",
            l.p99("core.maintenance_us"),
            "us",
        ),
        (
            "core.subtree_shifts",
            l.mean("core.subtree_shifts"),
            "count",
        ),
        ("core.breakdowns", l.mean("core.breakdowns"), "count"),
        ("core.publish_us", l.median("core.publish_us"), "us"),
        (
            "core.open_us_per_token",
            l.median("core.open_us_per_token"),
            "us",
        ),
        (
            "core.swap_reparse_ms",
            l.median("core.swap_reparse_ms"),
            "ms",
        ),
        ("document.buffer_us", l.median("document.buffer_us"), "us"),
        ("lexer.relex_us", l.median("lexer.relex_us"), "us"),
        (
            "lexer.lex_us_per_token",
            l.median("lexer.lex_us_per_token"),
            "us",
        ),
        ("lrtable.compile_ms", l.first("lrtable.compile_ms"), "ms"),
        ("lrtable.update_ms", l.median("lrtable.update_ms"), "ms"),
        (
            "lrtable.states_reused_share",
            l.median("lrtable.states_reused_share"),
            "ratio",
        ),
        (
            "dag.fresh_node_slots",
            l.mean("dag.fresh_node_slots"),
            "count",
        ),
        ("dag.merge_probes", l.mean("dag.merge_probes"), "count"),
        // The largest arena any reparse reported (keystrokes and swap
        // adoptions), the arena counterpart of `peak_rss_mb`.
        ("dag.arena_nodes", l.max("dag.arena_nodes"), "count"),
        ("sem.update_us", l.median("sem.update_us"), "us"),
        (
            "sem.reanalyzed_nodes",
            l.mean("sem.reanalyzed_nodes"),
            "count",
        ),
        ("sem.attach_ms", l.median("sem.attach_ms"), "ms"),
        ("sem.info_at_us", l.median("sem.info_at_us"), "us"),
        ("sem.uses_of_us", l.median("sem.uses_of_us"), "us"),
        ("trace.keystroke_accounted_share", accounted / rt, "ratio"),
    ]
}

fn json_rows(rows: &Rows) -> String {
    let mut j = String::from("{");
    for (k, (name, v, unit)) in rows.iter().enumerate() {
        let _ = write!(
            j,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if k > 0 { ", " } else { "" }
        );
    }
    j.push('}');
    j
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    // Episodes until `--seconds` of timed rounds have passed. A set-up
    // runs from a fresh registry and workspace to the first timed round:
    // table compile, input generation, the initial opens and oracles, and
    // one warm-up round (uncounted, except that a failure not due to the
    // named fault still fails the run). `setup_s` is the median over the
    // run's episodes; the first is timed from process start. The books
    // (and the traced run's spans) carry over from episode to episode.
    let mut setups = Vec::new();
    let mut carried: Option<(Books, Option<Mirror>)> = None;
    let mut ws_delta = WsDelta::default();
    let mut timed = Duration::ZERO;
    let mut rounds = 0u64;
    let mut episode = 0u64;
    let b = loop {
        let t = if episode == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut b = Bench::setup(args.workload, mix(args.seed, episode), args.trace);
        if let Some((books, mirror)) = carried.take() {
            b.books.m = books.m;
            b.books.other += books.other;
            b.books.messages = books.messages;
            b.books.layers.absorb(books.layers);
            if let (Some(new), Some(old)) = (b.mirror.as_mut(), mirror) {
                new.spans = old.spans;
                new.attempts += old.attempts;
                new.useful_cycles += old.useful_cycles;
            }
        }
        let m = std::mem::take(&mut b.books.m);
        b.play_round();
        b.books.m = m;
        setups.push(t.elapsed().as_secs_f64());

        let before = b.ws.metrics();
        for _ in 0..EPISODE_ROUNDS {
            let mark = b.books.m.mark();
            let t0 = Instant::now();
            b.play_round();
            timed += t0.elapsed();
            b.books.m.close_round(mark);
            rounds += 1;
        }
        ws_delta.add(&before, &b.ws.metrics());
        episode += 1;
        if timed.as_secs_f64() >= args.seconds {
            break b;
        }
        let Bench {
            ws, books, mirror, ..
        } = b;
        ws.shutdown();
        carried = Some((books, mirror));
    };
    let setup_s = pct(&setups, 0.5);

    let m = &b.books.m;
    let attempted: u64 = m.attempted.iter().sum();
    let failed: u64 = m.failed.iter().sum();
    let correct = b.books.other == 0;
    for msg in &b.books.messages {
        eprintln!("perfbench: FAILED {msg}");
    }
    let mut summary = format!(
        "perfbench: {} seed {} episodes {episode} rounds {rounds}",
        args.workload.name(),
        args.seed
    );
    for (k, name) in OP_NAMES.iter().enumerate() {
        let _ = write!(
            summary,
            " | {name} {}/{} failed ({} named fault)",
            m.failed[k], m.attempted[k], m.fault[k]
        );
    }
    println!("{summary}");
    let samples = format!(
        "perfbench: samples keystroke {} query {} open {} swap {} setup {}",
        m.key_us.len(),
        m.query_us.len(),
        m.open_ms.len(),
        m.swap_ms.len(),
        setups.len()
    );
    println!("{samples}");
    // Round-trip tails are printed but not gated: on a 2-vCPU virtual
    // machine they follow the hypervisor's wake-up delays more than the
    // program (see README.md).
    let r = &m.rounds;
    println!(
        "perfbench: tails, median over rounds of each round's p99: keystroke_p99_us = {:.1}, query_p99_us = {:.1}",
        pct(&r.key_p99, 0.5),
        pct(&r.query_p99, 0.5)
    );

    let rows = if args.trace {
        let d = &ws_delta;
        let rows = per_layer(
            &b,
            d.reparses as f64 / d.edits.max(1) as f64,
            d.snapshot_reads as f64 / d.queries.max(1) as f64,
        );
        let out = format!(
            "perfbench/runs/trace-{}-{}.json",
            args.workload.name(),
            args.seed
        );
        let spans = b.mirror.as_ref().expect("traced run").spans.to_json();
        let doc = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"rounds\": {rounds}, \"per_layer\": {}, \"spans\": {spans}}}\n",
            args.workload.name(),
            args.seed,
            json_rows(&rows)
        );
        if let Some(dir) = std::path::Path::new(&out).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&out, doc) {
            Ok(()) => println!("perfbench: spans and per-layer metrics written to {out}"),
            Err(e) => eprintln!("perfbench: could not write {out}: {e}"),
        }
        rows
    } else {
        end_to_end(&b, setup_s)
    };
    for (name, v, unit) in &rows {
        println!("perfbench: {name} = {v:.4} {unit}");
    }
    b.ws.shutdown();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_rows(&rows)
    );
    if !correct {
        std::process::exit(1);
    }
}
