//! Independent oracles and input streams.
//!
//! Nothing here calls into the program under test: documents are scanned
//! with a hand-written `simp_c` tokenizer, the expected text of every
//! document is a plain `String` replay of the edits sent to the service,
//! and keystroke streams are generated from that replay so every
//! intermediate document is valid (or, in the broken workload, invalid in
//! exactly the way the stream intends).

use rand::rngs::StdRng;
use rand::RngExt;

/// Token classes of the `simp_c` surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ident,
    Keyword,
    Number,
    Punct(u8),
}

/// One token of a `simp_c` document: class and byte span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    pub kind: Kind,
    pub start: usize,
    pub len: usize,
}

const SIMP_C_KEYWORDS: [&str; 3] = ["typedef", "int", "return"];

/// Tokenizes a `simp_c` document the way its lexer is specified: blanks,
/// `//` and `/* */` comments and `#` lines are skipped.
pub fn tokenize(text: &str) -> Vec<Tok> {
    let b = text.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 4);
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'#' || (c == b'/' && b.get(i + 1) == Some(&b'/')) {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            i += 2;
            while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                i += 1;
            }
            i = (i + 2).min(b.len());
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let kind = if SIMP_C_KEYWORDS.contains(&&text[start..i]) {
                Kind::Keyword
            } else {
                Kind::Ident
            };
            out.push(Tok {
                kind,
                start,
                len: i - start,
            });
        } else if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            out.push(Tok {
                kind: Kind::Number,
                start,
                len: i - start,
            });
        } else {
            out.push(Tok {
                kind: Kind::Punct(c),
                start: i,
                len: 1,
            });
            i += 1;
        }
    }
    out
}

/// Where the queries of one document may point, derived from its tokens.
#[derive(Debug, Clone, Default)]
pub struct Sites {
    /// Identifier tokens outside `id ( id ) ;` statements.
    pub plain: Vec<Tok>,
    /// Identifier tokens inside `id ( id ) ;` statements (the parse-level
    /// ambiguous statements of `simp_c`).
    pub ambiguous: Vec<Tok>,
}

fn is_ambiguous_at(toks: &[Tok], i: usize) -> bool {
    let starts_statement = i == 0
        || matches!(
            toks[i - 1].kind,
            Kind::Punct(b';') | Kind::Punct(b'{') | Kind::Punct(b'}')
        );
    starts_statement
        && toks.len() > i + 4
        && toks[i].kind == Kind::Ident
        && toks[i + 1].kind == Kind::Punct(b'(')
        && toks[i + 2].kind == Kind::Ident
        && toks[i + 3].kind == Kind::Punct(b')')
        && toks[i + 4].kind == Kind::Punct(b';')
}

/// Classifies every identifier of `text`, keeping only tokens that start
/// before `limit` (the broken workload queries above its break).
pub fn sites(text: &str, limit: usize) -> Sites {
    let toks = tokenize(text);
    let mut s = Sites::default();
    let mut i = 0;
    while i < toks.len() {
        if is_ambiguous_at(&toks, i) {
            for t in [toks[i], toks[i + 2]] {
                if t.start < limit {
                    s.ambiguous.push(t);
                }
            }
            i += 5;
            continue;
        }
        if toks[i].kind == Kind::Ident && toks[i].start < limit {
            s.plain.push(toks[i]);
        }
        i += 1;
    }
    s
}

/// The identifier covering byte `offset`, if any.
pub fn ident_at(text: &str, offset: usize) -> Option<&str> {
    let b = text.as_bytes();
    let is_id = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    if offset >= b.len() || !is_id(b[offset]) {
        return None;
    }
    let mut s = offset;
    while s > 0 && is_id(b[s - 1]) {
        s -= 1;
    }
    let mut e = offset;
    while e < b.len() && is_id(b[e]) {
        e += 1;
    }
    let word = &text[s..e];
    (word.as_bytes()[0].is_ascii_alphabetic() || word.starts_with('_')).then_some(word)
}

/// One keystroke: a single replace command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    pub start: usize,
    pub removed: usize,
    pub insert: String,
}

impl Key {
    pub fn apply(&self, doc: &mut String) {
        doc.replace_range(self.start..self.start + self.removed, &self.insert);
    }
}

/// Byte spans of the lines of `text` (without their newline).
fn line_span(text: &str, at: usize) -> (usize, usize) {
    let s = text[..at].rfind('\n').map_or(0, |n| n + 1);
    let e = text[at..].find('\n').map_or(text.len(), |n| at + n);
    (s, e)
}

/// Identifier tokens of the line containing byte `at`, skipping
/// preprocessor and comment lines.
fn line_idents(text: &str, at: usize) -> Vec<Tok> {
    let (s, e) = line_span(text, at);
    let line = &text[s..e];
    let t = line.trim_start();
    if t.starts_with('#') || t.starts_with("//") || t.starts_with("/*") {
        return Vec::new();
    }
    tokenize(line)
        .into_iter()
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| Tok {
            start: t.start + s,
            ..t
        })
        .collect()
}

/// A random identifier token whose start lies in `[lo, hi)`: a random
/// line of the range first, the whole range when lines keep coming up
/// empty.
fn random_ident(text: &str, lo: usize, hi: usize, rng: &mut StdRng) -> Tok {
    for _ in 0..64 {
        let at = rng.random_range(lo..hi);
        let ids: Vec<Tok> = line_idents(text, at)
            .into_iter()
            .filter(|t| t.start >= lo && t.start < hi)
            .collect();
        if !ids.is_empty() {
            return ids[rng.random_range(0..ids.len())];
        }
    }
    let ids: Vec<Tok> = tokenize(text)
        .into_iter()
        .filter(|t| t.kind == Kind::Ident && t.start >= lo && t.start < hi)
        .collect();
    assert!(!ids.is_empty(), "no identifier in [{lo}, {hi})");
    ids[rng.random_range(0..ids.len())]
}

/// The keystroke stream of one valid `simp_c` document: identifier
/// renames, insert/delete pairs inside identifiers, and `typedef` lines
/// added and removed for names that head `id ( id ) ;` statements, so the
/// readings of those statements flip in place. Every intermediate
/// document is valid `simp_c`. The mix (typedef toggles 15% when enabled,
/// renames up to 60% in all, insert/delete pairs 40%) is an assumption, not
/// measured typing: it keeps every kind frequent enough for a round's
/// medians to see it.
#[derive(Debug, Clone)]
pub struct ValidStream {
    rng: StdRng,
    /// Whether the stream adds and removes `typedef` lines.
    toggles: bool,
    /// A pending delete that undoes the previous insert.
    undo: Option<Key>,
    /// The `typedef` line currently inserted after the first line.
    typedef_line: Option<(usize, usize)>,
    fresh: usize,
}

impl ValidStream {
    pub fn new(rng: StdRng, toggles: bool) -> ValidStream {
        ValidStream {
            rng,
            toggles,
            undo: None,
            typedef_line: None,
            fresh: 0,
        }
    }

    /// Next keystroke for the document whose current text is `doc`, typed
    /// at identifiers starting in `[lo, hi)`; `doc` is updated. With
    /// `pairs` false no insert is started, so no undo is left owing.
    pub fn next(&mut self, doc: &mut String, lo: usize, hi: usize, pairs: bool) -> Key {
        let key = if let Some(undo) = self.undo.take() {
            undo
        } else {
            let roll: f64 = self.rng.random();
            if self.toggles && roll < 0.15 {
                self.typedef_toggle(doc)
            } else {
                // Identifiers on the toggled typedef line are left alone so
                // its removal deletes exactly what was inserted.
                let lo = match self.typedef_line {
                    Some((s, len)) => lo.max(s + len),
                    None => lo,
                };
                let t = random_ident(doc, lo, hi, &mut self.rng);
                if roll < 0.6 || !pairs {
                    self.fresh += 1;
                    let name = match self.rng.random_range(0..3) {
                        0 => format!("var{}", self.rng.random_range(0..1000)),
                        1 => format!("obj{}", self.rng.random_range(0..100)),
                        _ => format!("nm{}", self.fresh),
                    };
                    Key {
                        start: t.start,
                        removed: t.len,
                        insert: name,
                    }
                } else {
                    let at = t.start + self.rng.random_range(1..t.len + 1);
                    self.undo = Some(Key {
                        start: at,
                        removed: 1,
                        insert: String::new(),
                    });
                    Key {
                        start: at,
                        removed: 0,
                        insert: "q".to_string(),
                    }
                }
            }
        };
        key.apply(doc);
        key
    }

    fn typedef_toggle(&mut self, doc: &str) -> Key {
        if let Some((s, len)) = self.typedef_line.take() {
            return Key {
                start: s,
                removed: len,
                insert: String::new(),
            };
        }
        let toks = tokenize(doc);
        let heads: Vec<String> = (0..toks.len())
            .filter(|&i| is_ambiguous_at(&toks, i))
            .map(|i| doc[toks[i].start..toks[i].start + toks[i].len].to_string())
            .filter(|h| h.starts_with("fun"))
            .collect();
        let name = if heads.is_empty() {
            "fun0".to_string()
        } else {
            heads[self.rng.random_range(0..heads.len())].clone()
        };
        let line = format!("typedef int {name};\n");
        // After the first line (the `#include`), ahead of every use.
        let at = doc.find('\n').map_or(0, |n| n + 1);
        self.typedef_line = Some((at, line.len()));
        Key {
            start: at,
            removed: 0,
            insert: line,
        }
    }
}

/// One break-type-repair cycle of the broken workload, planned against
/// the last valid text.
#[derive(Debug, Clone)]
pub struct BrokenCycle {
    /// Offset of the dropped `;` (also where the repair re-inserts it).
    pub semi: usize,
    /// Queries address identifiers starting before this offset.
    pub query_limit: usize,
}

/// Picks the statement to break: a line ending in `;` between 5% and 15%
/// of the document whose next line starts with an identifier or keyword,
/// so dropping its `;` always leaves two adjacent statements unseparated.
pub fn plan_break(doc: &str, rng: &mut StdRng) -> BrokenCycle {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(doc.match_indices('\n').map(|(i, _)| i + 1))
        .filter(|&i| i < doc.len())
        .collect();
    let n = starts.len();
    let (lo, hi) = ((n / 20).max(1), (n * 3 / 20).max(2));
    let candidates: Vec<usize> = (lo..hi.min(n - 1))
        .filter_map(|k| {
            let line = &doc[starts[k]..starts[k + 1] - 1];
            let next = doc[starts[k + 1]..].trim_start();
            let t = line.trim_start();
            let plain = t.ends_with(';')
                && !t.starts_with("typedef")
                && !t.starts_with("//")
                && !t.starts_with("/*");
            let next_word = next
                .as_bytes()
                .first()
                .is_some_and(|c| c.is_ascii_alphabetic());
            (plain && next_word).then(|| starts[k] + line.len() - 1)
        })
        .collect();
    assert!(
        !candidates.is_empty(),
        "no breakable statement near the top"
    );
    let semi = candidates[rng.random_range(0..candidates.len())];
    let query_limit = doc[..semi].rfind('\n').map_or(0, |n| n + 1);
    BrokenCycle { semi, query_limit }
}
