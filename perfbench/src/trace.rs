//! Spans and per-layer samples of the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public API (the program itself is not instrumented). A span's
//! self time is its duration minus the time of the spans opened inside
//! it. Spans stay in memory and are written once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    dur_ns: u64,
}

struct Frame {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Agg {
    durs_ns: Vec<u64>,
    self_ns: u64,
}

/// Raw span records kept for the output file; the aggregates cover every
/// span regardless.
const SPAN_RECORD_CAP: usize = 20_000;

/// The span log of one traced run.
pub struct Spans {
    t0: Instant,
    next_id: u64,
    stack: Vec<Frame>,
    records: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

impl Spans {
    pub fn new(t0: Instant) -> Spans {
        Spans {
            t0,
            next_id: 1,
            stack: Vec::new(),
            records: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map_or(0, |f| f.id);
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Frame {
            name,
            id,
            parent,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        let f = self.stack.pop().expect("exit matches an enter");
        let dur = f.start.elapsed();
        let dur_ns = dur.as_nanos() as u64;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur_ns;
        }
        let a = self.agg.entry(f.name).or_default();
        a.durs_ns.push(dur_ns);
        a.self_ns += dur_ns.saturating_sub(f.child_ns);
        if self.records.len() < SPAN_RECORD_CAP {
            self.records.push(Span {
                name: f.name,
                id: f.id,
                parent: f.parent,
                start_ns: f.start.duration_since(self.t0).as_nanos() as u64,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// The spans as JSON: per-name aggregates plus the first records.
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\"by_name\": {");
        for (k, (name, a)) in self.agg.iter().enumerate() {
            let mut d = a.durs_ns.clone();
            d.sort_unstable();
            let total: u64 = d.iter().sum();
            let _ = write!(
                j,
                "{}\"{name}\": {{\"count\": {}, \"total_us\": {:.3}, \"self_us\": {:.3}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}}",
                if k > 0 { ", " } else { "" },
                d.len(),
                total as f64 / 1e3,
                a.self_ns as f64 / 1e3,
                pct_u64(&d, 0.50) / 1e3,
                pct_u64(&d, 0.99) / 1e3,
            );
        }
        let _ = write!(j, "}}, \"dropped\": {}, \"records\": [", self.dropped);
        for (k, s) in self.records.iter().enumerate() {
            let _ = write!(
                j,
                "{}{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
                if k > 0 { ",\n  " } else { "\n  " },
                s.name,
                s.id,
                s.parent,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            );
        }
        j.push_str("]}");
        j
    }
}

fn pct_u64(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[k] as f64
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn pct(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    s[k]
}

/// Interquartile mean: the mean of the middle half of `v` (all of it when
/// it holds fewer than four values).
pub fn iqm(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (lo, hi) = if s.len() < 4 {
        (0, s.len())
    } else {
        (s.len() / 4, s.len() - s.len() / 4)
    };
    s[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Per-layer samples, keyed by metric name.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Appends every sample of `other` (an earlier episode's).
    pub fn absorb(&mut self, other: Layers) {
        for (name, mut v) in other.samples {
            let mine = self.samples.entry(name).or_default();
            v.append(mine);
            *mine = v;
        }
    }

    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn push_dur_us(&mut self, name: &'static str, d: Duration) {
        self.push(name, d.as_secs_f64() * 1e6);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| pct(v, 0.5))
    }

    pub fn p99(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| pct(v, 0.99))
    }

    pub fn max(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| pct(v, 1.0))
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }

    pub fn first(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .and_then(|v| v.first().copied())
            .unwrap_or(0.0)
    }
}
