//! Span recorder for the traced run.
//!
//! Spans live only in this benchmark's code, around calls into the
//! program's public functions: name, start, end and parent, kept in
//! memory and written out at the end. A span's self time is its
//! duration minus the time its direct children cover (children nest
//! strictly on one thread, so they never overlap each other).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Records spans when `on`; when off, [`Tracer::span`] only runs the
/// closure, which is the untraced baseline for `trace.overhead_frac`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Index the next recorded span will get; pass it to
    /// [`Tracer::self_times`] to aggregate only spans recorded after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in nanoseconds per span name, summed over the spans
    /// recorded since `from`.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }

    /// Duration in nanoseconds of the last recorded root span named `name`.
    pub fn last_root(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.end - s.start)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Process CPU time (user + system, every thread) in milliseconds, from
/// `/proc/self/stat` at the kernel's 100 Hz user tick.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}
