//! Benchmark-side spans around each call into a layer.
//!
//! A span is `(name, start, end, parent, op)`; its layer is the part of
//! the name before the first `.`. Spans live in memory and are written out
//! when the run ends. A span's *self time* is its duration minus the time
//! its direct children cover, so summing self time over every span of one
//! op gives back exactly the op's wall time: layer spans, `bench.*` spans
//! (the benchmark's own work inside an op) and the root `op` span, whose
//! self time is the remainder no span covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span (times in nanoseconds since the tracer's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Op the span belongs to.
    pub op: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use = "a span must be exited"]
pub struct Open(Option<u32>);

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between ops.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Set the op id the following spans belong to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`] (spans close in LIFO order).
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Total duration of root spans named `name`, in seconds.
    pub fn root_total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// JSON-lines rendering, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        out
    }
}

/// Layer of a span name: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.enter("op");
        t.span("kernel.run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("soc.build", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(op);
        let selfs = self_total(&t);
        let root = t.root_total_s("op");
        assert!((selfs - root).abs() < 1e-9, "{selfs} vs {root}");
        let by = t.self_time_by_name();
        assert!(by["kernel.run"] >= 0.002);
        assert!(by["op"] < by["kernel.run"]);
    }

    fn self_total(t: &Tracer) -> f64 {
        t.self_time_by_name().values().sum()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let o = t.enter("op");
        t.exit(o);
        assert!(t.spans().is_empty());
    }
}
