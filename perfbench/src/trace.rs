//! Benchmark-side tracing: spans recorded around the calls the
//! benchmark makes into each layer's public functions. Spans live in
//! memory and are summarised when the workload ends. A disabled tracer
//! reads no clock and records nothing, so the untraced run pays only a
//! branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `key` ties the spans of one operation (a
/// matrix name or a request id) together.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `plan.compile`.
    pub name: &'static str,
    /// Operation identifier shared by related spans.
    pub key: String,
    /// Start, in nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread of calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (returned by [`Tracer::enter`]).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str, key: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            key: key.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`enter`](Self::enter).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, key: &str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, key);
        let r = f();
        self.exit(open);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans named `name`, optionally only those
    /// with `key`.
    pub fn durations(&self, name: &str, key: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && key.is_none_or(|k| s.key == k))
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per-name `(count, total ns, self ns)`, for the trace summary.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns;
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once, parts of
/// a child outside the parent not at all).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            key: String::new(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children_clipped_to_parent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.inner", 12, 18, Some(1)),
        ];
        // Root: children cover [10,40] ∪ [90,100] = 40 ns.
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn nested_enter_exit_records_parents_and_durations() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", "k");
        let v = t.span("inner", "k", || 7);
        t.exit(outer);
        t.span("other", "j", || ());
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);
        assert_eq!(t.durations("inner", Some("k")).len(), 1);
        assert_eq!(t.durations("inner", Some("j")).len(), 0);
        let sum = t.summary();
        assert_eq!(sum["outer"].0, 1);
        assert_eq!(sum["outer"].1 - sum["outer"].2, sum["inner"].1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("x", "");
        t.exit(o);
        assert_eq!(t.span("y", "", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
