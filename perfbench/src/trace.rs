//! Spans recorded from outside the program: one per call into a layer's
//! public function, kept in memory and written out when the run ends.
//!
//! The traced replay runs each layer boundary on its own, one after the
//! other, for the same request: a parent boundary (say the plain
//! `Server` round trip) and the boundary below it (`registry.batch`)
//! are separate calls. [`self_ns`] therefore lines a parent's children
//! up with the parent's start, keeping their placement relative to each
//! other (sequential or concurrent), and subtracts the time they cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span of the layer above this one, if any.
    pub parent: Option<usize>,
    /// Index of the request in the workload's seeded sequence.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_us(&self) -> f64 {
        self.dur_ns() as f64 / 1e3
    }
}

/// The in-memory span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a new span; returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.push(name, parent, request, start, end))
    }

    /// Records a span timed elsewhere (e.g. on another thread).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            request,
        });
        id
    }

    /// Links a span recorded before its parent existed.
    pub fn set_parent(&mut self, id: usize, parent: usize) {
        self.spans[id].parent = Some(parent);
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"end_ns\":{},\"id\":{},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{}}}",
                s.end_ns, s.id, s.name, parent, s.request, s.start_ns
            );
        }
        out
    }
}

/// Self time of `parent`: its duration minus the part of it that its
/// children cover. The children are shifted as a group so the earliest
/// one starts with the parent; overlapping children count once, and
/// time past the parent's end is not subtracted.
pub fn self_ns(parent: &Span, children: &[&Span]) -> u64 {
    let Some(first) = children.iter().map(|c| c.start_ns).min() else {
        return parent.dur_ns();
    };
    let shift = |t: u64| (t - first + parent.start_ns).min(parent.end_ns);
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (shift(c.start_ns), shift(c.end_ns)))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent: None,
            request: 0,
        }
    }

    #[test]
    fn no_children_is_all_self() {
        assert_eq!(self_ns(&span(0, 10, 110), &[]), 100);
    }

    #[test]
    fn one_child_is_a_plain_difference_wherever_it_ran() {
        // The child was replayed later; only its length matters.
        let parent = span(0, 0, 100);
        let child = span(1, 5_000, 5_060);
        assert_eq!(self_ns(&parent, &[&child]), 40);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent shard calls of 50 and 70 ns starting 10 ns
        // apart cover 80 ns of the parent, not 120.
        let parent = span(0, 1_000, 1_100);
        let a = span(1, 300, 350);
        let b = span(2, 310, 380);
        assert_eq!(self_ns(&parent, &[&a, &b]), 20);
        assert_eq!(self_ns(&parent, &[&b, &a]), 20, "order-independent");
    }

    #[test]
    fn sequential_children_add_up() {
        let parent = span(0, 0, 100);
        let a = span(1, 500, 520);
        let b = span(2, 530, 560);
        assert_eq!(self_ns(&parent, &[&a, &b]), 50);
    }

    #[test]
    fn nested_children_do_not_double_count() {
        let parent = span(0, 0, 100);
        let outer = span(1, 0, 60);
        let inner = span(2, 10, 30);
        assert_eq!(self_ns(&parent, &[&outer, &inner]), 40);
    }

    #[test]
    fn children_longer_than_the_parent_leave_zero() {
        let parent = span(0, 0, 100);
        let slow = span(1, 0, 150);
        assert_eq!(self_ns(&parent, &[&slow]), 0);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut tracer = Tracer::new();
        let ((), root) = tracer.time("request", None, 3, || ());
        tracer.time("engine.run", Some(root), 3, || ());
        let text = tracer.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
        assert!(text.contains("\"request\":3"));
    }
}
