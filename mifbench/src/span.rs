//! Spans recorded by the harness around the calls it makes.
//!
//! A span is `{id, parent, req, name, start_ns, end_ns}`; spans of one
//! request share `req`. They stay in memory during the run and are written
//! out as JSON lines afterwards. A span's *self time* is its duration minus
//! the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Span id; 0 is "no span" (the parent of a root, and every id a disabled
/// tracer hands out).
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

const SPANS_RESERVED: usize = 1 << 20;

/// Records spans against one monotonic clock. A disabled tracer records
/// nothing, so untraced runs pay one predictable branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            // Room for a traced section, so recording does not stop to
            // move what it has recorded.
            spans: Vec::with_capacity(if enabled { SPANS_RESERVED } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled {
            self.spans.reserve(SPANS_RESERVED);
        }
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as SpanId + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if id != 0 {
            let now = self.now_ns();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Forget the span opened last, if `id` is still that span.
    pub fn cancel(&mut self, id: SpanId) {
        if id != 0 && id as usize == self.spans.len() {
            self.spans.pop();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// What one `begin`/`end` pair costs on this host, in nanoseconds:
    /// replays subtract it from the time of a pass that recorded spans.
    pub fn pair_cost_ns() -> f64 {
        const PAIRS: u32 = 200_000;
        let mut t = Tracer::new(true);
        t.spans.reserve(PAIRS as usize);
        let start = Instant::now();
        for i in 0..PAIRS {
            let id = t.begin("calibrate", 0, i as u64);
            t.end(id);
        }
        std::hint::black_box(&t.spans);
        start.elapsed().as_nanos() as f64 / PAIRS as f64
    }
}

/// Self time of every span, indexed like `spans`: duration minus the union
/// of the children's intervals, clipped to the span's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals of all spans that share a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// One JSON object per span, one per line.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn disjoint_children_are_each_subtracted() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // a and b overlap on [20, 30); c lies inside a.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),
            span(4, 1, "c", 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 30, 6]);
    }

    #[test]
    fn nested_children_only_reduce_their_own_parent() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "mid", 10, 90),
            span(3, 2, "leaf", 20, 40),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 20]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent_and_orphans_are_roots() {
        let spans = [
            span(1, 0, "root", 10, 50),
            span(2, 1, "late", 40, 70),
            span(3, 1, "outside", 80, 90),
            span(4, 99, "orphan", 0, 5),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 5]);
    }

    #[test]
    fn totals_group_by_name_and_self_times_sum_to_the_root() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "op", 0, 40),
            span(3, 1, "op", 40, 90),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["op"],
            NameTotals {
                count: 2,
                total_ns: 90,
                self_ns: 90
            }
        );
        assert_eq!(t["root"].self_ns, 10);
        let all: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(all, 100);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, 1);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let root = t.begin("root", 0, 1);
        let kid = t.begin("kid", root, 1);
        t.end(kid);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut buf = Vec::new();
        write_jsonl(
            &[span(1, 0, "root", 0, 9), span(2, 1, "op", 1, 2)],
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"id\":1,\"parent\":0,\"req\":1,\"name\":\"root\",\"start_ns\":0,\"end_ns\":9}\n\
             {\"id\":2,\"parent\":1,\"req\":1,\"name\":\"op\",\"start_ns\":1,\"end_ns\":2}\n"
        );
    }
}
