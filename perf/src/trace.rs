//! In-memory spans around calls into the layers, written once at exit.
//!
//! Nothing here is called from inside `crates/`: a span brackets a call the
//! benchmark makes into a module's public API. Spans of one operation share
//! `op`; `parent` is the id of the span that caused this one (0 = none).

use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span, handing it the tracer and the span's id so it
    /// can record children (ids start at 1 so 0 can mean "no parent").
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce(&mut Tracer, u32) -> R,
    ) -> R {
        let idx = self.spans.len();
        let id = idx as u32 + 1;
        self.spans.push(Span {
            id,
            name,
            op,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let out = f(self, id);
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// A leaf span around a call that records no spans of its own.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(name, op, parent, |_, _| f())
    }
}

/// Self time per span id: the span's duration minus the part of its
/// interval its direct children cover (children may overlap each other;
/// the covered part is the union of their intervals clipped to the parent).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.nanos() - covered)
        })
        .collect()
}

/// Durations of every span called `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64 / 1e3)
        .collect()
}

/// The trace file: one JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            s.name,
            s.op,
            s.parent,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 90),
            span(4, 3, 60, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 40);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 40 - 10);
        assert_eq!(st[&4], 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children 10..60 and 40..80 overlap; 90..130 overhangs the parent.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 80),
            span(4, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::new();
        t.span("outer", 7, 0, |t, id| t.leaf("inner", 7, id, || ()));
        let (outer, inner) = (&t.spans[0], &t.spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(to_json(&t.spans).contains("\"name\":\"inner\",\"op\":7,\"parent\":1"));
    }
}
