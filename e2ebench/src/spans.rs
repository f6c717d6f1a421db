//! The benchmark's own spans, recorded around its calls into each layer
//! during a traced run. Spans are kept in memory and written out when
//! the run ends; nothing inside the database is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to (its index in the replayed
    /// sequence, offset per client).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Client thread (0 for single-threaded workloads).
    pub track: u32,
}

/// Per-thread span recorder. When disabled every call is one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    track: u32,
    next_id: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so tracks line up.
    pub fn new(on: bool, epoch: Instant, track: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            track,
            // Ids are unique across tracks: the track sits in the high bits.
            next_id: ((track as u64) << 40) + 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            op,
            name,
            start_ns: now,
            end_ns: now,
            track: self.track,
        });
        self.next_id += 1;
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("span end without begin");
        self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "spans left open at the end of a run");
        self.spans
    }
}

/// Aggregate over all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it the span's children cover.
    pub self_ns: u64,
}

/// Totals per span name. A span's self time is its duration minus the
/// union of its children's intervals.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Write spans as JSON lines: one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut buf = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            buf,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"track\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.track
        );
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(buf.as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 50),
            span(4, 1, "c", 70, 80),
        ];
        let t = totals(&spans);
        // Children cover [10,50) and [70,80): 50 of the 100 ns.
        assert_eq!(t["op"].self_ns, 50);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["op"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.begin("x", 1);
        t.end();
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new(true, Instant::now(), 2);
        t.begin("outer", 7);
        t.begin("inner", 7);
        t.end();
        t.end();
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].parent, 0);
        assert!(spans[0].id >> 40 == 2);
    }
}
