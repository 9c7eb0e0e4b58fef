//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end on one process-wide monotonic
//! clock, the id of the span that caused it and the id of the request it
//! belongs to. Spans are kept in memory and written out when the run
//! ends. A layer's *self time* is its span's duration minus the part of
//! that interval covered by its children; overlapping children are
//! counted once.

use std::collections::{BTreeMap, HashMap};

use hcf_core::DataStructure;
use hcf_tmem::{Runtime, TMem, TxCtx};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id, unique in this process.
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Relaxed: ids only need to be unique, they publish nothing.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Layer name, e.g. `engine.execute`.
    pub name: &'static str,
    /// Start, from [`now_ns`].
    pub start: u64,
    /// End, from [`now_ns`].
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request this span belongs to.
    pub req: u64,
}

/// A per-thread span buffer.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span under a pre-allocated id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: u64,
        end: u64,
    ) {
        self.spans.push(Span {
            id,
            name,
            start,
            end,
            parent,
            req,
        });
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(&mut self, name: &'static str, req: u64, parent: Option<u64>, start: u64) {
        self.record_as(next_id(), name, req, parent, start, now_ns());
    }
}

/// Nanoseconds `ds.run_seq(op)` takes inside one transaction on one
/// thread, timed from begin to commit of the attempt that commits.
///
/// # Panics
///
/// Panics if 1000 attempts abort: alone on its memory, a transaction
/// has nothing to conflict with.
pub fn run_seq_in_txn<D: DataStructure>(mem: &TMem, rt: &dyn Runtime, ds: &D, op: &D::Op) -> u64 {
    for _ in 0..1_000 {
        let t = now_ns();
        let mut tx = mem.begin(rt);
        let body = {
            let mut ctx = TxCtx::new(&mut tx);
            ds.run_seq(&mut ctx, op)
        };
        let committed = match body {
            Ok(_) => tx.commit().is_ok(),
            Err(c) => {
                tx.rollback(c);
                false
            }
        };
        if committed {
            return now_ns() - t;
        }
    }
    panic!("a single-threaded transaction kept aborting")
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, positionally.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            match children.get_mut(&s.id) {
                Some(kids) => dur - covered(s.start, s.end, kids),
                None => dur,
            }
        })
        .collect()
}

/// For each layer name, its self time summed per request (one entry per
/// request that entered the layer).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut per_req: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *per_req.entry((s.name, s.req)).or_default() += t;
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ((name, _), t) in per_req {
        out.entry(name).or_default().push(t);
    }
    out
}

/// Writes at most `max` spans as JSON lines; returns how many were
/// written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &Path, spans: &[Span], max: usize) -> io::Result<usize> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    let n = spans.len().min(max);
    for s in &spans[..n] {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.id, s.name, s.start, s.end, parent, s.req
        )?;
    }
    w.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
            req: 7,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(1, "root", None, 0, 100),
            // Two children overlap on [20, 30): covered time is [10, 40).
            span(2, "a", Some(1), 10, 30),
            span(3, "b", Some(1), 20, 40),
            // A child reaching past its parent is clipped to it.
            span(4, "c", Some(1), 90, 120),
            // A grandchild is charged to its own parent only.
            span(5, "d", Some(2), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
    }

    #[test]
    fn nested_and_disjoint_children() {
        let spans = [
            span(1, "root", None, 0, 50),
            span(2, "a", Some(1), 5, 45),
            span(3, "b", Some(1), 10, 20), // inside a
            span(4, "c", Some(1), 0, 5),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn layers_sum_self_time_per_request() {
        let mut spans = vec![
            span(1, "root", None, 0, 10),
            span(2, "frame", Some(1), 0, 2),
            span(3, "frame", Some(1), 6, 9),
        ];
        spans.push(Span {
            req: 8,
            ..span(4, "frame", None, 0, 4)
        });
        let layers = layer_self_times(&spans);
        assert_eq!(layers["frame"], vec![5, 4]);
        assert_eq!(layers["root"], vec![5]);
    }
}
