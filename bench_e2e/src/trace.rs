//! In-memory spans around the harness's own calls into each layer.
//!
//! The crates under test carry no instrumentation, so a traced pass
//! *replays* each op: first the real call (`submit_text(..).join()`), then
//! the same op piece by piece through each layer's public functions. A
//! span's `parent` is therefore *logical* — "this call is what the parent
//! does inside" — and a child's interval need not lie inside its parent's.
//! A layer's **self time** is its span's duration minus its children's
//! durations (never below zero); summed over an op's tree the self times
//! give back the root span, unless a replayed child ran longer than the
//! real parent did and had to be clamped.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its pass.
pub type SpanId = u32;
/// `parent` of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Position of the op in the schedule.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one pass.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span and return its id with `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            op,
        });
        (self.spans.len() as SpanId - 1, out)
    }
}

/// Self time of every span: duration minus children's durations, clamped
/// at zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_sum[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_sum)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Self time per span *name* over a whole pass: the summed durations of
/// the spans of that name minus the summed durations of their children.
/// Subtracting sums rather than summing per-span differences lets the
/// noise of individual replays cancel (a replay that happened to run
/// slower than its parent's real call is offset by one that ran faster)
/// instead of being clamped away span by span; the per-name selfs add up
/// to the summed root spans exactly unless a whole name goes negative.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut total: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut children: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *total.entry(s.name).or_insert(0) += s.dur_ns();
        if s.parent != NO_PARENT {
            *children.entry(spans[s.parent as usize].name).or_insert(0) += s.dur_ns();
        }
    }
    total
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                t.saturating_sub(children.get(name).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// The spans as a JSON array, one object per span.
pub fn to_json(passes: &[Vec<Span>]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (pass, spans) in passes.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .expect("writing to a String cannot fail");
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_times_of_an_op_sum_to_its_root_span() {
        // root 100; children 10 and 60 (replayed later, not nested in
        // time); grandchild 25 under the 60.
        let spans = vec![
            span("server.submit_join", 0, 100, NO_PARENT),
            span("automata.parse", 200, 210, 0),
            span("server.run_sync", 300, 360, 0),
            span("core.run", 400, 425, 2),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![30, 10, 35, 25]);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn per_name_self_times_sum_to_the_roots_even_when_a_replay_overran() {
        // Two ops. In the second the replayed child (30) overran its real
        // parent (20): per span that clamps to 0 and the op's selfs sum to
        // 30, not 20; per name the overrun cancels against the first op.
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("child", 200, 240, 0),
            span("root", 300, 320, NO_PARENT),
            span("child", 400, 430, 2),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["root"], 120 - 70);
        assert_eq!(by["child"], 70);
        assert_eq!(by.values().sum::<u64>(), 120, "the two root spans");
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 130);
    }

    #[test]
    fn a_child_longer_than_its_parent_is_clamped_not_negative() {
        let spans = vec![span("a", 0, 10, NO_PARENT), span("b", 20, 50, 0)];
        assert_eq!(self_times_ns(&spans), vec![0, 30]);
    }

    #[test]
    fn tracer_records_parent_and_op() {
        let mut t = Tracer::new(Instant::now());
        let (root, _) = t.span("root", NO_PARENT, 7, || ());
        let (child, v) = t.span("child", root, 7, || 42);
        assert_eq!(v, 42);
        assert_eq!(t.spans[child as usize].parent, root);
        assert_eq!(t.spans[child as usize].op, 7);
        assert!(t.spans[0].end_ns >= t.spans[0].start_ns);
        let json = to_json(&[t.spans.clone()]);
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"parent\":null"));
    }
}
