//! Per-query-class serving metrics: latency percentiles, work counters,
//! termination outcomes, admission rejections.
//!
//! Every thread that runs a query records into the shared [`Metrics`]
//! after the evaluation finishes; [`Metrics::class`] folds a class's
//! window into a [`ClassSnapshot`] on demand. Latencies are kept in a
//! bounded sliding window per class (last [`LATENCY_WINDOW`] queries), so
//! a long-lived server's percentiles track *recent* behavior and memory
//! stays flat.
//!
//! The per-class `push_levels` sum is the BFS levels a class expanded —
//! one push sweep each — so with `queries` it gives the class's average
//! search depth.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use rpq_core::{EvalStats, SourceSpec, Termination};

/// Sliding-window size for per-class latency percentiles.
pub const LATENCY_WINDOW: usize = 4096;

/// The request shapes the server accounts separately — one per
/// [`SourceSpec`] arm.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Single-source (`SourceSpec::Source`).
    Single,
    /// Multi-source batch (`SourceSpec::Sources`).
    Batch,
    /// Target-bound (`SourceSpec::Target`).
    TargetBound,
    /// Multi-target batch (`SourceSpec::Targets`).
    TargetBatch,
    /// Pair reachability (`SourceSpec::Pair`).
    Pair,
    /// N×M reachability matrix (`SourceSpec::Matrix`).
    Matrix,
    /// Binding-set / conjunctive (`SourceSpec::Conjunctive`), including
    /// multi-atom CRPQs submitted as text.
    Conjunctive,
}

impl QueryClass {
    /// Every class, in display order.
    pub const ALL: [QueryClass; 7] = [
        QueryClass::Single,
        QueryClass::Batch,
        QueryClass::TargetBound,
        QueryClass::TargetBatch,
        QueryClass::Pair,
        QueryClass::Matrix,
        QueryClass::Conjunctive,
    ];

    /// The class a request shape belongs to.
    pub fn of(spec: &SourceSpec) -> QueryClass {
        match spec {
            SourceSpec::Source(_) => QueryClass::Single,
            SourceSpec::Sources(_) => QueryClass::Batch,
            SourceSpec::Target(_) => QueryClass::TargetBound,
            SourceSpec::Targets(_) => QueryClass::TargetBatch,
            SourceSpec::Pair { .. } => QueryClass::Pair,
            SourceSpec::Matrix { .. } => QueryClass::Matrix,
            SourceSpec::Conjunctive { .. } => QueryClass::Conjunctive,
        }
    }

    /// Stable display name (used by benches and logs).
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Single => "single",
            QueryClass::Batch => "batch",
            QueryClass::TargetBound => "target",
            QueryClass::TargetBatch => "target-batch",
            QueryClass::Pair => "pair",
            QueryClass::Matrix => "matrix",
            QueryClass::Conjunctive => "conjunctive",
        }
    }

    fn index(self) -> usize {
        match self {
            QueryClass::Single => 0,
            QueryClass::Batch => 1,
            QueryClass::TargetBound => 2,
            QueryClass::TargetBatch => 3,
            QueryClass::Pair => 4,
            QueryClass::Matrix => 5,
            QueryClass::Conjunctive => 6,
        }
    }
}

#[derive(Default)]
struct ClassAgg {
    queries: usize,
    edges_scanned: usize,
    answers: usize,
    push_levels: usize,
    complete: usize,
    budget_exhausted: usize,
    cancelled: usize,
    atoms_evaluated: usize,
    atom_edges_scanned: usize,
    latencies_ns: VecDeque<u64>,
}

/// One class's folded metrics at a point in time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassSnapshot {
    /// Queries recorded (lifetime of the server, not the window).
    pub queries: usize,
    /// Total `edges_scanned` across the class's queries.
    pub edges_scanned: usize,
    /// Total answers produced.
    pub answers: usize,
    /// Total BFS levels, each one push sweep.
    pub push_levels: usize,
    /// Runs that explored everything.
    pub complete: usize,
    /// Runs stopped by the fetch budget.
    pub budget_exhausted: usize,
    /// Runs stopped by cooperative cancellation.
    pub cancelled: usize,
    /// Conjunctive atoms evaluated (one per [`rpq_core::AtomStats`]
    /// record) — together with `queries` this gives the average join size
    /// the class serves.
    pub atoms_evaluated: usize,
    /// Edges scanned attributable to individual conjunctive atoms (the sum
    /// of per-atom `edges_scanned`; join-order telemetry).
    pub atom_edges_scanned: usize,
    /// Median latency over the sliding window, nanoseconds (0 when empty).
    pub p50_latency_ns: u64,
    /// 99th-percentile latency over the sliding window, nanoseconds.
    pub p99_latency_ns: u64,
}

/// Shared serving metrics: one aggregate per [`QueryClass`] plus the
/// admission-rejection counter.
#[derive(Default)]
pub struct Metrics {
    classes: [Mutex<ClassAgg>; 7],
    rejected: AtomicUsize,
    /// Lifetime queries recorded, readable without taking a class lock.
    recorded: AtomicUsize,
    /// Latest observed [`rpq_core::ScratchPool`] arena-allocation count
    /// (engine-global; refreshed at each record point).
    scratch_allocs: AtomicUsize,
    /// Latest observed [`rpq_core::ScratchPool`] warm-checkout count.
    scratch_reuses: AtomicUsize,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one finished query.
    pub fn record(
        &self,
        class: QueryClass,
        latency: Duration,
        stats: &EvalStats,
        termination: Termination,
    ) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut agg = self.classes[class.index()].lock();
        agg.queries += 1;
        agg.edges_scanned += stats.edges_scanned;
        agg.answers += stats.answers;
        agg.push_levels += stats.push_levels;
        agg.atoms_evaluated += stats.atoms.len();
        agg.atom_edges_scanned += stats.atoms.iter().map(|a| a.edges_scanned).sum::<usize>();
        match termination {
            Termination::Complete => agg.complete += 1,
            Termination::BudgetExhausted => agg.budget_exhausted += 1,
            Termination::Cancelled => agg.cancelled += 1,
        }
        if agg.latencies_ns.len() == LATENCY_WINDOW {
            agg.latencies_ns.pop_front();
        }
        agg.latencies_ns
            .push_back(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Count one admission rejection.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Submissions rejected by admission control so far.
    pub fn rejected(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Fold one class's aggregate into a snapshot (computes the window
    /// percentiles).
    pub fn class(&self, class: QueryClass) -> ClassSnapshot {
        let agg = self.classes[class.index()].lock();
        let mut window: Vec<u64> = agg.latencies_ns.iter().copied().collect();
        window.sort_unstable();
        ClassSnapshot {
            queries: agg.queries,
            edges_scanned: agg.edges_scanned,
            answers: agg.answers,
            push_levels: agg.push_levels,
            complete: agg.complete,
            budget_exhausted: agg.budget_exhausted,
            cancelled: agg.cancelled,
            atoms_evaluated: agg.atoms_evaluated,
            atom_edges_scanned: agg.atom_edges_scanned,
            p50_latency_ns: percentile(&window, 0.50),
            p99_latency_ns: percentile(&window, 0.99),
        }
    }

    /// Lifetime queries recorded across every class, without locking any
    /// class aggregate (cheap enough to read on every record point).
    pub fn recorded(&self) -> usize {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Refresh the engine-global scratch-pool counters (latest values win;
    /// the pool counters are monotonic, so any record point's observation
    /// is a valid snapshot).
    pub fn observe_scratch(&self, allocs: usize, reuses: usize) {
        self.scratch_allocs.store(allocs, Ordering::Relaxed);
        self.scratch_reuses.store(reuses, Ordering::Relaxed);
    }

    /// Arena allocations the engine's [`rpq_core::ScratchPool`] has
    /// performed (cold checkouts), as last observed at a record point.
    pub fn scratch_allocs(&self) -> usize {
        self.scratch_allocs.load(Ordering::Relaxed)
    }

    /// Warm arena checkouts (reuses) of the engine's scratch pool, as last
    /// observed at a record point.
    pub fn scratch_reuses(&self) -> usize {
        self.scratch_reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(edges: usize) -> EvalStats {
        EvalStats {
            edges_scanned: edges,
            answers: 1,
            push_levels: 2,
            ..EvalStats::default()
        }
    }

    #[test]
    fn records_aggregate_per_class() {
        let m = Metrics::new();
        m.record(
            QueryClass::Single,
            Duration::from_micros(10),
            &stats(100),
            Termination::Complete,
        );
        m.record(
            QueryClass::Single,
            Duration::from_micros(30),
            &stats(50),
            Termination::BudgetExhausted,
        );
        m.record(
            QueryClass::Pair,
            Duration::from_micros(5),
            &stats(7),
            Termination::Cancelled,
        );
        let s = m.class(QueryClass::Single);
        assert_eq!(s.queries, 2);
        assert_eq!(s.edges_scanned, 150);
        assert_eq!(s.complete, 1);
        assert_eq!(s.budget_exhausted, 1);
        assert_eq!(s.push_levels, 4);
        assert!(s.p50_latency_ns >= Duration::from_micros(10).as_nanos() as u64);
        assert!(s.p99_latency_ns >= s.p50_latency_ns);
        assert_eq!(m.class(QueryClass::Pair).cancelled, 1);
        assert_eq!(m.class(QueryClass::Matrix), ClassSnapshot::default());
    }

    #[test]
    fn latency_window_is_bounded() {
        let m = Metrics::new();
        for i in 0..LATENCY_WINDOW + 100 {
            m.record(
                QueryClass::Batch,
                Duration::from_nanos(i as u64),
                &stats(0),
                Termination::Complete,
            );
        }
        let s = m.class(QueryClass::Batch);
        assert_eq!(
            s.queries,
            LATENCY_WINDOW + 100,
            "lifetime count keeps going"
        );
        // the window dropped the 100 oldest (smallest) samples
        assert!(s.p50_latency_ns as usize >= 100 + LATENCY_WINDOW / 2 - 1);
    }

    #[test]
    fn class_of_covers_every_spec() {
        use rpq_graph::Oid;
        let o = Oid(0);
        assert_eq!(QueryClass::of(&SourceSpec::Source(o)), QueryClass::Single);
        assert_eq!(
            QueryClass::of(&SourceSpec::Sources(vec![o])),
            QueryClass::Batch
        );
        assert_eq!(
            QueryClass::of(&SourceSpec::Target(o)),
            QueryClass::TargetBound
        );
        assert_eq!(
            QueryClass::of(&SourceSpec::Targets(vec![o])),
            QueryClass::TargetBatch
        );
        assert_eq!(
            QueryClass::of(&SourceSpec::Pair {
                source: o,
                target: o
            }),
            QueryClass::Pair
        );
        assert_eq!(
            QueryClass::of(&SourceSpec::Matrix {
                sources: vec![o],
                targets: vec![o]
            }),
            QueryClass::Matrix
        );
        assert_eq!(
            QueryClass::of(&SourceSpec::Conjunctive {
                sources: Some(vec![o]),
                targets: None
            }),
            QueryClass::Conjunctive
        );
    }

    #[test]
    fn atom_telemetry_aggregates() {
        use rpq_core::AtomStats;
        let m = Metrics::new();
        let s = EvalStats {
            edges_scanned: 30,
            atoms: vec![
                AtomStats {
                    atom: 1,
                    direction: None,
                    edges_scanned: 20,
                    bindings: 4,
                },
                AtomStats {
                    atom: 0,
                    direction: None,
                    edges_scanned: 10,
                    bindings: 2,
                },
            ],
            ..EvalStats::default()
        };
        m.record(
            QueryClass::Conjunctive,
            Duration::from_micros(1),
            &s,
            Termination::Complete,
        );
        let snap = m.class(QueryClass::Conjunctive);
        assert_eq!(snap.atoms_evaluated, 2);
        assert_eq!(snap.atom_edges_scanned, 30);
    }
}
