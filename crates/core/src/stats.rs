//! Evaluation statistics shared by all engines.

/// A traversal direction: chosen by `rpq_optimizer::PlannedEngine` from
/// per-label statistics (its plan records it), and reported per atom in
/// [`AtomStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Forward product BFS over the forward adjacency — the first label
    /// group is decisively the rare end.
    Forward,
    /// Backward product BFS (reversed NFA over the reverse adjacency) —
    /// the last label group is decisively the rare end.
    Backward,
    /// Neither end dominates — a pair search then starts from the source.
    #[default]
    Bidirectional,
}

/// Per-atom work record for conjunctive (multi-atom) evaluations: one
/// entry per atom *in execution order*, so the sequence of `atom` indices
/// IS the join order the planner chose — the join-order telemetry the
/// server's `Metrics` aggregate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AtomStats {
    /// The atom's index in the query's textual atom list (not the
    /// execution position — that is this entry's position in
    /// [`EvalStats::atoms`]).
    pub atom: usize,
    /// The traversal direction this atom was evaluated in (`None` when the
    /// atom was skipped, e.g. after budget exhaustion).
    pub direction: Option<Direction>,
    /// Graph edges scanned evaluating this atom.
    pub edges_scanned: usize,
    /// (source, target) bindings the atom contributed after semijoin
    /// restriction — the intermediate-result size the join planner tries
    /// to keep small.
    pub bindings: usize,
}

/// Work counters reported by every evaluation engine, used by the Section 2
/// complexity experiments (bench `t1_eval_scaling`) to compare engines on
/// the same inputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Distinct (automaton-state, node) or (quotient-class, node) pairs
    /// materialized — the data-complexity driver.
    pub pairs_visited: usize,
    /// Graph edges scanned (with multiplicity).
    pub edges_scanned: usize,
    /// Distinct quotient classes / DFA states materialized (1 for engines
    /// that track NFA states individually is *not* meaningful; product
    /// engines report the number of distinct automaton states touched).
    pub classes_materialized: usize,
    /// Number of answers produced.
    pub answers: usize,
    /// Compiled plans served from the planner's memo during this
    /// evaluation (0 for unplanned engines).
    pub plan_cache_hits: usize,
    /// Plans built from scratch (rewrite search + compilation) during this
    /// evaluation (0 for unplanned engines).
    pub plan_cache_misses: usize,
    /// Rewrite winners certified sound by the both-ways inclusion check
    /// under the constraint closure (0 when no rewrite fired).
    pub rewrites_certified: usize,
    /// Rewrite winners *rejected* by certification and rolled back to the
    /// original query. Nonzero values are a planner bug tripwire — the
    /// rewrite search validated a candidate certification then refuted.
    pub rewrites_rejected: usize,
    /// BFS levels the product search expanded, each by one *push* sweep (0
    /// for non-product engines).
    pub push_levels: usize,
    /// Inert; deleted with ROADMAP 1(b). No level is expanded by a pull
    /// sweep, so no engine sets this (always 0).
    pub pull_levels: usize,
    /// Largest per-level frontier, in (state, node) pairs.
    pub frontier_peak: usize,
    /// Label-index row lookups the product search asked of the snapshot,
    /// in whichever adjacency it walks — counted, like
    /// `edges_scanned`, per (state, labeled transition): states of one
    /// frontier entry that share a symbol share the one physical lookup
    /// and each count it, so the figure does not depend on how a level's
    /// pairs were grouped into entries. A search that resolves every row
    /// once reports one per (reached pair, labeled transition).
    pub rows_resolved: usize,
    /// Evaluations served from a warm `ScratchPool` buffer whose capacity
    /// already covered this query's |Q|·|V| shape (no fresh allocation on
    /// the hot path).
    pub scratch_reused: usize,
    /// Inert since PR 25; deleted with ROADMAP 1(b). Every search runs on
    /// its caller's thread; no engine sets this (always 0).
    pub threads_used: usize,
    /// Inert since PR 25; deleted with ROADMAP 1(b). No level fans out, so
    /// nothing is stolen; always 0.
    pub steal_count: usize,
    /// Inert since PR 25; deleted with ROADMAP 1(b). No level fans out;
    /// always 0.
    pub parallel_levels: usize,
    /// Per-atom records for conjunctive evaluations, in execution order
    /// (see [`AtomStats`]). Empty for single-atom requests.
    pub atoms: Vec<AtomStats>,
}

impl EvalStats {
    /// Sum of the work counters — a crude single-number cost.
    pub fn total_work(&self) -> usize {
        self.pairs_visited + self.edges_scanned
    }

    /// Accumulate `other` into `self` — the aggregation behind every
    /// per-seed loop (`Sources` / `Targets` / `Matrix` requests), so work
    /// counters from per-source calls are not discarded. All counters
    /// sum; for per-source batches `answers` is therefore the *total*
    /// across sources (with multiplicity), not the union size, and
    /// `classes_materialized` counts classes touched per constituent run
    /// (with multiplicity), not distinct classes across the batch.
    pub fn merge(&mut self, other: &EvalStats) {
        self.pairs_visited += other.pairs_visited;
        self.edges_scanned += other.edges_scanned;
        self.classes_materialized += other.classes_materialized;
        self.answers += other.answers;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.rewrites_certified += other.rewrites_certified;
        self.rewrites_rejected += other.rewrites_rejected;
        // Hot-path telemetry: level and reuse counters sum like any work
        // counter; the frontier peak is a high-water mark, so it maxes.
        self.push_levels += other.push_levels;
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.rows_resolved += other.rows_resolved;
        self.scratch_reused += other.scratch_reused;
        // Per-atom records concatenate in merge order, preserving each
        // constituent's execution sequence.
        self.atoms.extend(other.atoms.iter().cloned());
    }
}
