//! [`DeltaGraph`] — an incremental snapshot: immutable base CSR plus a
//! mutation overlay.
//!
//! A production evaluator under write traffic cannot afford the `O(V + E)`
//! rebuild that freezing an [`crate::Instance`] into a [`CsrGraph`] costs on
//! every edge batch. `DeltaGraph` keeps the last compacted [`CsrGraph`] as
//! an immutable **base** and absorbs mutations into **per-label sorted
//! logs**: an add log of new edges and a tombstone log marking deleted base
//! edges. Each log is held in both orientations — sorted by `(source,
//! target)` for [`DeltaGraph::out`] and by `(target, source)` for
//! [`DeltaGraph::rev`] — so a `(node, label)` step is still one binary
//! search plus a contiguous range, merged lazily with the base row by
//! [`crate::view::OverlayEdges`].
//!
//! The overlay is **exact**: evaluation over the delta form agrees with a
//! from-scratch rebuild on every query (property-tested in
//! `tests/incremental_snapshots.rs`). [`LabelStats`] are maintained
//! incrementally on every mutation, with a debug-build equivalence check
//! against a recount at [`DeltaGraph::compact`] time.
//!
//! [`DeltaGraph::compact`] folds the logs into a new base CSR by one
//! sorted merge per orientation ([`CsrGraph`]'s row blocks that hold a
//! touched row are rebuilt, every other is shared with the old base — no
//! [`Instance`] is rebuilt, no untouched row copied) and **keeps the
//! [`Epoch`] lineage**: a fold reorganises storage, it
//! changes no edge, count or statistic, so plans that
//! `rpq_optimizer::PlannedEngine` memoized before it (see its epoch-aware
//! memo) are served as exact hits after it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rpq_automata::Symbol;

use crate::csr::{CsrGraph, LabelStats, RowPatch};
use crate::instance::{Instance, Oid};
use crate::view::{EdgeDelta, Epoch, GraphView, OverlayEdges, RowPart, ViewEdges, ViewGroups};

/// Process-unique lineage ids for delta bases (0 is reserved for
/// standalone [`CsrGraph`]s — see [`Epoch::STATIC`]).
static NEXT_BASE_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_base_epoch() -> u64 {
    NEXT_BASE_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// One label's mutation log, in both orientations. `fwd` is sorted by
/// `(source, target)`, `rev` by `(target, source)` — mirrors of each other.
#[derive(Clone, Debug, Default)]
struct LabelLog {
    fwd: Vec<(Oid, Oid)>,
    rev: Vec<(Oid, Oid)>,
}

impl LabelLog {
    fn insert(&mut self, from: Oid, to: Oid) -> bool {
        match self.fwd.binary_search(&(from, to)) {
            Ok(_) => false,
            Err(pos) => {
                self.fwd.insert(pos, (from, to));
                let rpos = self.rev.binary_search(&(to, from)).unwrap_err();
                self.rev.insert(rpos, (to, from));
                true
            }
        }
    }

    fn remove(&mut self, from: Oid, to: Oid) -> bool {
        match self.fwd.binary_search(&(from, to)) {
            Ok(pos) => {
                let rpos = self.rev.binary_search(&(to, from));
                debug_assert!(rpos.is_ok(), "rev log mirrors fwd log");
                match rpos {
                    Ok(rpos) => {
                        self.fwd.remove(pos);
                        self.rev.remove(rpos);
                        true
                    }
                    // Impossible under the mirror invariant; if it ever
                    // happens, leave both logs untouched so forward and
                    // backward evaluation keep seeing the same edges.
                    Err(_) => false,
                }
            }
            Err(_) => false,
        }
    }

    fn contains(&self, from: Oid, to: Oid) -> bool {
        self.fwd.binary_search(&(from, to)).is_ok()
    }

    /// The contiguous `(key, endpoint)` range whose key is `v`.
    fn range(pairs: &[(Oid, Oid)], v: Oid) -> &[(Oid, Oid)] {
        let lo = pairs.partition_point(|&(k, _)| k < v);
        let hi = pairs.partition_point(|&(k, _)| k <= v);
        &pairs[lo..hi]
    }

    fn len(&self) -> usize {
        self.fwd.len()
    }
}

/// When should a writer fold a [`DeltaGraph`]'s overlay into a fresh base?
///
/// Compaction trades a rebuild of the row blocks the overlay touches
/// (`O(touched blocks)`, plus one pointer copy per block of the base, see
/// [`DeltaGraph::compact`]; it keeps the epoch lineage, so no plan is lost
/// to it) against the per-read cost of overlay merges.
/// The policy triggers on either of two measured signals, gated by a
/// minimum log size so tiny graphs don't thrash:
///
/// * **log/base edge ratio** — total log length (adds + tombstones) as a
///   fraction of base edges ([`DeltaGraph::log_len`]);
/// * **overlay overhead** — how many `(node, label)` rows pay the sorted
///   merge instead of a raw slice ([`DeltaGraph::overlay_rows`]), as a
///   fraction of the node count.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once `log_len() > max_log_ratio * base.num_edges()`.
    pub max_log_ratio: f64,
    /// Never compact while `log_len() < min_log_len` (anti-thrash floor).
    pub min_log_len: usize,
    /// Compact once `overlay_rows() > max_overlay_row_fraction *
    /// num_nodes()` — the measured read-amplification trigger.
    pub max_overlay_row_fraction: f64,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            max_log_ratio: 0.25,
            min_log_len: 64,
            max_overlay_row_fraction: 0.5,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never compacts (for tests and manual control).
    pub const NEVER: CompactionPolicy = CompactionPolicy {
        max_log_ratio: f64::INFINITY,
        min_log_len: usize::MAX,
        max_overlay_row_fraction: f64::INFINITY,
    };
}

/// An incremental snapshot: immutable base [`CsrGraph`] plus per-label
/// sorted add/tombstone logs. See the module docs for the design; build one
/// with [`DeltaGraph::new`] (or [`DeltaGraph::from_instance`]), mutate with
/// [`DeltaGraph::add_edge`] / [`DeltaGraph::delete_edge`] /
/// [`DeltaGraph::apply_delta`], and fold the overlay down with
/// [`DeltaGraph::compact`].
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    /// The immutable base, shared (`Arc`) so cloning a `DeltaGraph` for a
    /// pinned reader snapshot costs `O(log)` rather than `O(V + E)`, and so
    /// [`DeltaGraph::compact`] is copy-on-write: it installs a *fresh*
    /// `Arc`, leaving every previously cloned snapshot reading its old base
    /// undisturbed.
    base: Arc<CsrGraph>,
    /// Add logs, indexed by label. Invariant: disjoint from the base (an
    /// edge present in the base is never also in the add log).
    adds: Vec<LabelLog>,
    /// Tombstone logs, indexed by label. Invariant: a subset of the base.
    dels: Vec<LabelLog>,
    /// Nodes created after the base was frozen (they have no base rows).
    extra_nodes: usize,
    /// Effective per-label statistics, maintained incrementally.
    stats: LabelStats,
    /// Effective edge count (base − tombstones + adds).
    edges: usize,
    base_epoch: u64,
    version: u64,
}

impl DeltaGraph {
    /// Wrap an immutable base snapshot, starting a fresh epoch lineage.
    pub fn new(base: CsrGraph) -> DeltaGraph {
        DeltaGraph::from_shared(Arc::new(base))
    }

    /// Wrap an already-shared base snapshot (no copy), starting a fresh
    /// epoch lineage.
    pub fn from_shared(base: Arc<CsrGraph>) -> DeltaGraph {
        let stats = base.stats().clone();
        let edges = base.num_edges();
        DeltaGraph {
            base,
            adds: Vec::new(),
            dels: Vec::new(),
            extra_nodes: 0,
            stats,
            edges,
            base_epoch: fresh_base_epoch(),
            version: 0,
        }
    }

    /// Snapshot `instance` into a base CSR and wrap it.
    pub fn from_instance(instance: &Instance) -> DeltaGraph {
        DeltaGraph::new(CsrGraph::from(instance))
    }

    /// The current immutable base snapshot (excludes the overlay).
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Do `self` and `other` share the same physical base arena? Clones
    /// share until one side compacts (copy-on-write); a pinned snapshot
    /// therefore keeps serving its old base after the writer's
    /// [`DeltaGraph::compact`].
    pub fn shares_base_with(&self, other: &DeltaGraph) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Number of nodes (base nodes plus nodes added since).
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes() + self.extra_nodes
    }

    /// Number of effective edges (base − tombstones + adds).
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Effective per-label statistics, maintained incrementally on every
    /// mutation (never recomputed from scratch at read time).
    pub fn stats(&self) -> &LabelStats {
        &self.stats
    }

    /// Snapshot identity: the lineage id drawn when this graph was created
    /// plus the number of steps (mutation calls, batches, folds) since.
    pub fn epoch(&self) -> Epoch {
        Epoch {
            base: self.base_epoch,
            version: self.version,
        }
    }

    /// Total log length (adds + tombstones) — the overlay debt a
    /// [`DeltaGraph::compact`] would fold down. Useful for compaction
    /// policies (`log_len() > base.num_edges() / k`).
    pub fn log_len(&self) -> usize {
        self.adds.iter().map(LabelLog::len).sum::<usize>()
            + self.dels.iter().map(LabelLog::len).sum::<usize>()
    }

    /// Measured overlay overhead: the number of `(node, label)` rows —
    /// counting both orientations — that currently pay the sorted-merge
    /// path ([`crate::view::OverlayEdges`]) instead of a raw base slice.
    /// Every such row costs two binary searches per probe on the read side,
    /// so this is the read-amplification half of a [`CompactionPolicy`].
    pub fn overlay_rows(&self) -> usize {
        fn distinct_union_keys(a: &[(Oid, Oid)], b: &[(Oid, Oid)]) -> usize {
            let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
            loop {
                let key = match (a.get(i), b.get(j)) {
                    (Some(&(ka, _)), Some(&(kb, _))) => ka.min(kb),
                    (Some(&(ka, _)), None) => ka,
                    (None, Some(&(kb, _))) => kb,
                    (None, None) => break,
                };
                while i < a.len() && a[i].0 == key {
                    i += 1;
                }
                while j < b.len() && b[j].0 == key {
                    j += 1;
                }
                n += 1;
            }
            n
        }
        let slots = self.adds.len().max(self.dels.len());
        let mut rows = 0;
        for slot in 0..slots {
            let adds = self.adds.get(slot);
            let dels = self.dels.get(slot);
            let a_fwd = adds.map_or(&[][..], |l| &l.fwd);
            let d_fwd = dels.map_or(&[][..], |l| &l.fwd);
            let a_rev = adds.map_or(&[][..], |l| &l.rev);
            let d_rev = dels.map_or(&[][..], |l| &l.rev);
            rows += distinct_union_keys(a_fwd, d_fwd) + distinct_union_keys(a_rev, d_rev);
        }
        rows
    }

    /// Has the overlay grown past `policy`'s thresholds, so that the next
    /// write boundary should fold it down? Readers never call this —
    /// compaction is a writer-side decision; pinned snapshot clones keep
    /// serving their old base regardless (see [`DeltaGraph::compact`]).
    pub fn should_compact(&self, policy: &CompactionPolicy) -> bool {
        let log = self.log_len();
        if log < policy.min_log_len {
            return false;
        }
        let base_edges = self.base.num_edges().max(1) as f64;
        if log as f64 > policy.max_log_ratio * base_edges {
            return true;
        }
        let rows = self.overlay_rows() as f64;
        rows > policy.max_overlay_row_fraction * self.num_nodes().max(1) as f64
    }

    /// Compact if [`DeltaGraph::should_compact`] says so; returns what
    /// [`DeltaGraph::compact`] did if a compaction happened.
    pub fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<usize> {
        self.should_compact(policy).then(|| self.compact())
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = Oid> + '_ {
        (0..self.num_nodes() as u32).map(Oid)
    }

    /// Add a node (it has no base row; edges live purely in the logs until
    /// the next compaction).
    pub fn add_node(&mut self) -> Oid {
        self.extra_nodes += 1;
        self.version += 1;
        Oid((self.num_nodes() - 1) as u32)
    }

    fn base_out(&self, v: Oid, label: Symbol) -> &[Oid] {
        if v.index() < self.base.num_nodes() {
            self.base.out(v, label)
        } else {
            &[]
        }
    }

    fn base_rev(&self, v: Oid, label: Symbol) -> &[Oid] {
        if v.index() < self.base.num_nodes() {
            self.base.rev(v, label)
        } else {
            &[]
        }
    }

    fn log(logs: &[LabelLog], label: Symbol) -> Option<&LabelLog> {
        logs.get(label.index())
    }

    fn log_mut(logs: &mut Vec<LabelLog>, label: Symbol) -> &mut LabelLog {
        if logs.len() <= label.index() {
            logs.resize_with(label.index() + 1, LabelLog::default);
        }
        &mut logs[label.index()]
    }

    /// The targets of `v`'s edges labeled `label`, ascending — the base row
    /// with tombstones skipped, merged with the add log.
    #[inline]
    pub fn out(&self, v: Oid, label: Symbol) -> ViewEdges<'_> {
        let base = self.base_out(v, label);
        let dels = Self::log(&self.dels, label).map_or(&[][..], |l| LabelLog::range(&l.fwd, v));
        let adds = Self::log(&self.adds, label).map_or(&[][..], |l| LabelLog::range(&l.fwd, v));
        if dels.is_empty() && adds.is_empty() {
            return ViewEdges::Slice(base);
        }
        ViewEdges::Overlay(OverlayEdges {
            base,
            dels,
            adds,
            len: base.len() - dels.len() + adds.len(),
        })
    }

    /// The sources of edges labeled `label` arriving at `v`, ascending —
    /// the transpose of [`DeltaGraph::out`], served from the reverse log
    /// orientation.
    #[inline]
    pub fn rev(&self, v: Oid, label: Symbol) -> ViewEdges<'_> {
        let base = self.base_rev(v, label);
        let dels = Self::log(&self.dels, label).map_or(&[][..], |l| LabelLog::range(&l.rev, v));
        let adds = Self::log(&self.adds, label).map_or(&[][..], |l| LabelLog::range(&l.rev, v));
        if dels.is_empty() && adds.is_empty() {
            return ViewEdges::Slice(base);
        }
        ViewEdges::Overlay(OverlayEdges {
            base,
            dels,
            adds,
            len: base.len() - dels.len() + adds.len(),
        })
    }

    /// `v`'s out-row grouped by label (each distinct label once, non-empty
    /// groups only, labels ascending) — the overlay counterpart of
    /// [`CsrGraph::out_groups`]. Costs one [`DeltaGraph::out`] probe per
    /// label slot tracked by the view (alphabets are small in this
    /// workspace, so this stays within noise of the CSR group walk).
    pub fn out_groups(&self, v: Oid) -> ViewGroups<'_> {
        ViewGroups::Delta(DeltaGroups {
            graph: self,
            v,
            next_label: 0,
            num_labels: self.num_label_slots(),
        })
    }

    fn num_label_slots(&self) -> usize {
        self.stats
            .num_labels()
            .max(self.base.stats().num_labels())
            .max(self.adds.len())
    }

    /// Does the effective view contain `Ref(from, label, to)`?
    pub fn has_edge(&self, from: Oid, label: Symbol, to: Oid) -> bool {
        let in_base = self.base_out(from, label).binary_search(&to).is_ok();
        if in_base {
            !Self::log(&self.dels, label).is_some_and(|l| l.contains(from, to))
        } else {
            Self::log(&self.adds, label).is_some_and(|l| l.contains(from, to))
        }
    }

    /// Add `Ref(from, label, to)`. Returns true if the edge was new (it was
    /// neither live in the base nor in the add log); resurrecting a
    /// tombstoned base edge removes the tombstone rather than growing the
    /// add log. An endpoint that is no node is a miss (`false`), as it is
    /// for [`DeltaGraph::delete_edge`] and on the read side. Each call is
    /// one epoch step.
    pub fn add_edge(&mut self, from: Oid, label: Symbol, to: Oid) -> bool {
        self.version += 1;
        if from.index() >= self.num_nodes() || to.index() >= self.num_nodes() {
            return false;
        }
        let in_base = self.base_out(from, label).binary_search(&to).is_ok();
        let grew = if in_base {
            // live already, or tombstoned (then resurrect)
            Self::log_mut(&mut self.dels, label).remove(from, to)
        } else {
            let had_label = !self.out(from, label).is_empty();
            let inserted = Self::log_mut(&mut self.adds, label).insert(from, to);
            if inserted {
                self.stats.note_added(label, !had_label);
                self.edges += 1;
            }
            return inserted;
        };
        if grew {
            // the resurrected edge re-enters the stats and edge count
            let had_label = self.out(from, label).len() > 1;
            self.stats.note_added(label, !had_label);
            self.edges += 1;
        }
        grew
    }

    /// Delete `Ref(from, label, to)`. Returns true if the edge was live
    /// (deleting an add-log edge drops it from the log; deleting a base
    /// edge tombstones it). Each call is one epoch step.
    pub fn delete_edge(&mut self, from: Oid, label: Symbol, to: Oid) -> bool {
        self.version += 1;
        if from.index() >= self.num_nodes() {
            return false;
        }
        let removed = if let Some(l) = Self::log(&self.adds, label) {
            l.contains(from, to) && Self::log_mut(&mut self.adds, label).remove(from, to)
        } else {
            false
        };
        let removed = removed
            || (self.base_out(from, label).binary_search(&to).is_ok()
                && Self::log_mut(&mut self.dels, label).insert(from, to));
        if removed {
            self.edges -= 1;
            let has_label = !self.out(from, label).is_empty();
            self.stats.note_removed(label, !has_label);
        }
        removed
    }

    /// Apply a mutation batch as **one** epoch step (individual
    /// [`DeltaGraph::add_edge`] / [`DeltaGraph::delete_edge`] calls each
    /// step the epoch on their own). Returns the number of mutations that
    /// took effect (duplicates and misses are ignored, set semantics).
    pub fn apply_delta(&mut self, delta: &EdgeDelta) -> usize {
        let before = self.version;
        let mut applied = 0;
        for &(f, l, t) in &delta.dels {
            applied += usize::from(self.delete_edge(f, l, t));
        }
        for &(f, l, t) in &delta.adds {
            applied += usize::from(self.add_edge(f, l, t));
        }
        self.version = before + 1;
        applied
    }

    /// Iterate over all effective edges as `(source, label, target)`.
    pub fn edges(&self) -> impl Iterator<Item = (Oid, Symbol, Oid)> + '_ {
        self.nodes().flat_map(move |v| {
            self.out_groups(v)
                .flat_map(move |(l, ts)| ts.map(move |t| (v, l, t)))
        })
    }

    /// One orientation's logs as [`CsrGraph::fold`] takes them: every add
    /// and tombstone of every label, sorted by `(row, label, endpoint)`.
    fn patches(&self, reverse: bool) -> Vec<RowPatch> {
        let mut log = Vec::with_capacity(self.log_len());
        for (logs, add) in [(&self.dels, false), (&self.adds, true)] {
            for (slot, l) in logs.iter().enumerate() {
                let pairs = if reverse { &l.rev } else { &l.fwd };
                let label = Symbol::from_index(slot);
                log.extend(pairs.iter().map(|&(row, end)| (row, label, end, add)));
            }
        }
        log.sort_unstable();
        log
    }

    /// Fold the overlay into a new base CSR and clear the logs; returns the
    /// number of row blocks built for it, over both orientations. The logs
    /// are merged into the base in one pass per orientation
    /// (`CsrGraph::fold`) that rebuilds the blocks holding a touched row,
    /// opens blocks for new nodes past the old last one, and shares every
    /// other block with the old base: `O(touched blocks)` of copying plus
    /// one pointer per block, whatever the size of the graph. The
    /// fold **keeps the epoch lineage** and steps `version` by one — edges,
    /// counts and statistics are what they were, so plans memoized before
    /// the fold stay valid after it. With nothing to fold (empty logs, no
    /// new node) it does nothing at all and returns 0. In debug builds,
    /// asserts the incrementally maintained [`LabelStats`] agree with a
    /// recount of the new base.
    ///
    /// Compaction is **copy-on-write**: the new base is installed as a
    /// fresh `Arc`, so `DeltaGraph` clones taken before the call (pinned
    /// reader snapshots) keep the old base's blocks alive and finish their
    /// traversals undisturbed — no reader is ever blocked or invalidated by
    /// a writer-side compaction.
    pub fn compact(&mut self) -> usize {
        if self.log_len() == 0 && self.extra_nodes == 0 {
            return 0;
        }
        let (base, blocks_built) = self.base.fold(
            self.num_nodes(),
            self.edges,
            &self.patches(false),
            &self.patches(true),
            self.stats.clone(),
        );
        debug_assert!(
            self.stats.agrees_with(&base.recount_stats()),
            "incremental LabelStats diverged from compaction recount:\n{:?}\nvs\n{:?}",
            self.stats,
            base.recount_stats()
        );
        debug_assert_eq!(
            self.stats.fingerprint(),
            self.stats.fingerprint_recomputed()
        );
        self.base = Arc::new(base);
        self.adds.clear();
        self.dels.clear();
        self.extra_nodes = 0;
        self.version += 1;
        blocks_built
    }
}

impl GraphView for DeltaGraph {
    fn num_nodes(&self) -> usize {
        DeltaGraph::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        DeltaGraph::num_edges(self)
    }

    fn stats(&self) -> &LabelStats {
        DeltaGraph::stats(self)
    }

    fn epoch(&self) -> Epoch {
        DeltaGraph::epoch(self)
    }

    fn out(&self, v: Oid, label: Symbol) -> ViewEdges<'_> {
        DeltaGraph::out(self, v, label)
    }

    fn rev(&self, v: Oid, label: Symbol) -> ViewEdges<'_> {
        DeltaGraph::rev(self, v, label)
    }

    fn out_groups(&self, v: Oid) -> ViewGroups<'_> {
        DeltaGraph::out_groups(self, v)
    }

    /// Loads the base row; the overlay's logs are small and shared by
    /// every row of a label.
    #[inline]
    fn prefetch(&self, v: Oid, reverse: bool, part: RowPart) {
        if v.index() < self.base.num_nodes() {
            self.base.prefetch_row(v, reverse, part);
        }
    }
}

/// Iterator behind [`DeltaGraph::out_groups`]: walks label slots in
/// ascending order, yielding each label whose overlay out-row segment is
/// non-empty.
pub struct DeltaGroups<'a> {
    graph: &'a DeltaGraph,
    v: Oid,
    next_label: usize,
    num_labels: usize,
}

impl<'a> Iterator for DeltaGroups<'a> {
    type Item = (Symbol, ViewEdges<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next_label < self.num_labels {
            let label = Symbol::from_index(self.next_label);
            self.next_label += 1;
            let edges = self.graph.out(self.v, label);
            if !edges.is_empty() {
                return Some((label, edges));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use rpq_automata::Alphabet;

    fn sample() -> (Alphabet, Instance) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("s", "a", "y");
        b.edge("s", "b", "x");
        b.edge("x", "b", "y");
        b.edge("y", "b", "x");
        b.edge("y", "a", "s");
        let (inst, _) = b.finish();
        (ab, inst)
    }

    fn collect(edges: ViewEdges<'_>) -> Vec<Oid> {
        edges.collect()
    }

    #[test]
    fn fresh_delta_matches_base() {
        let (ab, inst) = sample();
        let dg = DeltaGraph::from_instance(&inst);
        let csr = CsrGraph::from(&inst);
        assert_eq!(dg.num_nodes(), csr.num_nodes());
        assert_eq!(dg.num_edges(), csr.num_edges());
        for v in csr.nodes() {
            for sym in ab.symbols() {
                assert_eq!(collect(dg.out(v, sym)), csr.out(v, sym));
                assert_eq!(collect(dg.rev(v, sym)), csr.rev(v, sym));
            }
        }
        assert!(dg.stats().agrees_with(csr.stats()));
    }

    #[test]
    fn adds_and_deletes_overlay_the_base() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let (s, x, y) = (Oid(0), Oid(1), Oid(2));

        assert!(dg.delete_edge(s, a, x));
        assert!(!dg.delete_edge(s, a, x), "double delete is a no-op");
        assert!(dg.add_edge(x, a, y));
        assert!(!dg.add_edge(x, a, y), "duplicate add is a no-op");
        assert_eq!(dg.num_edges(), 6);

        assert_eq!(collect(dg.out(s, a)), vec![y]);
        assert_eq!(collect(dg.out(x, a)), vec![y]);
        assert!(dg.rev(x, a).is_empty());
        assert_eq!(collect(dg.rev(y, a)), vec![s, x]);
        assert!(!dg.has_edge(s, a, x));
        assert!(dg.has_edge(x, a, y));

        // resurrect the tombstoned base edge
        assert!(dg.add_edge(s, a, x));
        assert_eq!(collect(dg.out(s, a)), vec![x, y]);
        assert_eq!(dg.num_edges(), 7);

        // delete an add-log edge
        assert!(dg.delete_edge(x, a, y));
        assert!(!dg.has_edge(x, a, y));
        let _ = b;
    }

    #[test]
    fn out_groups_partition_the_overlay_row() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let s = Oid(0);
        dg.delete_edge(s, a, Oid(1));
        dg.add_edge(s, b, Oid(2));
        let groups: Vec<(Symbol, Vec<Oid>)> =
            dg.out_groups(s).map(|(l, ts)| (l, ts.collect())).collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (a, vec![Oid(2)]));
        assert_eq!(groups[1], (b, vec![Oid(1), Oid(2)]));
    }

    #[test]
    fn new_nodes_live_in_the_logs_until_compaction() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        let fresh = dg.add_node();
        assert_eq!(fresh.index(), dg.num_nodes() - 1);
        assert!(dg.add_edge(Oid(0), a, fresh));
        assert!(dg.add_edge(fresh, a, Oid(0)));
        assert_eq!(collect(dg.out(fresh, a)), vec![Oid(0)]);
        assert!(collect(dg.rev(fresh, a)).contains(&Oid(0)));
        dg.compact();
        assert_eq!(dg.base().num_nodes(), dg.num_nodes());
        assert_eq!(collect(dg.out(fresh, a)), vec![Oid(0)]);
    }

    #[test]
    fn compact_preserves_the_view_and_keeps_the_lineage() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        let before = dg.epoch();
        dg.delete_edge(Oid(0), a, Oid(1));
        dg.add_edge(Oid(1), a, Oid(2));
        assert_eq!(dg.epoch().base, before.base);
        assert!(dg.epoch().version > before.version);
        assert!(dg.log_len() > 0);

        let edges_before: Vec<_> = dg.edges().collect();
        let folded_at = dg.epoch();
        dg.compact();
        assert_eq!(dg.log_len(), 0);
        assert_eq!(dg.epoch().base, before.base, "a fold keeps the lineage");
        assert_eq!(dg.epoch().version, folded_at.version + 1, "one step");
        let edges_after: Vec<_> = dg.edges().collect();
        assert_eq!(edges_before, edges_after);
        assert_eq!(dg.num_edges(), dg.base().num_edges());
    }

    #[test]
    fn compact_with_nothing_to_fold_is_a_no_op() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        let pinned = dg.clone();
        dg.compact();
        assert!(dg.shares_base_with(&pinned), "no copy of the base");
        assert_eq!(dg.epoch(), pinned.epoch(), "no epoch step");

        // a log that cancelled itself out is nothing to fold either
        assert!(dg.add_edge(Oid(1), a, Oid(2)));
        assert!(dg.delete_edge(Oid(1), a, Oid(2)));
        let epoch = dg.epoch();
        dg.compact();
        assert!(dg.shares_base_with(&pinned));
        assert_eq!(dg.epoch(), epoch);

        // a new node with no edge is: the base must grow a row for it
        let fresh = dg.add_node();
        dg.compact();
        assert!(!dg.shares_base_with(&pinned));
        assert_eq!(dg.base().num_nodes(), fresh.index() + 1);
    }

    #[test]
    fn mutations_naming_no_node_are_misses() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        let n = dg.num_nodes() as u32;
        let before: Vec<_> = dg.edges().collect();
        for (f, t) in [(Oid(n), Oid(0)), (Oid(0), Oid(n)), (Oid(u32::MAX), Oid(0))] {
            assert!(!dg.add_edge(f, a, t), "{f:?} -> {t:?}");
            assert!(!dg.delete_edge(f, a, t), "{f:?} -> {t:?}");
        }
        assert_eq!(dg.log_len(), 0);
        assert_eq!(dg.edges().collect::<Vec<_>>(), before);
    }

    #[test]
    fn apply_delta_is_one_epoch_step() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        let mut delta = EdgeDelta::new();
        delta.add(Oid(1), a, Oid(2)).del(Oid(0), a, Oid(1));
        let v0 = dg.epoch().version;
        let applied = dg.apply_delta(&delta);
        assert_eq!(applied, 2);
        assert_eq!(dg.epoch().version, v0 + 1);
        // inverse restores the original edge set
        dg.apply_delta(&delta.inverse());
        let csr = CsrGraph::from(&inst);
        assert_eq!(dg.num_edges(), csr.num_edges());
        for v in csr.nodes() {
            for sym in ab.symbols() {
                assert_eq!(collect(dg.out(v, sym)), csr.out(v, sym), "{v:?} {sym:?}");
            }
        }
    }

    #[test]
    fn compaction_is_copy_on_write_for_pinned_clones() {
        let (ab, inst) = sample();
        let mut writer = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        writer.delete_edge(Oid(0), a, Oid(1));
        let pinned = writer.clone(); // a reader's snapshot, O(log) to take
        assert!(pinned.shares_base_with(&writer));
        let pinned_epoch = pinned.epoch();
        let pinned_edges: Vec<_> = pinned.edges().collect();

        writer.add_edge(Oid(1), a, Oid(2));
        writer.compact();
        assert!(
            !pinned.shares_base_with(&writer),
            "compact installs a fresh base arc"
        );
        // the pinned snapshot is byte-for-byte undisturbed
        assert_eq!(pinned.epoch(), pinned_epoch);
        assert_eq!(pinned.edges().collect::<Vec<_>>(), pinned_edges);
        assert!(!pinned.has_edge(Oid(1), a, Oid(2)));
    }

    #[test]
    fn compaction_policy_triggers_on_ratio_and_row_fraction() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        let ratio_only = CompactionPolicy {
            max_log_ratio: 0.4,
            min_log_len: 2,
            max_overlay_row_fraction: f64::INFINITY,
        };
        assert!(!dg.should_compact(&ratio_only), "clean overlay never folds");
        dg.delete_edge(Oid(0), a, Oid(1));
        assert!(
            !dg.should_compact(&ratio_only),
            "below the anti-thrash floor"
        );
        dg.add_edge(Oid(1), a, Oid(0));
        dg.add_edge(Oid(2), a, Oid(1));
        // log_len = 3 > 0.4 * 6 base edges, and >= min_log_len
        assert!(dg.should_compact(&ratio_only));
        assert!(!dg.should_compact(&CompactionPolicy::NEVER));

        let rows_only = CompactionPolicy {
            max_log_ratio: f64::INFINITY,
            min_log_len: 2,
            max_overlay_row_fraction: 0.5,
        };
        // 3 mutations touch > 0.5 * 3 nodes worth of (node, label) rows
        assert!(dg.overlay_rows() > 1);
        assert!(dg.should_compact(&rows_only));

        assert_eq!(dg.maybe_compact(&ratio_only), Some(2), "one block each way");
        assert_eq!(dg.log_len(), 0);
        assert_eq!(dg.maybe_compact(&ratio_only), None, "nothing left to fold");
    }

    #[test]
    fn stats_track_mutations_incrementally() {
        let (ab, inst) = sample();
        let mut dg = DeltaGraph::from_instance(&inst);
        let a = ab.get("a").unwrap();
        assert_eq!(dg.stats().edge_count(a), 3);
        assert_eq!(dg.stats().source_count(a), 2); // s, y
        dg.delete_edge(Oid(0), a, Oid(1)); // s -a-> x; s still has s -a-> y
        assert_eq!(dg.stats().edge_count(a), 2);
        assert_eq!(dg.stats().source_count(a), 2);
        dg.delete_edge(Oid(0), a, Oid(2)); // s loses its last a-edge
        assert_eq!(dg.stats().source_count(a), 1);
        dg.add_edge(Oid(1), a, Oid(0)); // x gains its first a-edge
        assert_eq!(dg.stats().edge_count(a), 2);
        assert_eq!(dg.stats().source_count(a), 2);
        dg.compact(); // debug build: asserts agreement with the recount
        assert_eq!(dg.stats().edge_count(a), 2);
    }
}
