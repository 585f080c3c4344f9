//! Label-indexed compressed-sparse-row snapshots of an [`Instance`].
//!
//! Every evaluation strategy of Section 2 steps a `(state, node)` pair by a
//! *specific* label: "which edges labeled `l` leave `v`?". Adjacency-list
//! storage answers that by scanning the whole out-edge list and filtering,
//! paying `outdegree(v)` per automaton transition. [`CsrGraph`] is the
//! immutable query-time form that makes the step proportional to *matching*
//! edges only: [`Instance`] stays the mutable builder, `CsrGraph::from`
//! freezes it for evaluation.
//!
//! # Layout
//!
//! We use **per-node rows sorted by `(Symbol, Oid)`** over one contiguous
//! CSR arena (`offsets` / `labels` / `targets`), with label lookup by binary
//! search within the row, rather than a per-label CSR (one full offset array
//! per label). Rationale:
//!
//! * all engines also iterate *whole* rows (ε-free NFAs with several
//!   transitions per state, the distributed protocol's per-edge quotients) —
//!   a per-label CSR would scatter one node's edges across `|Σ|` arenas and
//!   lose that locality;
//! * the label lookup is `O(log outdegree)` + a contiguous slice, which is
//!   within noise of a per-label CSR's `O(1)` for the "objects are small"
//!   regime the paper assumes (finite, small outdegree), while costing no
//!   `O(|Σ|·|V|)` offset memory on sparse label usage;
//! * rows sorted by `(Symbol, Oid)` give label *groups* for free
//!   ([`CsrGraph::out_groups`]), which the quotient engines and the
//!   distributed sites use to compute one transition per distinct label
//!   instead of one per edge.
//!
//! A **reverse** CSR (in-edges, same layout) supports backward traversal —
//! single-target evaluation, provenance walks, and the sink side of future
//! bidirectional searches. Per-label degree/frequency statistics
//! ([`LabelStats`]) are collected during the build and feed the optimizer's
//! cost model.

use rpq_automata::Symbol;
use serde::{Deserialize, Serialize};

use crate::instance::{Instance, Oid};
use crate::source::{GraphSource, NodeId};

/// Per-label frequency statistics.
///
/// `edge_count(l)` is the number of `Ref(_, l, _)` tuples; `source_count(l)`
/// the number of distinct objects with at least one outgoing `l`-edge. Their
/// ratio is the average `l`-fanout of nodes that have the label at all — the
/// selectivity number the optimizer's data-aware cost model consumes.
///
/// Statistics are maintained **incrementally**: [`Instance`] and
/// [`crate::DeltaGraph`] update them on every `add_edge`/delete, and
/// [`CsrGraph::from`] copies them from the instance rather than recounting
/// (debug builds assert the incremental counters against a recount).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelStats {
    edge_counts: Vec<usize>,
    source_counts: Vec<usize>,
}

impl LabelStats {
    /// Number of label slots tracked (max label index + 1 over all edges).
    pub fn num_labels(&self) -> usize {
        self.edge_counts.len()
    }

    /// Number of edges carrying `label` (0 for labels never seen).
    pub fn edge_count(&self, label: Symbol) -> usize {
        self.edge_counts.get(label.index()).copied().unwrap_or(0)
    }

    /// Number of distinct source nodes with at least one `label`-edge.
    pub fn source_count(&self, label: Symbol) -> usize {
        self.source_counts.get(label.index()).copied().unwrap_or(0)
    }

    /// Average outgoing fanout of `label` among nodes that have it (0.0 for
    /// labels never seen).
    pub fn avg_fanout(&self, label: Symbol) -> f64 {
        let sources = self.source_count(label);
        if sources == 0 {
            0.0
        } else {
            self.edge_count(label) as f64 / sources as f64
        }
    }

    /// The most frequent label, if any edge exists.
    pub fn hottest(&self) -> Option<Symbol> {
        self.edge_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .filter(|&(_, c)| *c > 0)
            .map(|(i, _)| Symbol::from_index(i))
    }

    /// Iterate `(label, edge_count)` for labels with at least one edge.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.edge_counts
            .iter()
            .enumerate()
            .filter(|&(_, c)| *c > 0)
            .map(|(i, &c)| (Symbol::from_index(i), c))
    }

    /// Record one new `label` edge; `new_source` says its source had no
    /// `label` edge before. The incremental counterpart of the build-time
    /// count, used by `Instance::add_edge` and `DeltaGraph::add_edge`.
    pub(crate) fn note_added(&mut self, label: Symbol, new_source: bool) {
        if self.edge_counts.len() <= label.index() {
            self.edge_counts.resize(label.index() + 1, 0);
            self.source_counts.resize(label.index() + 1, 0);
        }
        self.edge_counts[label.index()] += 1;
        if new_source {
            self.source_counts[label.index()] += 1;
        }
    }

    /// Record one removed `label` edge; `last_of_source` says its source
    /// has no `label` edge left. Saturates on slots the counters never
    /// saw (possible only on instances rehydrated from pre-stats
    /// encodings without `normalize()` — the debug-build recount assert
    /// in `CsrGraph::from` still flags genuine maintenance bugs).
    pub(crate) fn note_removed(&mut self, label: Symbol, last_of_source: bool) {
        if let Some(c) = self.edge_counts.get_mut(label.index()) {
            *c = c.saturating_sub(1);
        }
        if last_of_source {
            if let Some(c) = self.source_counts.get_mut(label.index()) {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Recount statistics from adjacency rows — the from-scratch reference
    /// the incremental counters are checked against in debug builds, and
    /// the fallback for rehydrated instances. Rows are normally sorted by
    /// `(Symbol, Oid)`; unsorted rows (older encodings) are sorted into a
    /// scratch copy first so distinct-source detection stays correct.
    pub(crate) fn recount<'a>(rows: impl Iterator<Item = &'a [(Symbol, Oid)]>) -> LabelStats {
        let mut stats = LabelStats::default();
        let mut scratch: Vec<(Symbol, Oid)> = Vec::new();
        for row in rows {
            let row: &[(Symbol, Oid)] = if row.is_sorted() {
                row
            } else {
                scratch.clear();
                scratch.extend_from_slice(row);
                scratch.sort_unstable();
                &scratch
            };
            let mut prev = None;
            for &(l, _) in row {
                stats.note_added(l, prev != Some(l));
                prev = Some(l);
            }
        }
        stats
    }

    /// Total edges accounted for across all labels — `CsrGraph::from`
    /// uses this as the cheap staleness probe for rehydrated instances.
    pub(crate) fn total_edges(&self) -> usize {
        self.edge_counts.iter().sum()
    }

    /// Semantic equality: the same per-label counts, ignoring trailing
    /// zero slots (incremental maintenance keeps a slot for every label
    /// ever seen; a recount only allocates slots for labels present now).
    pub fn agrees_with(&self, other: &LabelStats) -> bool {
        let slots = self.num_labels().max(other.num_labels());
        (0..slots).map(Symbol::from_index).all(|l| {
            self.edge_count(l) == other.edge_count(l)
                && self.source_count(l) == other.source_count(l)
        })
    }
}

/// Longest label run [`CsrGraph::out`] / [`CsrGraph::rev`] bound by
/// scanning; a longer run's end is found by a search over the rest of the
/// row.
const SHORT_RUN: usize = 8;

/// An immutable, label-indexed snapshot of a finite graph: forward and
/// reverse CSR adjacency with per-node rows sorted by `(Symbol, Oid)`, plus
/// per-label statistics. See the module docs for the layout rationale.
///
/// Build one with [`CsrGraph::from`]; evaluate against it through the
/// `rpq_core::Engine` trait or the `*_csr` entry points.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `out_offsets[v]..out_offsets[v+1]` indexes v's row in the arenas.
    out_offsets: Vec<usize>,
    out_labels: Vec<Symbol>,
    out_targets: Vec<Oid>,
    /// Reverse adjacency: `in_sources` holds the *sources* of edges into v.
    in_offsets: Vec<usize>,
    in_labels: Vec<Symbol>,
    in_sources: Vec<Oid>,
    stats: LabelStats,
}

impl CsrGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len().saturating_sub(1)
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = Oid> + '_ {
        (0..self.num_nodes() as u32).map(Oid)
    }

    /// Outdegree of `v`.
    pub fn outdegree(&self, v: Oid) -> usize {
        self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]
    }

    /// Indegree of `v`.
    pub fn indegree(&self, v: Oid) -> usize {
        self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]
    }

    /// Per-label statistics collected at build time.
    pub fn stats(&self) -> &LabelStats {
        &self.stats
    }

    /// The targets of `v`'s edges labeled `label` — a contiguous slice, so
    /// the per-(state, node) step costs only the matching edges.
    pub fn out(&self, v: Oid, label: Symbol) -> &[Oid] {
        Self::labeled_range(
            &self.out_labels,
            &self.out_targets,
            &self.out_offsets,
            v,
            label,
        )
    }

    /// The *sources* of edges labeled `label` arriving at `v` (the reverse
    /// adjacency — the transpose of [`CsrGraph::out`]).
    pub fn rev(&self, v: Oid, label: Symbol) -> &[Oid] {
        Self::labeled_range(
            &self.in_labels,
            &self.in_sources,
            &self.in_offsets,
            v,
            label,
        )
    }

    fn labeled_range<'a>(
        labels: &[Symbol],
        endpoints: &'a [Oid],
        offsets: &[usize],
        v: Oid,
        label: Symbol,
    ) -> &'a [Oid] {
        let (start, end) = (offsets[v.index()], offsets[v.index() + 1]);
        let row = &labels[start..end];
        // Rows are sorted by `(label, endpoint)`: one search finds where the
        // run starts, and the run is bounded from there. A short row (the
        // common case: "objects are small") is searched by scanning, whose
        // branches predict where a binary search's do not. In a long row
        // the start is found by binary search and the run bounded by
        // scanning while it is short, by a search over the rest of the row
        // once it is not (a hub's run must stay logarithmic).
        let lo = if row.len() <= SHORT_RUN {
            row.iter().take_while(|&&l| l < label).count()
        } else {
            row.partition_point(|&l| l < label)
        };
        let rest = &row[lo..];
        let scanned = rest
            .iter()
            .take(SHORT_RUN)
            .take_while(|&&l| l == label)
            .count();
        let run = if scanned < SHORT_RUN {
            scanned
        } else {
            SHORT_RUN + rest[SHORT_RUN..].partition_point(|&l| l == label)
        };
        &endpoints[start + lo..start + lo + run]
    }

    /// All out-edges of `v` as `(label, target)` pairs, sorted by
    /// `(Symbol, Oid)`.
    pub fn out_pairs(&self, v: Oid) -> impl Iterator<Item = (Symbol, Oid)> + '_ {
        let (start, end) = (self.out_offsets[v.index()], self.out_offsets[v.index() + 1]);
        self.out_labels[start..end]
            .iter()
            .zip(&self.out_targets[start..end])
            .map(|(&l, &t)| (l, t))
    }

    /// All in-edges of `v` as `(label, source)` pairs, sorted by
    /// `(Symbol, Oid)`.
    pub fn rev_pairs(&self, v: Oid) -> impl Iterator<Item = (Symbol, Oid)> + '_ {
        let (start, end) = (self.in_offsets[v.index()], self.in_offsets[v.index() + 1]);
        self.in_labels[start..end]
            .iter()
            .zip(&self.in_sources[start..end])
            .map(|(&l, &t)| (l, t))
    }

    /// `v`'s out-row grouped by label: yields `(label, targets)` once per
    /// distinct label. Lets callers pay label-dependent work (a quotient, a
    /// derivative, a memo lookup) once per *label* instead of once per edge.
    pub fn out_groups(&self, v: Oid) -> LabelGroups<'_> {
        let (start, end) = (self.out_offsets[v.index()], self.out_offsets[v.index() + 1]);
        LabelGroups {
            labels: &self.out_labels[start..end],
            endpoints: &self.out_targets[start..end],
        }
    }

    /// `v`'s *in*-row grouped by label: yields `(label, sources)` once per
    /// distinct label — the transpose of [`CsrGraph::out_groups`], used by
    /// the dense *pull* step of the hybrid product BFS to probe all labels
    /// arriving at a candidate node in one sorted walk.
    pub fn rev_groups(&self, v: Oid) -> LabelGroups<'_> {
        let (start, end) = (self.in_offsets[v.index()], self.in_offsets[v.index() + 1]);
        LabelGroups {
            labels: &self.in_labels[start..end],
            endpoints: &self.in_sources[start..end],
        }
    }

    /// Iterate over all edges as `(source, label, target)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (Oid, Symbol, Oid)> + '_ {
        self.nodes()
            .flat_map(move |v| self.out_pairs(v).map(move |(l, t)| (v, l, t)))
    }

    /// Follow `word` from `source`, collecting every endpoint (set
    /// semantics) — `w(o, I)` over the label index, with a seen-bitmap
    /// instead of the builder's linear dedup.
    pub fn word_targets(&self, source: Oid, word: &[Symbol]) -> Vec<Oid> {
        let mut cur = vec![source];
        let mut seen = vec![false; self.num_nodes()];
        for &sym in word {
            let mut next: Vec<Oid> = Vec::new();
            for &x in &cur {
                for &t in self.out(x, sym) {
                    if !seen[t.index()] {
                        seen[t.index()] = true;
                        next.push(t);
                    }
                }
            }
            if next.is_empty() {
                return Vec::new();
            }
            for &t in &next {
                seen[t.index()] = false;
            }
            cur = next;
        }
        cur.sort_unstable();
        cur
    }
}

/// One overlay-log entry handed to [`CsrGraph::fold`]: `(row, label,
/// endpoint, add)` — the row `row` of one orientation gains (`add`) or
/// loses (tombstone, `!add`) the entry `(label, endpoint)`. A log is sorted
/// by `(row, label, endpoint)`, the order of the arena itself.
pub(crate) type RowPatch = (Oid, Symbol, Oid, bool);

impl CsrGraph {
    /// `self` with an overlay folded in, as `num_nodes` rows holding
    /// `num_edges` edges: `out_log` patches the out-arena, `in_log` (the
    /// same edges keyed by target) the in-arena, so the reverse CSR is
    /// merged like the forward one and never re-derived by transposition.
    /// Equals `CsrGraph::from` over the resulting edge set, array for
    /// array. `stats` are the caller's statistics for that edge set and
    /// are stored as given.
    ///
    /// Panics when a log is not strictly ascending, names a row
    /// `>= num_nodes`, adds an entry the base row holds, or tombstones one
    /// it does not — each would store a snapshot that is not the graph.
    pub(crate) fn fold(
        &self,
        num_nodes: usize,
        num_edges: usize,
        out_log: &[RowPatch],
        in_log: &[RowPatch],
        stats: LabelStats,
    ) -> CsrGraph {
        let (out_offsets, out_labels, out_targets) = fold_arena(
            (&self.out_offsets, &self.out_labels, &self.out_targets),
            num_nodes,
            num_edges,
            out_log,
        );
        let (in_offsets, in_labels, in_sources) = fold_arena(
            (&self.in_offsets, &self.in_labels, &self.in_sources),
            num_nodes,
            num_edges,
            in_log,
        );
        CsrGraph {
            out_offsets,
            out_labels,
            out_targets,
            in_offsets,
            in_labels,
            in_sources,
            stats,
        }
    }

    /// Statistics recounted from the out-arena — the from-scratch
    /// reference [`crate::DeltaGraph::compact`] checks its incrementally
    /// maintained counters against in debug builds.
    pub(crate) fn recount_stats(&self) -> LabelStats {
        let mut stats = LabelStats::default();
        for row in self.out_offsets.windows(2) {
            let labels = &self.out_labels[row[0]..row[1]];
            for (i, &l) in labels.iter().enumerate() {
                stats.note_added(l, i == 0 || labels[i - 1] != l);
            }
        }
        stats
    }
}

/// One orientation of [`CsrGraph::fold`]: the `(offsets, labels,
/// endpoints)` arena `base` with `log` merged in, each array allocated
/// once at its final size and written front to back. Everything between
/// two patches — the rest of a touched row, any number of untouched rows —
/// is one `extend` per array.
fn fold_arena(
    base: (&[usize], &[Symbol], &[Oid]),
    num_nodes: usize,
    num_edges: usize,
    log: &[RowPatch],
) -> (Vec<usize>, Vec<Symbol>, Vec<Oid>) {
    let (base_offsets, base_labels, base_endpoints) = base;
    assert!(
        log.windows(2)
            .all(|w| (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2)),
        "overlay log must be strictly ascending by (row, label, endpoint)"
    );
    assert!(
        log.last().is_none_or(|p| p.0.index() < num_nodes) && base_offsets.len() <= num_nodes + 1,
        "a fold drops no row and patches none past the last"
    );

    // A row starts where it did, shifted by the adds minus the tombstones
    // of the rows before it: one constant per span of untouched rows. Rows
    // past the old base start where the base ends.
    let mut offsets = Vec::with_capacity(num_nodes + 1);
    let mut extend_offsets = |len: usize, shift: isize| {
        let known = base_offsets.len();
        let span = &base_offsets[offsets.len().min(known)..len.min(known)];
        offsets.extend(span.iter().map(|&o| o.wrapping_add_signed(shift)));
        offsets.resize(len, base_labels.len().wrapping_add_signed(shift));
    };
    let mut shift = 0;
    for row in log.chunk_by(|p, q| p.0 == q.0) {
        extend_offsets(row[0].0.index() + 1, shift);
        shift += row.iter().map(|p| if p.3 { 1 } else { -1 }).sum::<isize>();
    }
    extend_offsets(num_nodes + 1, shift);

    let mut labels = Vec::with_capacity(num_edges);
    let mut endpoints = Vec::with_capacity(num_edges);
    let mut next = 0; // the first base entry not yet merged
    for &(row, label, endpoint, add) in log {
        // the patch's place: inside its own row, past what is merged
        let (start, end) = match base_offsets.get(row.index()..row.index() + 2) {
            Some(bounds) => (bounds[0], bounds[1]),
            None => (base_labels.len(), base_labels.len()),
        };
        let mut at = next.max(start);
        while at < end && (base_labels[at], base_endpoints[at]) < (label, endpoint) {
            at += 1;
        }
        labels.extend_from_slice(&base_labels[next..at]);
        endpoints.extend_from_slice(&base_endpoints[next..at]);
        next = at;
        let in_base = at < end && (base_labels[at], base_endpoints[at]) == (label, endpoint);
        if add {
            assert!(!in_base, "add log must be disjoint from the base");
            labels.push(label);
            endpoints.push(endpoint);
        } else {
            assert!(in_base, "tombstone must name a base edge");
            next += 1;
        }
    }
    labels.extend_from_slice(&base_labels[next..]);
    endpoints.extend_from_slice(&base_endpoints[next..]);
    assert!(
        labels.len() == num_edges && offsets[num_nodes] == num_edges,
        "folded arena must hold every edge"
    );
    (offsets, labels, endpoints)
}

/// Iterator over `(label, targets)` groups of one row — see
/// [`CsrGraph::out_groups`].
pub struct LabelGroups<'a> {
    labels: &'a [Symbol],
    endpoints: &'a [Oid],
}

impl<'a> Iterator for LabelGroups<'a> {
    type Item = (Symbol, &'a [Oid]);

    fn next(&mut self) -> Option<Self::Item> {
        let &label = self.labels.first()?;
        let len = self.labels.partition_point(|&l| l <= label);
        let (group, rest) = self.endpoints.split_at(len);
        self.labels = &self.labels[len..];
        self.endpoints = rest;
        Some((label, group))
    }
}

impl From<&Instance> for CsrGraph {
    fn from(instance: &Instance) -> CsrGraph {
        let n = instance.num_nodes();
        let m = instance.num_edges();
        // Statistics are maintained incrementally by the instance's
        // mutation methods — snapshotting no longer recounts them. The
        // same defensive posture as the row re-sort below applies to
        // instances rehydrated from encodings that predate the stats
        // field (derived `Deserialize` performs no validation): when the
        // incremental totals don't even cover the edge count, fall back
        // to a recount instead of freezing stale statistics. On
        // maintained instances the recount stays as a debug-build
        // equivalence check.
        let stats = if instance.stats().total_edges() == m {
            let stats = instance.stats().clone();
            debug_assert!(
                stats.agrees_with(&LabelStats::recount(
                    instance.nodes().map(|v| instance.out_edges(v))
                )),
                "incremental LabelStats diverged from recount"
            );
            stats
        } else {
            LabelStats::recount(instance.nodes().map(|v| instance.out_edges(v)))
        };

        // Forward: Instance rows are maintained sorted by (Symbol, Oid);
        // re-sort defensively (e.g. instances deserialized from older
        // encodings), which is O(1) on already-sorted rows.
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_labels = Vec::with_capacity(m);
        let mut out_targets = Vec::with_capacity(m);
        let mut scratch: Vec<(Symbol, Oid)> = Vec::new();
        out_offsets.push(0);
        for v in instance.nodes() {
            let row = instance.out_edges(v);
            let row: &[(Symbol, Oid)] = if row.is_sorted() {
                row
            } else {
                scratch.clear();
                scratch.extend_from_slice(row);
                scratch.sort_unstable();
                &scratch
            };
            for &(l, t) in row {
                out_labels.push(l);
                out_targets.push(t);
            }
            out_offsets.push(out_labels.len());
        }

        // Reverse: counting-sort the transposed edges straight into the
        // arenas (no per-node buckets), then sort each row in place by
        // (Symbol, Oid) through one reused scratch buffer.
        let mut in_offsets = vec![0usize; n + 1];
        for &t in &out_targets {
            in_offsets[t.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_labels = vec![Symbol::from_index(0); m];
        let mut in_sources = vec![Oid(0); m];
        let mut cursor = in_offsets.clone();
        for v in instance.nodes() {
            let (start, end) = (out_offsets[v.index()], out_offsets[v.index() + 1]);
            for i in start..end {
                let slot = cursor[out_targets[i].index()];
                cursor[out_targets[i].index()] += 1;
                in_labels[slot] = out_labels[i];
                in_sources[slot] = v;
            }
        }
        for v in 0..n {
            let (start, end) = (in_offsets[v], in_offsets[v + 1]);
            if end - start > 1 {
                scratch.clear();
                scratch.extend(
                    in_labels[start..end]
                        .iter()
                        .copied()
                        .zip(in_sources[start..end].iter().copied()),
                );
                scratch.sort_unstable();
                for (i, &(l, s)) in scratch.iter().enumerate() {
                    in_labels[start + i] = l;
                    in_sources[start + i] = s;
                }
            }
        }

        CsrGraph {
            out_offsets,
            out_labels,
            out_targets,
            in_offsets,
            in_labels,
            in_sources,
            stats,
        }
    }
}

/// A `CsrGraph` is also a [`GraphSource`], so lazy/streaming evaluators run
/// over it unchanged.
impl GraphSource for CsrGraph {
    fn out_edges(&self, node: NodeId) -> Vec<(Symbol, NodeId)> {
        self.out_pairs(Oid(node as u32))
            .map(|(l, t)| (l, t.0 as NodeId))
            .collect()
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

    #[test]
    fn counts_round_trip() {
        let (_, inst) = sample();
        let csr = CsrGraph::from(&inst);
        assert_eq!(csr.num_nodes(), inst.num_nodes());
        assert_eq!(csr.num_edges(), inst.num_edges());
        assert_eq!(csr.edges().count(), inst.num_edges());
    }

    #[test]
    fn out_slices_match_filtered_scan() {
        let (ab, inst) = sample();
        let csr = CsrGraph::from(&inst);
        for v in inst.nodes() {
            for sym in ab.symbols() {
                let mut scanned: Vec<Oid> = inst
                    .out_edges(v)
                    .iter()
                    .filter(|&&(l, _)| l == sym)
                    .map(|&(_, t)| t)
                    .collect();
                scanned.sort_unstable();
                assert_eq!(csr.out(v, sym), &scanned[..], "{v:?} {sym:?}");
            }
        }
    }

    /// The one-search row lookup at its corners: an empty row, a row of one
    /// label, hits on the first and the last label of a row, runs on both
    /// sides of `SHORT_RUN`, and a hub whose run is bounded by search.
    #[test]
    fn row_lookup_bounds_every_run_from_its_start() {
        // Interned in row order; no edge carries `c`.
        let mut ab = Alphabet::from_names(["a", "b", "c", "d"]);
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("one", "b", "x");
        for i in 0..SHORT_RUN - 1 {
            b.edge("mix", "a", &format!("a{i}"));
        }
        for i in 0..SHORT_RUN {
            b.edge("mix", "b", &format!("b{i}"));
        }
        for i in 0..SHORT_RUN + 1 {
            b.edge("mix", "d", &format!("d{i}"));
        }
        for i in 0..50_000 {
            b.edge("hub", "b", &format!("h{i}"));
        }
        b.edge("hub", "a", "x");
        b.edge("hub", "d", "x");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let sym = |n: &str| ab.get(n).unwrap();
        let absent = sym("c");
        let len = |node: &str, label: Symbol| csr.out(names[node], label).len();

        // `x` has no out-edge at all; `one` has one label.
        for l in [sym("a"), sym("b"), sym("d"), absent] {
            assert!(csr.out(names["x"], l).is_empty());
        }
        assert_eq!(csr.out(names["one"], sym("b")), &[names["x"]]);
        assert_eq!(len("one", sym("a")), 0, "before the only label");
        assert_eq!(len("one", sym("d")), 0, "after the only label");
        // First label, a middle one, the last, and one between two runs.
        assert_eq!(len("mix", sym("a")), SHORT_RUN - 1);
        assert_eq!(len("mix", sym("b")), SHORT_RUN);
        assert_eq!(len("mix", sym("d")), SHORT_RUN + 1);
        assert_eq!(len("mix", absent), 0);
        assert_eq!(len("hub", sym("a")), 1);
        assert_eq!(len("hub", sym("b")), 50_000);
        assert_eq!(len("hub", sym("d")), 1);
        // Every run is the filtered scan of its row, in both orientations.
        for v in csr.nodes() {
            for l in [sym("a"), sym("b"), sym("d"), absent] {
                let scan = |pairs: Vec<(Symbol, Oid)>| -> Vec<Oid> {
                    pairs
                        .into_iter()
                        .filter(|&(pl, _)| pl == l)
                        .map(|(_, t)| t)
                        .collect()
                };
                assert_eq!(csr.out(v, l), &scan(csr.out_pairs(v).collect())[..]);
                assert_eq!(csr.rev(v, l), &scan(csr.rev_pairs(v).collect())[..]);
            }
        }
    }

    #[test]
    fn reverse_is_transpose() {
        let (ab, inst) = sample();
        let csr = CsrGraph::from(&inst);
        for u in csr.nodes() {
            for sym in ab.symbols() {
                for &v in csr.out(u, sym) {
                    assert!(csr.rev(v, sym).contains(&u), "{u:?}-{sym:?}->{v:?}");
                }
            }
        }
        let forward: usize = csr.nodes().map(|v| csr.outdegree(v)).sum();
        let backward: usize = csr.nodes().map(|v| csr.indegree(v)).sum();
        assert_eq!(forward, backward);
    }

    #[test]
    fn stats_count_labels() {
        let (ab, inst) = sample();
        let csr = CsrGraph::from(&inst);
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        assert_eq!(csr.stats().edge_count(a), 3);
        assert_eq!(csr.stats().edge_count(b), 3);
        assert_eq!(csr.stats().source_count(a), 2); // s, y
        assert_eq!(csr.stats().source_count(b), 3); // s, x, y
        assert!(csr.stats().avg_fanout(a) > csr.stats().avg_fanout(b));
        let total: usize = csr.stats().iter().map(|(_, c)| c).sum();
        assert_eq!(total, csr.num_edges());
    }

    #[test]
    fn groups_partition_the_row() {
        let (ab, inst) = sample();
        let csr = CsrGraph::from(&inst);
        let s = inst.node_by_name("s").unwrap();
        let groups: Vec<(Symbol, Vec<Oid>)> =
            csr.out_groups(s).map(|(l, ts)| (l, ts.to_vec())).collect();
        assert_eq!(groups.len(), 2);
        let a = ab.get("a").unwrap();
        assert_eq!(groups[0].0, a);
        assert_eq!(groups[0].1.len(), 2);
        let regrouped: usize = groups.iter().map(|(_, ts)| ts.len()).sum();
        assert_eq!(regrouped, csr.outdegree(s));
    }

    #[test]
    fn word_targets_match_instance() {
        let (ab, inst) = sample();
        let csr = CsrGraph::from(&inst);
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let s = inst.node_by_name("s").unwrap();
        for word in [vec![], vec![a], vec![a, b], vec![b, b, b], vec![a, a]] {
            assert_eq!(csr.word_targets(s, &word), inst.word_targets(s, &word));
        }
    }

    #[test]
    fn stale_rehydrated_stats_fall_back_to_a_recount() {
        // an instance "rehydrated" from a pre-stats encoding: rows
        // populated, incremental counters empty — snapshotting must
        // recount instead of freezing (or asserting on) the stale zeros,
        // and mutations must not panic on the missing counter slots
        let (ab, mut inst) = sample();
        inst.clear_stats_for_test();
        let a = ab.get("a").unwrap();
        let s = inst.node_by_name("s").unwrap();
        let x = inst.node_by_name("x").unwrap();
        assert!(inst.remove_edge(s, a, x), "stale stats must not panic");
        assert!(inst.add_edge(s, a, x));
        let csr = CsrGraph::from(&inst);
        assert_eq!(csr.stats().edge_count(a), 3);
        assert_eq!(csr.stats().source_count(a), 2);
    }

    type Edge = (Oid, Symbol, Oid);

    /// Fold `dels`/`adds` (and `extra_nodes` new rows) into `inst`'s
    /// snapshot, and check the result against the rebuild of the mirrored
    /// instance — every array of both orientations, and the statistics.
    fn fold_matches_rebuild(inst: &Instance, extra_nodes: usize, dels: &[Edge], adds: &[Edge]) {
        let mut mirror = inst.clone();
        for _ in 0..extra_nodes {
            mirror.add_node();
        }
        let (mut out_log, mut in_log): (Vec<RowPatch>, Vec<RowPatch>) = (Vec::new(), Vec::new());
        for (edges, add) in [(dels, false), (adds, true)] {
            for &(f, l, t) in edges {
                let took = if add {
                    mirror.add_edge(f, l, t)
                } else {
                    mirror.remove_edge(f, l, t)
                };
                assert!(took, "test delta must be effective: {f:?} {l:?} {t:?}");
                out_log.push((f, l, t, add));
                in_log.push((t, l, f, add));
            }
        }
        out_log.sort_unstable();
        in_log.sort_unstable();
        let folded = CsrGraph::from(inst).fold(
            mirror.num_nodes(),
            mirror.num_edges(),
            &out_log,
            &in_log,
            mirror.stats().clone(),
        );
        assert_eq!(folded, CsrGraph::from(&mirror));
        assert!(folded.stats().agrees_with(&folded.recount_stats()));
    }

    /// Five nodes; node 1's row is `[(a,0) (a,2) (b,1) (b,3)]`, node 2 has
    /// no out-edge, node 4 no edge at all.
    fn rows() -> (Symbol, Symbol, Symbol, Instance) {
        let mut ab = Alphabet::new();
        let (a, b, c) = (ab.intern("a"), ab.intern("b"), ab.intern("c"));
        let mut inst = Instance::new();
        for _ in 0..5 {
            inst.add_node();
        }
        for (f, l, t) in [
            (0, a, 1),
            (1, a, 0),
            (1, a, 2),
            (1, b, 1),
            (1, b, 3),
            (3, b, 0),
        ] {
            inst.add_edge(Oid(f), l, Oid(t));
        }
        (a, b, c, inst)
    }

    #[test]
    fn fold_drops_tombstones_anywhere_in_a_row() {
        let (a, b, _, inst) = rows();
        let row: [Edge; 4] = [
            (Oid(1), a, Oid(0)),
            (Oid(1), a, Oid(2)),
            (Oid(1), b, Oid(1)),
            (Oid(1), b, Oid(3)),
        ];
        for e in row {
            fold_matches_rebuild(&inst, 0, &[e], &[]); // start, middle, end
        }
        fold_matches_rebuild(&inst, 0, &[row[0], row[3]], &[]);
        // the whole row; then the first and the last non-empty row
        fold_matches_rebuild(&inst, 0, &row, &[]);
        fold_matches_rebuild(&inst, 0, &[(Oid(0), a, Oid(1)), (Oid(3), b, Oid(0))], &[]);
    }

    #[test]
    fn fold_inserts_adds_before_and_after_every_base_entry() {
        let (a, b, c, inst) = rows();
        // every gap of node 1's row but the one before its first entry
        let gaps: [Edge; 5] = [
            (Oid(1), a, Oid(1)), // between (a,0) and (a,2)
            (Oid(1), a, Oid(4)), // after the last a, before the first b
            (Oid(1), b, Oid(0)), // before the first b
            (Oid(1), b, Oid(2)), // between (b,1) and (b,3)
            (Oid(1), c, Oid(0)), // after the last entry, a label new to the base
        ];
        for e in gaps {
            fold_matches_rebuild(&inst, 0, &[], &[e]);
        }
        fold_matches_rebuild(&inst, 0, &[], &gaps);
        // before the first entry of a row: (a,0) precedes row 3's (b,0)
        fold_matches_rebuild(&inst, 0, &[], &[(Oid(3), a, Oid(0))]);
        // an add right where a tombstone fell, and adjacent touched rows
        fold_matches_rebuild(
            &inst,
            0,
            &[(Oid(1), a, Oid(2)), (Oid(0), a, Oid(1))],
            &[
                (Oid(1), a, Oid(3)),
                (Oid(0), a, Oid(0)),
                (Oid(2), b, Oid(2)),
            ],
        );
    }

    #[test]
    fn fold_fills_empty_rows_and_rows_past_the_old_base() {
        let (a, b, _, inst) = rows();
        // node 2 has no out-row, node 4 neither out- nor in-row
        fold_matches_rebuild(&inst, 0, &[], &[(Oid(2), a, Oid(4))]);
        fold_matches_rebuild(&inst, 0, &[], &[(Oid(4), b, Oid(4)), (Oid(4), a, Oid(0))]);
        // new nodes 5, 6, 7: 5 stays empty, 6 and 7 take edges both ways
        fold_matches_rebuild(&inst, 3, &[], &[]);
        fold_matches_rebuild(
            &inst,
            3,
            &[(Oid(1), b, Oid(3))],
            &[
                (Oid(6), a, Oid(1)),
                (Oid(1), a, Oid(7)),
                (Oid(7), b, Oid(6)),
            ],
        );
        // a base with no row at all
        fold_matches_rebuild(&Instance::new(), 2, &[], &[(Oid(1), a, Oid(0))]);
    }

    #[test]
    #[should_panic(expected = "add log must be disjoint from the base")]
    fn fold_refuses_an_add_the_base_already_holds() {
        let (a, _, _, inst) = rows();
        let csr = CsrGraph::from(&inst);
        let stats = csr.stats().clone();
        csr.fold(5, 7, &[(Oid(0), a, Oid(1), true)], &[], stats);
    }

    #[test]
    #[should_panic(expected = "tombstone must name a base edge")]
    fn fold_refuses_a_tombstone_for_no_base_edge() {
        let (a, _, _, inst) = rows();
        let csr = CsrGraph::from(&inst);
        let stats = csr.stats().clone();
        csr.fold(5, 5, &[(Oid(0), a, Oid(2), false)], &[], stats);
    }

    #[test]
    fn empty_graph_is_fine() {
        let inst = Instance::new();
        let csr = CsrGraph::from(&inst);
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.stats().num_labels(), 0);
        assert_eq!(csr.stats().hottest(), None);
    }
}
