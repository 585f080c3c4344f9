//! [`GraphView`] — the uniform read interface over graph snapshots.
//!
//! Every evaluation strategy in the workspace walks a snapshot through the
//! same four questions: how many nodes, which targets does label `l` reach
//! from `v` (forward and transposed), and what are `v`'s label groups.
//! [`crate::CsrGraph`] answers them over one immutable arena;
//! [`crate::DeltaGraph`] answers them over an immutable base *plus* a
//! mutation overlay (per-label sorted append logs of adds and tombstoned
//! deletes). `GraphView` abstracts over both so the hot evaluation paths in
//! `rpq-core` (product, pair, batch, quotient, streaming) are written once
//! and run over either form — the precondition for evaluating under write
//! traffic without rebuilding the CSR per batch.
//!
//! Two supporting types make the abstraction cheap:
//!
//! * [`ViewEdges`] — the edge-target iterator. For a CSR row it is a plain
//!   slice walk; for a delta overlay it is a three-way sorted merge (base
//!   minus tombstones, plus the add log) that still knows its exact length
//!   up front, so the engines' `edges_scanned` accounting is unchanged.
//! * [`Epoch`] — snapshot identity: a `base` lineage id (0 for standalone
//!   [`crate::CsrGraph`]s, a process-unique id drawn when a
//!   [`crate::DeltaGraph`] is created) and a `version` stepped by every
//!   mutation batch and every `compact()`. The optimizer's plan memo uses
//!   the lineage to reuse compiled plans across small-delta epochs; a
//!   compaction stays on the lineage, so it costs the memo nothing.
//!
//! [`EdgeDelta`] is the batched mutation format shared by
//! [`crate::DeltaGraph::apply_delta`] and the `rpq-distributed` runners'
//! site-level `apply_delta`.

use rpq_automata::Symbol;

use crate::csr::{CsrGraph, LabelStats};
use crate::delta::DeltaGroups;
use crate::instance::Oid;

/// Snapshot identity for plan caching: which logical history a view
/// belongs to, and how many steps into it the view is.
///
/// A standalone [`CsrGraph`] is [`Epoch::STATIC`] (`base == 0`): it has no
/// lineage, so plan reuse for it requires an exact statistics match. A
/// [`crate::DeltaGraph`] draws a process-unique nonzero `base` when it is
/// created and keeps it for life — clones share it, and so does the graph
/// after [`crate::DeltaGraph::compact`], which reorganises storage without
/// changing the history. `version` counts the steps: one per mutation call
/// or batch, one per compaction, so two snapshots of one lineage that
/// differ in content or in physical base never share an `Epoch`. (Which
/// base *arena* a snapshot reads is a separate question, answered by
/// [`crate::DeltaGraph::shares_base_with`].)
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Epoch {
    /// Lineage id: which `DeltaGraph` history (0 = no lineage).
    pub base: u64,
    /// Steps (mutation batches and compactions) since the lineage began.
    pub version: u64,
}

impl Epoch {
    /// The epoch of a standalone immutable snapshot.
    pub const STATIC: Epoch = Epoch {
        base: 0,
        version: 0,
    };
}

/// A batch of edge mutations, applied atomically as one epoch step by
/// [`crate::DeltaGraph::apply_delta`] and the distributed runners.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges to add, as `(source, label, target)` triples.
    pub adds: Vec<(Oid, Symbol, Oid)>,
    /// Edges to delete, as `(source, label, target)` triples.
    pub dels: Vec<(Oid, Symbol, Oid)>,
}

impl EdgeDelta {
    /// An empty delta.
    pub fn new() -> EdgeDelta {
        EdgeDelta::default()
    }

    /// Record an edge addition.
    pub fn add(&mut self, from: Oid, label: Symbol, to: Oid) -> &mut Self {
        self.adds.push((from, label, to));
        self
    }

    /// Record an edge deletion.
    pub fn del(&mut self, from: Oid, label: Symbol, to: Oid) -> &mut Self {
        self.dels.push((from, label, to));
        self
    }

    /// Total mutations in the batch.
    pub fn len(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.dels.is_empty()
    }

    /// The delta that undoes this one (adds become dels and vice versa) —
    /// useful for measuring apply/revert cycles without cloning the graph.
    pub fn inverse(&self) -> EdgeDelta {
        EdgeDelta {
            adds: self.dels.clone(),
            dels: self.adds.clone(),
        }
    }
}

/// The targets of one `(node, label)` step of a [`GraphView`] — either a
/// contiguous CSR slice or a sorted overlay merge. Always yields targets in
/// ascending [`Oid`] order and knows its exact length up front (so callers
/// can account `edges_scanned` before iterating, exactly as with slices).
#[derive(Clone, Debug)]
pub enum ViewEdges<'a> {
    /// A contiguous CSR row segment.
    Slice(&'a [Oid]),
    /// A base-minus-tombstones-plus-adds sorted merge.
    Overlay(OverlayEdges<'a>),
}

impl<'a> ViewEdges<'a> {
    /// Exact number of edges this step will deliver.
    pub fn len(&self) -> usize {
        match self {
            ViewEdges::Slice(s) => s.len(),
            ViewEdges::Overlay(o) => o.len,
        }
    }

    /// Does this step deliver no edges?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for ViewEdges<'_> {
    type Item = Oid;

    fn next(&mut self) -> Option<Oid> {
        match self {
            ViewEdges::Slice(s) => {
                let (&first, rest) = s.split_first()?;
                *s = rest;
                Some(first)
            }
            ViewEdges::Overlay(o) => o.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }

    /// Internal iteration (`for_each`, `sum`, …) picks the arm once: a CSR
    /// row is then walked as the slice it is, not through a `match` per
    /// element.
    fn fold<B, F: FnMut(B, Oid) -> B>(self, init: B, f: F) -> B {
        match self {
            ViewEdges::Slice(s) => s.iter().copied().fold(init, f),
            ViewEdges::Overlay(o) => o.fold(init, f),
        }
    }
}

impl ExactSizeIterator for ViewEdges<'_> {}

/// Sorted three-way merge behind [`ViewEdges::Overlay`]: the base CSR
/// segment with its tombstoned entries skipped, merged with the add-log
/// segment. Both inputs are sorted by target oid and disjoint (an edge is
/// never both in the base and in the add log), so the merge is linear and
/// emits ascending oids.
#[derive(Clone, Debug)]
pub struct OverlayEdges<'a> {
    /// Remaining base segment (targets, ascending).
    pub(crate) base: &'a [Oid],
    /// Remaining tombstones for this `(node, label)` — `(key, endpoint)`
    /// pairs whose endpoints are a subset of `base`, ascending.
    pub(crate) dels: &'a [(Oid, Oid)],
    /// Remaining add-log segment — `(key, endpoint)` pairs, ascending by
    /// endpoint, disjoint from `base`.
    pub(crate) adds: &'a [(Oid, Oid)],
    /// Exact number of edges left to deliver.
    pub(crate) len: usize,
}

impl Iterator for OverlayEdges<'_> {
    type Item = Oid;

    fn next(&mut self) -> Option<Oid> {
        // Drop tombstoned base heads first; tombstones are a subset of the
        // base segment, so every del head eventually matches a base head.
        while let (Some(&b), Some(&(_, d))) = (self.base.first(), self.dels.first()) {
            if d > b {
                break;
            }
            self.dels = &self.dels[1..];
            if d == b {
                self.base = &self.base[1..];
            }
        }
        let out = match (self.base.first(), self.adds.first()) {
            (Some(&b), Some(&(_, a))) if a < b => {
                self.adds = &self.adds[1..];
                a
            }
            (Some(&b), _) => {
                self.base = &self.base[1..];
                b
            }
            (None, Some(&(_, a))) => {
                self.adds = &self.adds[1..];
                a
            }
            (None, None) => return None,
        };
        self.len -= 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for OverlayEdges<'_> {}

/// One node's out-row grouped by label, over either snapshot form — the
/// view-level counterpart of [`CsrGraph::out_groups`]. Yields each distinct
/// label once with its (non-empty) target iterator, labels ascending.
pub enum ViewGroups<'a> {
    /// Direct CSR label groups (contiguous slices).
    Csr(crate::csr::LabelGroups<'a>),
    /// Delta-overlay label groups (per-label sorted merges).
    Delta(DeltaGroups<'a>),
}

impl<'a> Iterator for ViewGroups<'a> {
    type Item = (Symbol, ViewEdges<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ViewGroups::Csr(g) => g.next().map(|(l, ts)| (l, ViewEdges::Slice(ts))),
            ViewGroups::Delta(g) => g.next(),
        }
    }
}

/// Which part of a row [`GraphView::prefetch`] loads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RowPart {
    /// Where the row lies: its entry in the row offsets.
    Header,
    /// The row itself: its labels and its endpoints.
    Edges,
}

/// The uniform read interface over graph snapshots: label-indexed forward
/// and reverse adjacency, label groups, per-label statistics, and a
/// snapshot [`Epoch`]. Implemented by the immutable [`CsrGraph`] and the
/// mutable-overlay [`crate::DeltaGraph`]; the `rpq-core` evaluation paths
/// are generic over it.
///
/// On a concrete [`CsrGraph`], the inherent slice-returning methods shadow
/// these (existing callers keep their `&[Oid]` rows); the trait methods
/// resolve inside generic code.
///
/// `Sync` is a supertrait: a snapshot is read-only for the duration of a
/// search, and the parallel kernels share it across worker threads.
pub trait GraphView: Sync {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of (effective) edges.
    fn num_edges(&self) -> usize;

    /// Per-label frequency statistics for the current state of the view.
    fn stats(&self) -> &LabelStats;

    /// Snapshot identity — see [`Epoch`].
    fn epoch(&self) -> Epoch;

    /// The targets of `v`'s edges labeled `label`, ascending.
    fn out(&self, v: Oid, label: Symbol) -> ViewEdges<'_>;

    /// The *sources* of edges labeled `label` arriving at `v` (the
    /// transpose of [`GraphView::out`]), ascending.
    fn rev(&self, v: Oid, label: Symbol) -> ViewEdges<'_>;

    /// `v`'s out-row grouped by label: each distinct label once, with its
    /// targets — the label-dependent-work-once-per-label contract of
    /// [`CsrGraph::out_groups`], over any view.
    fn out_groups(&self, v: Oid) -> ViewGroups<'_>;

    /// A hint that `v`'s row — its in-row when `reverse` — is walked soon:
    /// start loading `part` of it into cache. A search that knows which
    /// rows its next steps walk issues this ahead of them, the
    /// [`RowPart::Header`] first, so that the [`RowPart::Edges`] hint can
    /// read where the row lies without waiting. It changes nothing any
    /// method returns; the default does nothing.
    #[inline]
    fn prefetch(&self, _v: Oid, _reverse: bool, _part: RowPart) {}
}

impl GraphView for CsrGraph {
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    fn stats(&self) -> &LabelStats {
        CsrGraph::stats(self)
    }

    fn epoch(&self) -> Epoch {
        Epoch::STATIC
    }

    #[inline]
    fn out(&self, v: Oid, label: Symbol) -> ViewEdges<'_> {
        ViewEdges::Slice(CsrGraph::out(self, v, label))
    }

    #[inline]
    fn rev(&self, v: Oid, label: Symbol) -> ViewEdges<'_> {
        ViewEdges::Slice(CsrGraph::rev(self, v, label))
    }

    fn out_groups(&self, v: Oid) -> ViewGroups<'_> {
        ViewGroups::Csr(CsrGraph::out_groups(self, v))
    }

    #[inline]
    fn prefetch(&self, v: Oid, reverse: bool, part: RowPart) {
        self.prefetch_row(v, reverse, part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use rpq_automata::Alphabet;

    #[test]
    fn csr_view_matches_inherent_slices() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("s", "a", "y");
        b.edge("s", "b", "x");
        b.edge("x", "b", "y");
        let (inst, _) = b.finish();
        let csr = CsrGraph::from(&inst);
        for v in csr.nodes() {
            for sym in ab.symbols() {
                let via_view: Vec<Oid> = GraphView::out(&csr, v, sym).collect();
                assert_eq!(via_view, CsrGraph::out(&csr, v, sym));
                let via_rev: Vec<Oid> = GraphView::rev(&csr, v, sym).collect();
                assert_eq!(via_rev, CsrGraph::rev(&csr, v, sym));
            }
            let grouped: usize = GraphView::out_groups(&csr, v).map(|(_, ts)| ts.len()).sum();
            assert_eq!(grouped, csr.outdegree(v));
        }
        assert_eq!(GraphView::epoch(&csr), Epoch::STATIC);
    }

    #[test]
    fn overlay_merges_sorted_and_exact_len() {
        let base = [Oid(1), Oid(3), Oid(5), Oid(7)];
        let dels = [(Oid(0), Oid(3)), (Oid(0), Oid(7))];
        let adds = [(Oid(0), Oid(2)), (Oid(0), Oid(9))];
        let it = ViewEdges::Overlay(OverlayEdges {
            base: &base,
            dels: &dels,
            adds: &adds,
            len: base.len() - dels.len() + adds.len(),
        });
        assert_eq!(it.len(), 4);
        let got: Vec<Oid> = it.collect();
        assert_eq!(got, vec![Oid(1), Oid(2), Oid(5), Oid(9)]);
    }

    #[test]
    fn edge_delta_inverse_round_trips() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut d = EdgeDelta::new();
        d.add(Oid(0), a, Oid(1)).del(Oid(1), a, Oid(2));
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        let inv = d.inverse();
        assert_eq!(inv.adds, d.dels);
        assert_eq!(inv.dels, d.adds);
    }
}
