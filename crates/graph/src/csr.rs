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
//! We use **per-node rows sorted by `(Symbol, Oid)`**, with label lookup by
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
//! The rows of one orientation are stored in **blocks of 64 consecutive
//! nodes**, one allocation each (row offsets, then each row's labels and
//! endpoints side by side), behind a table of shared pointers. A snapshot
//! that differs from another in a few rows — the base a
//! [`crate::DeltaGraph`] folds its overlay into — shares every block it did
//! not change, so a compaction costs the blocks it touches and a clone costs
//! the table.
//!
//! A **reverse** CSR (in-edges, same layout) supports backward traversal —
//! single-target evaluation, provenance walks, and the sink side of future
//! bidirectional searches. Per-label degree/frequency statistics
//! ([`LabelStats`]) are collected during the build and feed the optimizer's
//! cost model.

use std::sync::Arc;

use rpq_automata::Symbol;

use crate::instance::{Instance, Oid};
use crate::view::RowPart;

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
/// (debug builds assert the incremental counters against a recount). So is
/// their [`LabelStats::fingerprint`], which a planner reads on every
/// request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelStats {
    edge_counts: Vec<usize>,
    source_counts: Vec<usize>,
    /// Wrapping sum of [`label_mix`] over every label slot.
    fingerprint: u64,
}

/// One label's share of [`LabelStats::fingerprint`]: a 64-bit mix of
/// `(label, edges, sources)`, and nothing for a label that counts nothing —
/// so a slot kept for a label that is gone weighs what no slot does.
fn label_mix(label: usize, edges: usize, sources: usize) -> u64 {
    if edges == 0 && sources == 0 {
        return 0;
    }
    let mut x = (label as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((edges as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add((sources as u64).wrapping_mul(0xCA5A_8263_9512_1157));
    // splitmix64's finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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

    /// A 64-bit digest of the per-label counts, kept up to date by every
    /// mutation (reading it is a field load): statistics that
    /// [`LabelStats::agrees_with`] each other share it, whatever order their
    /// edges arrived in, and statistics that differ share it only by a
    /// 64-bit collision. The optimizer's plan memo keys on it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// [`LabelStats::fingerprint`] from scratch — what the incrementally
    /// kept value is checked against in debug builds, wherever the counts
    /// are checked against a recount.
    pub(crate) fn fingerprint_recomputed(&self) -> u64 {
        (0..self.num_labels()).fold(0, |sum, i| {
            sum.wrapping_add(label_mix(i, self.edge_counts[i], self.source_counts[i]))
        })
    }

    /// Set `label`'s counts (its slot exists), moving the fingerprint from
    /// the old pair to the new.
    fn set_counts(&mut self, label: Symbol, edges: usize, sources: usize) {
        let i = label.index();
        self.fingerprint = self
            .fingerprint
            .wrapping_sub(label_mix(i, self.edge_counts[i], self.source_counts[i]))
            .wrapping_add(label_mix(i, edges, sources));
        self.edge_counts[i] = edges;
        self.source_counts[i] = sources;
    }

    /// Record one new `label` edge; `new_source` says its source had no
    /// `label` edge before. The incremental counterpart of the build-time
    /// count, used by `Instance::add_edge` and `DeltaGraph::add_edge`.
    pub(crate) fn note_added(&mut self, label: Symbol, new_source: bool) {
        let i = label.index();
        if self.edge_counts.len() <= i {
            self.edge_counts.resize(i + 1, 0);
            self.source_counts.resize(i + 1, 0);
        }
        self.set_counts(
            label,
            self.edge_counts[i] + 1,
            self.source_counts[i] + usize::from(new_source),
        );
    }

    /// Record one removed `label` edge; `last_of_source` says its source
    /// has no `label` edge left. Saturates on slots the counters never
    /// saw (possible only on instances rehydrated from pre-stats
    /// encodings without `normalize()` — the debug-build recount assert
    /// in `CsrGraph::from` still flags genuine maintenance bugs).
    pub(crate) fn note_removed(&mut self, label: Symbol, last_of_source: bool) {
        let i = label.index();
        if i < self.edge_counts.len() {
            self.set_counts(
                label,
                self.edge_counts[i].saturating_sub(1),
                self.source_counts[i].saturating_sub(usize::from(last_of_source)),
            );
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

/// Rows per [`RowBlock`] — the unit snapshots share and a fold rebuilds.
const BLOCK_ROWS: usize = 64;

/// Words of a block's offset table: where each row starts, and where the
/// last one ends.
const HEADER: usize = BLOCK_ROWS + 1;

/// The rows of [`BLOCK_ROWS`] consecutive nodes in one orientation, in
/// **one allocation** that every snapshot holding these rows unchanged
/// shares.
///
/// All words are `u32`s typed [`Oid`], so a row's endpoints are handed out
/// as the `&[Oid]` they are stored as. First the [`HEADER`]: block-local
/// row offsets, counted in entries (`words[0] == 0`; a row past the graph's
/// last node is empty). Then the rows in order, each as its labels (a
/// [`Symbol`] index per entry) followed by its endpoints — sorted by
/// `(label, endpoint)` — so a row is one contiguous run of
/// `2 · (words[r + 1] − words[r])` words.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RowBlock(Arc<[Oid]>);

impl RowBlock {
    /// Where the row of node `v` (one of this block's) starts and ends, in
    /// entries, and the words of all rows. A block that is no block holds
    /// no row.
    #[inline]
    fn bounds(&self, v: usize) -> (usize, usize, &[Oid]) {
        let Some((header, rows)) = self.0.split_first_chunk::<HEADER>() else {
            return (0, 0, &[]);
        };
        let r = v % BLOCK_ROWS;
        (header[r].index(), header[r + 1].index(), rows)
    }

    /// The labels and the endpoints of node `v`'s row.
    #[inline]
    fn row(&self, v: usize) -> (&[Oid], &[Oid]) {
        let (start, end, rows) = self.bounds(v);
        (&rows[2 * start..start + end], &rows[start + end..2 * end])
    }

    /// Entries in node `v`'s row.
    #[inline]
    fn degree(&self, v: usize) -> usize {
        let (start, end, _) = self.bounds(v);
        end - start
    }

    /// Start loading `part` of node `v`'s row (one of this block's).
    #[inline]
    fn prefetch(&self, v: usize, part: RowPart) {
        match part {
            RowPart::Header => prefetch(self.0.as_ptr().wrapping_add(v % BLOCK_ROWS)),
            RowPart::Edges => {
                let (start, end, rows) = self.bounds(v);
                if start < end {
                    // the labels, then the endpoints
                    prefetch(rows.as_ptr().wrapping_add(2 * start));
                    prefetch(rows.as_ptr().wrapping_add(start + end));
                }
            }
        }
    }

    /// Entries over all rows of the block.
    fn num_entries(&self) -> usize {
        self.0.get(BLOCK_ROWS).map_or(0, |end| end.index())
    }
}

/// Ask the processor to load the cache line holding `p` for a read soon
/// after. Only a hint: it reads nothing the program sees, and does nothing
/// off x86-64.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only hints the cache: it never faults, for any
    // address, and neither reads nor writes memory the program observes.
    // The SSE it needs is part of every x86-64 target.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The word a [`RowBlock`] stores for `label`.
#[inline]
fn label_word(label: Symbol) -> Oid {
    Oid(label.index() as u32)
}

/// Assembles [`RowBlock`]s row by row through one reused buffer.
struct BlockBuilder {
    words: Vec<Oid>,
    rows: usize,
}

impl BlockBuilder {
    fn new() -> BlockBuilder {
        BlockBuilder {
            words: vec![Oid(0); HEADER],
            rows: 0,
        }
    }

    /// Append the next row, given sorted by `(label, endpoint)`.
    fn push_pairs(&mut self, row: &[(Symbol, Oid)]) {
        let end = self.words[self.rows].index() + row.len();
        // panic-ok: u32 offsets: a block's entry count must fit its header words
        assert!(
            self.rows < BLOCK_ROWS && end <= u32::MAX as usize,
            "a block holds {BLOCK_ROWS} rows and fewer than 2^32 entries"
        );
        self.words.extend(row.iter().map(|&(l, _)| label_word(l)));
        self.words.extend(row.iter().map(|&(_, t)| t));
        self.rows += 1;
        self.words[self.rows] = Oid(end as u32);
    }

    /// Append `block`'s rows `rows` (block-local; the next in line here) as
    /// they stand — one copy for all of them.
    fn push_rows_of(&mut self, block: &RowBlock, rows: std::ops::Range<usize>) {
        let Some((header, words)) = block.0.split_first_chunk::<HEADER>() else {
            return self.pad_to(rows.end);
        };
        let (from, to) = (header[rows.start].index(), header[rows.end].index());
        let end = self.words[self.rows].index();
        // panic-ok: u32 offsets: a copied block range must fit its header words
        assert!(
            self.rows == rows.start && end + (to - from) <= u32::MAX as usize,
            "rows come in order and a block holds fewer than 2^32 entries"
        );
        self.words.extend_from_slice(&words[2 * from..2 * to]);
        for r in rows.start..rows.end {
            self.words[r + 1] = Oid((end + header[r + 1].index() - from) as u32);
        }
        self.rows = rows.end;
    }

    /// Leave the rows before `row` (block-local) that are not appended yet
    /// empty.
    fn pad_to(&mut self, row: usize) {
        let end = self.words[self.rows];
        self.words[self.rows + 1..=row].fill(end);
        self.rows = row;
    }

    /// One orientation's table over `n` nodes: `push_row` appends the row of
    /// the node it is given, and is given every node in order.
    fn table(&mut self, n: usize, mut push_row: impl FnMut(&mut Self, usize)) -> Vec<RowBlock> {
        let block = |first: usize| {
            (first..n.min(first + BLOCK_ROWS)).for_each(|v| push_row(self, v));
            self.finish()
        };
        (0..n).step_by(BLOCK_ROWS).map(block).collect()
    }

    /// The block of the rows appended since the last call; the rows it was
    /// not given are empty.
    fn finish(&mut self) -> RowBlock {
        self.pad_to(BLOCK_ROWS);
        let block = RowBlock(Arc::from(&self.words[..]));
        self.words.truncate(HEADER);
        self.rows = 0;
        block
    }
}

/// An immutable, label-indexed snapshot of a finite graph: forward and
/// reverse CSR adjacency with per-node rows sorted by `(Symbol, Oid)`, plus
/// per-label statistics. See the module docs for the layout rationale.
///
/// Build one with [`CsrGraph::from`]; evaluate against it through the
/// `rpq_core::Engine` trait or the `*_csr` entry points. Cloning one copies
/// a table of block pointers, not the rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrGraph {
    num_nodes: usize,
    num_edges: usize,
    /// Out-rows: block `b` holds nodes `b · BLOCK_ROWS ..`, endpoints are
    /// edge targets.
    out: Vec<RowBlock>,
    /// Reverse adjacency, same shape: endpoints are the *sources* of the
    /// edges into a node.
    rev: Vec<RowBlock>,
    stats: LabelStats,
}

/// `v`'s row in one orientation: its labels and its endpoints.
#[inline]
fn row_of(blocks: &[RowBlock], v: Oid) -> (&[Oid], &[Oid]) {
    blocks[v.index() / BLOCK_ROWS].row(v.index())
}

impl CsrGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = Oid> + '_ {
        (0..self.num_nodes() as u32).map(Oid)
    }

    /// Outdegree of `v`.
    #[inline]
    pub fn outdegree(&self, v: Oid) -> usize {
        self.out[v.index() / BLOCK_ROWS].degree(v.index())
    }

    /// Indegree of `v`.
    #[inline]
    pub fn indegree(&self, v: Oid) -> usize {
        self.rev[v.index() / BLOCK_ROWS].degree(v.index())
    }

    /// Per-label statistics collected at build time.
    pub fn stats(&self) -> &LabelStats {
        &self.stats
    }

    /// The targets of `v`'s edges labeled `label` — a contiguous slice, so
    /// the per-(state, node) step costs only the matching edges.
    #[inline]
    pub fn out(&self, v: Oid, label: Symbol) -> &[Oid] {
        let (labels, targets) = row_of(&self.out, v);
        labeled_range(labels, targets, label)
    }

    /// The *sources* of edges labeled `label` arriving at `v` (the reverse
    /// adjacency — the transpose of [`CsrGraph::out`]).
    #[inline]
    pub fn rev(&self, v: Oid, label: Symbol) -> &[Oid] {
        let (labels, sources) = row_of(&self.rev, v);
        labeled_range(labels, sources, label)
    }

    /// Start loading `part` of `v`'s out-row (in-row when `reverse`) —
    /// [`crate::GraphView::prefetch`] on a snapshot.
    #[inline]
    pub(crate) fn prefetch_row(&self, v: Oid, reverse: bool, part: RowPart) {
        let blocks = if reverse { &self.rev } else { &self.out };
        if let Some(block) = blocks.get(v.index() / BLOCK_ROWS) {
            block.prefetch(v.index(), part);
        }
    }

    /// All out-edges of `v` as `(label, target)` pairs, sorted by
    /// `(Symbol, Oid)`.
    pub fn out_pairs(&self, v: Oid) -> impl Iterator<Item = (Symbol, Oid)> + '_ {
        pairs(row_of(&self.out, v))
    }

    /// All in-edges of `v` as `(label, source)` pairs, sorted by
    /// `(Symbol, Oid)`.
    pub fn rev_pairs(&self, v: Oid) -> impl Iterator<Item = (Symbol, Oid)> + '_ {
        pairs(row_of(&self.rev, v))
    }

    /// `v`'s out-row grouped by label: yields `(label, targets)` once per
    /// distinct label. Lets callers pay label-dependent work (a quotient, a
    /// derivative, a memo lookup) once per *label* instead of once per edge.
    pub fn out_groups(&self, v: Oid) -> LabelGroups<'_> {
        let (labels, endpoints) = row_of(&self.out, v);
        LabelGroups { labels, endpoints }
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

    /// The index of the row block that stores `v`'s rows. The rows of one
    /// block are stored together, shared between snapshots together, and
    /// rebuilt by a fold together ([`crate::DeltaGraph::compact`]).
    pub fn block_of(v: Oid) -> usize {
        v.index() / BLOCK_ROWS
    }

    /// For every row block of one orientation (the in-rows with `reverse`),
    /// in [`CsrGraph::block_of`] order: does `self` read it from the very
    /// allocation `other` does?
    pub fn blocks_shared_with(&self, other: &CsrGraph, reverse: bool) -> Vec<bool> {
        let (mine, theirs) = if reverse {
            (&self.rev, &other.rev)
        } else {
            (&self.out, &other.out)
        };
        let same = |(b, block): (usize, &RowBlock)| {
            theirs.get(b).is_some_and(|t| Arc::ptr_eq(&block.0, &t.0))
        };
        mine.iter().enumerate().map(same).collect()
    }
}

/// The run of `label` in a row sorted by `(label, endpoint)`.
fn labeled_range<'a>(labels: &[Oid], endpoints: &'a [Oid], label: Symbol) -> &'a [Oid] {
    let label = label_word(label);
    // One search finds where the run starts, and the run is bounded from
    // there. A short row (the common case: "objects are small") is searched
    // by scanning, whose branches predict where a binary search's do not.
    // In a long row the start is found by binary search and the run bounded
    // by scanning while it is short, by a search over the rest of the row
    // once it is not (a hub's run must stay logarithmic).
    let lo = if labels.len() <= SHORT_RUN {
        labels.iter().take_while(|&&l| l < label).count()
    } else {
        labels.partition_point(|&l| l < label)
    };
    let rest = &labels[lo..];
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
    &endpoints[lo..lo + run]
}

/// A row as `(label, endpoint)` pairs.
fn pairs<'a>(
    (labels, endpoints): (&'a [Oid], &'a [Oid]),
) -> impl Iterator<Item = (Symbol, Oid)> + 'a {
    labels
        .iter()
        .zip(endpoints)
        .map(|(&l, &t)| (Symbol::from_index(l.index()), t))
}

/// One overlay-log entry handed to [`CsrGraph::fold`]: `(row, label,
/// endpoint, add)` — the row `row` of one orientation gains (`add`) or
/// loses (tombstone, `!add`) the entry `(label, endpoint)`. A log is sorted
/// by `(row, label, endpoint)`, the order of the rows themselves.
pub(crate) type RowPatch = (Oid, Symbol, Oid, bool);

impl CsrGraph {
    /// `self` with an overlay folded in, as `num_nodes` rows holding
    /// `num_edges` edges, and the number of row blocks built for it:
    /// `out_log` patches the out-rows, `in_log` (the same edges keyed by
    /// target) the in-rows, so the reverse CSR is merged like the forward
    /// one and never re-derived by transposition. Only a block that holds a
    /// patched row, or rows past the old last block, is built; every other
    /// is the base's, shared. Equals `CsrGraph::from` over the resulting
    /// edge set, block for block. `stats` are the caller's statistics for
    /// that edge set and are stored as given.
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
    ) -> (CsrGraph, usize) {
        // panic-ok: a fold sizes its blocks by the new node count
        assert!(self.num_nodes <= num_nodes, "a fold drops no row");
        let (out, out_built) =
            fold_blocks(&self.out, self.num_edges, num_nodes, num_edges, out_log);
        let (rev, rev_built) = fold_blocks(&self.rev, self.num_edges, num_nodes, num_edges, in_log);
        let folded = CsrGraph {
            num_nodes,
            num_edges,
            out,
            rev,
            stats,
        };
        (folded, out_built + rev_built)
    }

    /// Statistics recounted from the out-rows — the from-scratch
    /// reference [`crate::DeltaGraph::compact`] checks its incrementally
    /// maintained counters against in debug builds.
    pub(crate) fn recount_stats(&self) -> LabelStats {
        let mut stats = LabelStats::default();
        for v in self.nodes() {
            let mut prev = None;
            for (l, _) in self.out_pairs(v) {
                stats.note_added(l, prev != Some(l));
                prev = Some(l);
            }
        }
        stats
    }
}

/// One orientation of [`CsrGraph::fold`]: the block table `base` (holding
/// `base_edges` entries) with `log` merged in, over `num_nodes` rows, and
/// how many of its blocks were built rather than shared. The work is
/// proportional to the blocks built, plus one pointer copy per block
/// shared.
fn fold_blocks(
    base: &[RowBlock],
    base_edges: usize,
    num_nodes: usize,
    num_edges: usize,
    log: &[RowPatch],
) -> (Vec<RowBlock>, usize) {
    // panic-ok: the merge walks the log in order
    assert!(
        log.windows(2)
            .all(|w| (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2)),
        "overlay log must be strictly ascending by (row, label, endpoint)"
    );
    // panic-ok: a patch past the last row would index out of the blocks
    assert!(
        log.last().is_none_or(|p| p.0.index() < num_nodes),
        "a fold patches no row past the last"
    );
    let num_blocks = num_nodes.div_ceil(BLOCK_ROWS);
    let mut builder = BlockBuilder::new();
    // What the base holds of a block past its last: nothing.
    let empty = builder.finish();
    let mut blocks: Vec<RowBlock> = Vec::with_capacity(num_blocks);
    // Blocks up to `until` that no patch names: the base's, shared.
    let carry_over = |blocks: &mut Vec<RowBlock>, until: usize| {
        let held = base.len();
        blocks.extend_from_slice(&base[blocks.len().min(held)..until.min(held)]);
        blocks.resize(until, empty.clone());
    };

    let mut built = num_blocks.saturating_sub(base.len());
    let mut edges = base_edges;
    let mut merged: Vec<(Symbol, Oid)> = Vec::new();
    for patches in log.chunk_by(|p, q| CsrGraph::block_of(p.0) == CsrGraph::block_of(q.0)) {
        let b = CsrGraph::block_of(patches[0].0);
        carry_over(&mut blocks, b);
        let old = base.get(b).unwrap_or(&empty);
        built += usize::from(b < base.len());
        // Row by patched row; what lies between two of them is the old
        // block's, copied in one piece.
        for row_patches in patches.chunk_by(|p, q| p.0 == q.0) {
            let row = row_patches[0].0.index();
            builder.push_rows_of(old, builder.rows..row % BLOCK_ROWS);
            merge_row(old.row(row), row_patches, &mut merged);
            builder.push_pairs(&merged);
        }
        builder.push_rows_of(old, builder.rows..BLOCK_ROWS);
        let block = builder.finish();
        edges = edges + block.num_entries() - old.num_entries();
        blocks.push(block);
    }
    carry_over(&mut blocks, num_blocks);
    // panic-ok: the folded blocks must agree with the edge count served
    assert!(edges == num_edges, "folded rows must hold every edge");
    (blocks, built)
}

/// `merged` := the base row `(labels, endpoints)` with `patches` (all of
/// this row, ascending) applied.
fn merge_row(
    (labels, endpoints): (&[Oid], &[Oid]),
    patches: &[RowPatch],
    merged: &mut Vec<(Symbol, Oid)>,
) {
    let mut base = pairs((labels, endpoints)).peekable();
    merged.clear();
    for &(_, label, endpoint, add) in patches {
        let patch = (label, endpoint);
        while let Some(entry) = base.next_if(|&entry| entry < patch) {
            merged.push(entry);
        }
        let in_base = base.peek() == Some(&patch);
        if add {
            // panic-ok: a fold's add log and the base are disjoint
            assert!(!in_base, "add log must be disjoint from the base");
            merged.push(patch);
        } else {
            // panic-ok: a fold's tombstones name base edges
            assert!(in_base, "tombstone must name a base edge");
            base.next();
        }
    }
    merged.extend(base);
}

/// Iterator over `(label, targets)` groups of one row — see
/// [`CsrGraph::out_groups`].
pub struct LabelGroups<'a> {
    /// The row's labels as a [`RowBlock`] stores them.
    labels: &'a [Oid],
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
        Some((Symbol::from_index(label.index()), group))
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
        // field (a decoder that does not validate them): when the
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
            debug_assert_eq!(stats.fingerprint(), stats.fingerprint_recomputed());
            stats
        } else {
            LabelStats::recount(instance.nodes().map(|v| instance.out_edges(v)))
        };

        // Forward: Instance rows are maintained sorted by (Symbol, Oid);
        // re-sort defensively (e.g. instances deserialized from older
        // encodings), which is O(1) on already-sorted rows.
        let mut builder = BlockBuilder::new();
        let mut scratch: Vec<(Symbol, Oid)> = Vec::new();
        let mut indegree = vec![0usize; n];
        let out = builder.table(n, |builder, v| {
            let row = instance.out_edges(Oid(v as u32));
            let row: &[(Symbol, Oid)] = if row.is_sorted() {
                row
            } else {
                scratch.clear();
                scratch.extend_from_slice(row);
                scratch.sort_unstable();
                &scratch
            };
            builder.push_pairs(row);
            for &(_, t) in row {
                indegree[t.index()] += 1;
            }
        });

        // Reverse: counting-sort the transposed edges into one scratch
        // array (no per-node buckets) — a row's cursor starts where the row
        // does and ends where it does — sort each row in place by
        // (Symbol, Oid), and cut the blocks from it.
        let mut cursor = indegree;
        let mut num_edges = 0;
        for c in &mut cursor {
            num_edges += std::mem::replace(c, num_edges);
        }
        let mut transposed = vec![(Symbol::from_index(0), Oid(0)); num_edges];
        for v in instance.nodes() {
            for &(l, t) in instance.out_edges(v) {
                transposed[cursor[t.index()]] = (l, v);
                cursor[t.index()] += 1;
            }
        }
        let mut start = 0;
        let rev = builder.table(n, |builder, v| {
            let row = &mut transposed[start..cursor[v]];
            start = cursor[v];
            row.sort_unstable();
            builder.push_pairs(row);
        });

        CsrGraph {
            num_nodes: n,
            num_edges,
            out,
            rev,
            stats,
        }
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

    #[test]
    fn fingerprint_follows_the_counts_not_their_history() {
        let (a, b, c) = (
            Symbol::from_index(0),
            Symbol::from_index(1),
            Symbol::from_index(2),
        );
        let build = |notes: &[(Symbol, bool)]| {
            let mut stats = LabelStats::default();
            for &(l, new_source) in notes {
                stats.note_added(l, new_source);
                assert_eq!(stats.fingerprint(), stats.fingerprint_recomputed());
            }
            stats
        };
        let one = build(&[(a, true), (a, false), (b, true)]);
        let other = build(&[(b, true), (a, true), (a, false)]);
        assert_eq!(one.fingerprint(), other.fingerprint());
        assert_ne!(one.fingerprint(), LabelStats::default().fingerprint());
        // the same edges over more sources are other statistics
        let spread = build(&[(a, true), (a, true), (b, true)]);
        assert_ne!(one.fingerprint(), spread.fingerprint());
        // a label that came and went leaves a slot and no trace
        let mut visited = one.clone();
        visited.note_added(c, true);
        assert_ne!(one.fingerprint(), visited.fingerprint());
        visited.note_removed(c, true);
        assert_eq!(visited.num_labels(), 3);
        assert!(visited.agrees_with(&one));
        assert_eq!(visited.fingerprint(), one.fingerprint());
        assert_eq!(visited.fingerprint(), visited.fingerprint_recomputed());
        // a removal the counters never saw the edge of changes nothing
        visited.note_removed(Symbol::from_index(7), true);
        assert_eq!(visited.fingerprint(), one.fingerprint());
    }

    type Edge = (Oid, Symbol, Oid);

    /// Fold `dels`/`adds` (and `extra_nodes` new rows) into `inst`'s
    /// snapshot, and check everything a fold promises: the result is the
    /// rebuild of the mirrored instance block for block in both
    /// orientations, with its statistics; a block is the base's own
    /// allocation exactly when it holds no patched row and the base had it,
    /// and the count returned is the number of the others; the base — a
    /// reader's snapshot from before the fold — is what it was.
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
        let base = CsrGraph::from(inst);
        let (folded, built) = base.fold(
            mirror.num_nodes(),
            mirror.num_edges(),
            &out_log,
            &in_log,
            mirror.stats().clone(),
        );
        assert_eq!(folded, CsrGraph::from(&mirror));
        assert!(folded.stats().agrees_with(&folded.recount_stats()));
        assert_eq!(
            base,
            CsrGraph::from(inst),
            "the base is not the fold's to touch"
        );

        let mut expect_built = 0;
        for (log, reverse) in [(&out_log, false), (&in_log, true)] {
            let shared = folded.blocks_shared_with(&base, reverse);
            assert_eq!(shared.len(), mirror.num_nodes().div_ceil(BLOCK_ROWS));
            for (b, &shared) in shared.iter().enumerate() {
                let patched = log.iter().any(|p| CsrGraph::block_of(p.0) == b);
                let in_base = b < inst.num_nodes().div_ceil(BLOCK_ROWS);
                assert_eq!(shared, in_base && !patched, "block {b}, reverse {reverse}");
                expect_built += usize::from(!shared);
            }
        }
        assert_eq!(built, expect_built);
    }

    /// `3 · BLOCK_ROWS + 8` nodes in a ring of `a` edges with a `b` chord
    /// from every fourth node: three full blocks and a short one, every
    /// row non-empty in both orientations.
    fn wide() -> (Symbol, Symbol, Instance) {
        let mut ab = Alphabet::new();
        let (a, b) = (ab.intern("a"), ab.intern("b"));
        let n = 3 * BLOCK_ROWS as u32 + 8;
        let mut inst = Instance::new();
        for _ in 0..n {
            inst.add_node();
        }
        for v in 0..n {
            inst.add_edge(Oid(v), a, Oid((v + 1) % n));
            if v % 4 == 0 {
                inst.add_edge(Oid(v), b, Oid((v * 7 + 3) % n));
            }
        }
        (a, b, inst)
    }

    /// The first and the last row of block 1, and the rows either side of
    /// it.
    const BOUNDARY: [u32; 4] = [
        BLOCK_ROWS as u32 - 1,
        BLOCK_ROWS as u32,
        2 * BLOCK_ROWS as u32 - 1,
        2 * BLOCK_ROWS as u32,
    ];

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

        // the first and the last row of a block, one at a time (one block
        // rebuilt each way, or two where the edge crosses a boundary), then
        // the rows on both sides of both boundaries at once
        let (a, _, wide) = wide();
        let ring = |v: u32| (Oid(v), a, Oid(v + 1));
        for v in BOUNDARY {
            fold_matches_rebuild(&wide, 0, &[ring(v)], &[]);
        }
        fold_matches_rebuild(&wide, 0, &BOUNDARY.map(ring), &[]);
    }

    #[test]
    fn fold_leaves_a_block_without_an_edge_and_fills_it_again() {
        // Block 1 holds one edge in either orientation, block 2 the last
        // node only.
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let (lone, last) = (BLOCK_ROWS as u32 + 6, 2 * BLOCK_ROWS as u32);
        let mut inst = Instance::new();
        for _ in 0..=last {
            inst.add_node();
        }
        let edges = [
            (Oid(0), a, Oid(1)),
            (Oid(lone), a, Oid(lone + 1)),
            (Oid(last), a, Oid(0)),
        ];
        for (f, l, t) in edges {
            inst.add_edge(f, l, t);
        }
        fold_matches_rebuild(&inst, 0, &[edges[1]], &[]);
        let mut emptied = inst.clone();
        emptied.remove_edge(Oid(lone), a, Oid(lone + 1));
        assert_eq!(CsrGraph::from(&emptied).out[1].num_entries(), 0);
        fold_matches_rebuild(&emptied, 0, &[], &[edges[1]]);
        // and a graph with no edge left at all
        fold_matches_rebuild(&inst, 0, &edges, &[]);
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

        // into the first and the last row of a block, and into the two rows
        // a boundary separates, from a row far away and from each other
        let (a, b, wide) = wide();
        for v in BOUNDARY {
            fold_matches_rebuild(&wide, 0, &[], &[(Oid(v), b, Oid(1))]);
            fold_matches_rebuild(&wide, 0, &[], &[(Oid(1), b, Oid(v))]);
        }
        let [before, first, last, after] = BOUNDARY.map(Oid);
        fold_matches_rebuild(
            &wide,
            0,
            &[(first, a, Oid(first.0 + 1))],
            &[
                (before, b, first),
                (first, b, before),
                (last, b, after),
                (after, a, last),
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

        // new nodes in the short last block: it is shared while none of
        // them takes an edge, rebuilt once one does
        let (a, b, wide) = wide();
        let n = wide.num_nodes() as u32;
        fold_matches_rebuild(&wide, 5, &[], &[]);
        fold_matches_rebuild(&wide, 5, &[], &[(Oid(n + 4), b, Oid(0))]);
        // a new node that opens a block of its own, with and without an
        // edge, and new nodes that open two
        let room = BLOCK_ROWS - wide.num_nodes() % BLOCK_ROWS;
        let opener = Oid(n + room as u32);
        fold_matches_rebuild(&wide, room + 1, &[], &[]);
        fold_matches_rebuild(
            &wide,
            room + 1,
            &[(Oid(n - 1), a, Oid(0))],
            &[(Oid(n - 1), a, opener), (opener, a, Oid(0))],
        );
        fold_matches_rebuild(
            &wide,
            room + BLOCK_ROWS + 1,
            &[],
            &[(opener, b, Oid(opener.0 + BLOCK_ROWS as u32))],
        );
        // a base that ends on a block boundary
        let mut full = Instance::new();
        for _ in 0..BLOCK_ROWS {
            full.add_node();
        }
        full.add_edge(Oid(0), a, Oid(BLOCK_ROWS as u32 - 1));
        fold_matches_rebuild(&full, 1, &[], &[(Oid(BLOCK_ROWS as u32), a, Oid(0))]);
    }

    #[test]
    #[should_panic(expected = "add log must be disjoint from the base")]
    fn fold_refuses_an_add_the_base_already_holds() {
        let (a, _, inst) = wide();
        let csr = CsrGraph::from(&inst);
        let stats = csr.stats().clone();
        let (n, m) = (csr.num_nodes(), csr.num_edges());
        let last_of_block = Oid(BLOCK_ROWS as u32 - 1);
        let held = (last_of_block, a, Oid(BLOCK_ROWS as u32), true);
        csr.fold(n, m + 1, &[held], &[], stats);
    }

    #[test]
    #[should_panic(expected = "tombstone must name a base edge")]
    fn fold_refuses_a_tombstone_for_no_base_edge() {
        let (a, _, inst) = wide();
        let csr = CsrGraph::from(&inst);
        let stats = csr.stats().clone();
        let (n, m) = (csr.num_nodes(), csr.num_edges());
        let first_of_block = Oid(BLOCK_ROWS as u32);
        let absent = (first_of_block, a, Oid(BLOCK_ROWS as u32 - 1), false);
        csr.fold(n, m - 1, &[absent], &[], stats);
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
