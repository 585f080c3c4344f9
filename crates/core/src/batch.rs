//! Batched multi-source evaluation — bit-parallel frontiers.
//!
//! Real workloads ask the same query from *many* sources (figure
//! reproductions, the distributed runners, all-pairs materialization).
//! Looping a single-source engine re-walks the same CSR rows once per
//! source; the batched engines here walk them once per *batch*.
//!
//! The bit-parallel representation, over [`rpq_graph::bitset`], is **lane
//! mode** ([`search_lanes`], [`search_matrix`],
//! [`eval_quotient_dfa_batch_csr`]): seeds are processed in waves of up to
//! 64; cell `(q, v)` of a `LaneMatrix` holds a `u64` mask of which wave
//! seeds have reached node `v` in automaton state (or quotient class) `q`.
//! One pass over a CSR label row ORs the whole mask into every target —
//! one scan advances every pending seed — and the lane partition recovers
//! per-seed answer sets at the end.
//!
//! The lane kernel runs the level-synchronous product BFS of
//! [`crate::product`] (ε-closure within a level, one graph edge per level
//! step), always by push, uncapped and uncontrolled. `edges_scanned`
//! counts each row pass once regardless of how many seed lanes ride it —
//! that is the measured win over the per-seed loop (bench
//! `t1_eval_scaling`, multi-source series).

use rpq_automata::{Nfa, StateId};
use rpq_graph::{GraphView, Oid};

use crate::parallel::wave_fanout;
use crate::product::SearchOpts;
use crate::quotient::SubsetInterner;
use crate::scratch::EvalScratch;
use crate::stats::EvalStats;

/// Result of a batched evaluation over a source set.
///
/// Always carries the union `⋃ᵢ p(oᵢ, I)` and the *aggregated*
/// [`EvalStats`] (per-source counters are merged, not discarded — see
/// [`EvalStats::merge`]). Engines that partition by source also report the
/// per-source answer sets; union-only engines (e.g. semi-naive Datalog
/// seeded with every source at once) report `per_source() == None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchResult {
    per_source: Option<Vec<Vec<Oid>>>,
    union: Vec<Oid>,
    /// Aggregated work counters for the whole batch.
    pub stats: EvalStats,
}

impl BatchResult {
    /// Build from per-source answer sets (each sorted); computes the union.
    pub fn from_per_source(per_source: Vec<Vec<Oid>>, stats: EvalStats) -> BatchResult {
        let mut union: Vec<Oid> = per_source.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        BatchResult {
            per_source: Some(per_source),
            union,
            stats,
        }
    }

    /// Build from a union-only computation (`union` need not be sorted).
    pub fn union_only(mut union: Vec<Oid>, stats: EvalStats) -> BatchResult {
        union.sort_unstable();
        union.dedup();
        BatchResult {
            per_source: None,
            union,
            stats,
        }
    }

    /// The union of all per-source answer sets, sorted.
    pub fn union(&self) -> &[Oid] {
        &self.union
    }

    /// Per-source answer sets aligned with the `sources` argument, if the
    /// engine partitioned by source (`None` for union-only engines).
    pub fn per_source(&self) -> Option<&[Vec<Oid>]> {
        self.per_source.as_deref()
    }

    /// Re-align per-seed sets that were computed over a prefix of the
    /// in-range seeds of `requested` (out-of-range oids seed nothing; a
    /// controlled loop may stop early): every requested seed gets a slot,
    /// the skipped ones an empty set.
    pub(crate) fn aligned_to(mut self, requested: &[Oid], nv: usize) -> BatchResult {
        if let Some(per) = &mut self.per_source {
            if per.len() != requested.len() {
                let mut computed = std::mem::take(per).into_iter();
                let slot = |o: &Oid| {
                    if o.index() < nv {
                        computed.next().unwrap_or_default()
                    } else {
                        Vec::default()
                    }
                };
                *per = requested.iter().map(slot).collect();
            }
        }
        self
    }
}

/// Answers for one wave: turn per-node lane masks into sorted per-source
/// answer lists, appended to `out` in lane order.
pub(crate) fn collect_wave_answers(answer_masks: &[u64], wave_len: usize, out: &mut Vec<Vec<Oid>>) {
    let base = out.len();
    for _ in 0..wave_len {
        out.push(Vec::new()); // alloc-ok: per-source result vectors are the return value
    }
    for (v, &mask) in answer_masks.iter().enumerate() {
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            out[base + lane].push(Oid(v as u32));
        }
    }
    // node order is increasing, so each per-source list is already sorted
}

/// The per-seed answer shape: evaluate `L(nfa)` from every seed at once, in
/// waves of up to 64 lanes — `p(sᵢ, I)` per source forward, or
/// `{o | tᵢ ∈ p(o, I)}` per target with `opts.reverse_adj` and the
/// *reversed* automaton ([`Nfa::reverse`]). Reads `opts.reverse_adj`, and
/// `opts.dop` / `opts.pool` to fan independent waves across workers.
///
/// One `u64` lane mask per `(NFA state, node)` cell; a CSR label row is
/// scanned once per cell activation, advancing every lane that reached the
/// cell this level together — replacing the one-BFS-per-seed loop.
/// Per-seed answer sets are recovered from the lane partition, aligned
/// with `seeds` (duplicate seeds each get a lane). `stats` are aggregated
/// over waves; `answers` counts the per-seed total. A warm `scratch` whose
/// lane capacity covers `|Q|·|V|` runs the whole batch without allocating
/// arenas.
pub fn search_lanes<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    seeds: &[Oid],
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> BatchResult {
    let (waves, mut stats) = wave_fanout(
        nfa,
        graph,
        seeds,
        opts,
        scratch,
        |masks, _start, wave_len| {
            let mut per: Vec<Vec<Oid>> = Vec::with_capacity(wave_len);
            collect_wave_answers(masks, wave_len, &mut per);
            per
        },
    );
    let per_seed: Vec<Vec<Oid>> = waves.into_iter().flatten().collect();
    stats.answers = per_seed.iter().map(Vec::len).sum();
    BatchResult::from_per_source(per_seed, stats)
}

/// The wave kernel proper, decoupled from the answer representation: after
/// each completed wave, `on_wave` receives the per-node lane masks (`masks[v]`
/// bit `l` set ⟺ wave source `wave_start + l` answers `v`), the wave's
/// starting index into `sources`, and the wave length. [`search_lanes`]
/// collects per-seed answer lists; [`search_matrix`] fills
/// [`MatrixResult`] rows directly from the same masks, and
/// [`crate::search_pairs`] turns them into (source, target) bindings. The
/// returned stats leave `answers` at 0 — the caller sets it from its own
/// representation.
pub(crate) fn batch_wave_kernel_sink<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    sources: &[Oid],
    reverse_adj: bool,
    scratch: &mut EvalScratch,
    on_wave: &mut dyn FnMut(&[u64], usize, usize),
) -> EvalStats {
    let nq = nfa.num_states();
    let nv = graph.num_nodes();
    let covered = scratch.begin_batch(nq, nv);
    let gen = scratch.generation();
    let mut stats = EvalStats {
        scratch_reused: usize::from(covered),
        ..EvalStats::default()
    };
    let mut classes = 0usize;

    // Lane arenas from the scratch's batch section; the dense frontier
    // arenas double as the active/next-active cell sets.
    let reached = &mut scratch.reached;
    let frontier = &mut scratch.lanes_cur;
    let next = &mut scratch.lanes_next;
    let active = &mut scratch.dense;
    let next_active = &mut scratch.dense_b;
    let worklist = &mut scratch.worklist;

    for (wi, wave) in sources.chunks(64).enumerate() {
        reached.clear();
        frontier.clear();
        next.clear();
        active.clear();
        next_active.clear();
        scratch.answer_masks.fill(0);

        for (lane, &s) in wave.iter().enumerate() {
            let bit = 1u64 << lane;
            reached.or(nfa.start() as usize, s.index(), bit);
            frontier.or(nfa.start() as usize, s.index(), bit);
            active.state_mut(nfa.start() as usize).insert(s.index());
        }

        while !active.is_empty() {
            stats.frontier_peak = stats.frontier_peak.max(active.count());
            // ε-closure within the level: propagate new lane bits across
            // ε-edges until fixpoint (ε consumes no graph edge, so the
            // closure stays in the same BFS level).
            worklist.clear();
            for q in 0..nq {
                for v in active.state(q).iter_ones() {
                    worklist.push((q as StateId, v));
                }
            }
            while let Some((q, v)) = worklist.pop() {
                let m = frontier.get(q as usize, v);
                for &q2 in nfa.eps_transitions(q) {
                    let newbits = reached.or(q2 as usize, v, m);
                    if newbits != 0 {
                        frontier.or(q2 as usize, v, newbits);
                        active.state_mut(q2 as usize).insert(v);
                        worklist.push((q2, v));
                    }
                }
            }

            // Consume one graph edge per active cell: a row pass costs its
            // length once, no matter how many lanes ride the mask.
            for q in 0..nq {
                if active.state(q).is_empty() {
                    continue;
                }
                if scratch.state_marks[q] != gen {
                    scratch.state_marks[q] = gen;
                    classes += 1;
                }
                let accepting = nfa.is_accepting(q as StateId);
                for v in active.state(q).iter_ones() {
                    let m = frontier.take(q, v);
                    debug_assert_ne!(m, 0);
                    stats.pairs_visited += 1;
                    if accepting {
                        scratch.answer_masks[v] |= m;
                    }
                    for &(sym, q2) in nfa.transitions(q as StateId) {
                        let targets = if reverse_adj {
                            graph.rev(Oid(v as u32), sym)
                        } else {
                            graph.out(Oid(v as u32), sym)
                        };
                        stats.edges_scanned += targets.len();
                        for v2 in targets {
                            let newbits = reached.or(q2 as usize, v2.index(), m);
                            if newbits != 0 {
                                next.or(q2 as usize, v2.index(), newbits);
                                next_active.state_mut(q2 as usize).insert(v2.index());
                            }
                        }
                    }
                }
            }
            stats.push_levels += 1;

            // `frontier` is all-zero here: every nonzero cell was in
            // `active` and the edge step take()s each one, so the swap
            // alone leaves `next` ready for reuse — no O(states × nodes)
            // refill per level.
            frontier.swap_contents(next);
            active.swap(next_active);
            next_active.clear();
        }

        on_wave(&scratch.answer_masks[..nv], wi * 64, wave.len());
    }

    stats.classes_materialized = classes;
    stats
}

/// Bit-packed N×M reachability matrix: `reachable(i, j)` answers
/// `targets[j] ∈ p(sources[i], I)`. Produced in one bit-parallel pass
/// ([`search_matrix`]) by the same wave kernel as [`search_lanes`] — rows
/// are filled straight from the per-node lane masks, so the matrix costs no
/// more than the batched source evaluation plus one mask probe per (wave,
/// target).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixResult {
    sources: Vec<Oid>,
    targets: Vec<Oid>,
    words_per_row: usize,
    bits: Vec<u64>,
    /// Aggregated work counters (`answers` counts set matrix cells).
    pub stats: EvalStats,
}

impl MatrixResult {
    /// An all-unreachable matrix over the given axes — the starting point
    /// for incremental fills (the controlled matrix path marks cells per
    /// completed source) and the zero-work result for statically empty
    /// queries.
    pub fn new(sources: Vec<Oid>, targets: Vec<Oid>) -> MatrixResult {
        let words_per_row = targets.len().div_ceil(64);
        let bits = vec![0u64; sources.len() * words_per_row]; // alloc-ok: result value
        MatrixResult {
            sources,
            targets,
            words_per_row,
            bits,
            stats: EvalStats::default(),
        }
    }

    /// Mark `(sources[i], targets[j])` reachable.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Does a path from `sources[i]` to `targets[j]` spell a query word?
    #[inline]
    pub fn reachable(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// The row objects (path starts), in request order.
    pub fn sources(&self) -> &[Oid] {
        &self.sources
    }

    /// The column objects (path ends), in request order.
    pub fn targets(&self) -> &[Oid] {
        &self.targets
    }

    /// Number of reachable `(source, target)` cells.
    pub fn reachable_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Re-seat a matrix computed over the in-range rows and columns of the
    /// requested axes onto those axes: an oid `>= nv` keeps its row or
    /// column, all unreachable.
    pub(crate) fn spread_over(self, sources: &[Oid], targets: &[Oid], nv: usize) -> MatrixResult {
        if self.sources.len() == sources.len() && self.targets.len() == targets.len() {
            return self;
        }
        let live = |axis: &[Oid]| -> Vec<usize> {
            let kept = axis.iter().enumerate().filter(|(_, o)| o.index() < nv);
            kept.map(|(i, _)| i).collect()
        };
        let mut full = MatrixResult::new(sources.to_vec(), targets.to_vec()); // alloc-ok: result value
        let (rows, cols) = (live(sources), live(targets));
        for (li, &i) in rows.iter().enumerate() {
            for (lj, &j) in cols.iter().enumerate() {
                if self.reachable(li, lj) {
                    full.set(i, j);
                }
            }
        }
        full.stats = self.stats;
        full
    }

    /// The transposed matrix (`sources` and `targets` swap roles) — used
    /// by planners that run the reversed automaton from the smaller side
    /// and flip the result back.
    pub fn transposed(&self) -> MatrixResult {
        let mut t = MatrixResult::new(self.targets.clone(), self.sources.clone());
        for i in 0..self.sources.len() {
            for j in 0..self.targets.len() {
                if self.reachable(i, j) {
                    t.set(j, i);
                }
            }
        }
        t.stats = self.stats.clone();
        t
    }
}

/// The matrix answer shape: the N-source × M-target reachability matrix in
/// one bit-parallel pass. Runs the lane wave kernel forward from `sources`
/// and, after each wave, reads each target's lane mask once — cell
/// `(i, j)` is set iff lane `i` of its wave answered `targets[j]`.
/// Equivalent to M pair queries per source but sharing every CSR row pass
/// across the whole wave. Sequential (see the follow-ups listed on
/// [`crate::run_request`]).
pub fn search_matrix<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    sources: &[Oid],
    targets: &[Oid],
    scratch: &mut EvalScratch,
) -> MatrixResult {
    let mut matrix = MatrixResult::new(sources.to_vec(), targets.to_vec()); // alloc-ok: result value
    let mut stats = batch_wave_kernel_sink(
        nfa,
        graph,
        sources,
        false,
        scratch,
        &mut |masks, wave_start, wave_len| {
            for (j, &t) in matrix.targets.iter().enumerate() {
                let mask = masks.get(t.index()).copied().unwrap_or(0);
                let mut m = mask & lane_mask(wave_len);
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    matrix.bits[(wave_start + lane) * matrix.words_per_row + j / 64] |=
                        1u64 << (j % 64);
                }
            }
        },
    );
    stats.answers = matrix.reachable_count();
    matrix.stats = stats;
    matrix
}

/// Mask covering the first `wave_len` lanes (`wave_len ≤ 64`).
#[inline]
pub(crate) fn lane_mask(wave_len: usize) -> u64 {
    if wave_len >= 64 {
        u64::MAX
    } else {
        (1u64 << wave_len) - 1
    }
}

/// Bit-parallel batched quotient-DFA search: the same lane-mask scheme as
/// [`search_lanes`], but cells are `(quotient class, node)` with
/// classes lazily determinized through the subset interner shared with
/// [`crate::eval_quotient_dfa_csr`] (one subset step + memo probe per
/// distinct `(class, label)` for the whole batch, not per source).
pub fn eval_quotient_dfa_batch_csr<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    sources: &[Oid],
) -> BatchResult {
    let nv = graph.num_nodes();
    let mut stats = EvalStats::default();
    let mut interner = SubsetInterner::new(nfa);
    let mut per_source: Vec<Vec<Oid>> = Vec::with_capacity(sources.len());
    let mut classes_seen = 0usize;

    for wave in sources.chunks(64) {
        // Masks grow per class as lazy determinization discovers classes.
        let mut reached: Vec<Vec<u64>> = vec![vec![0; nv]]; // alloc-ok: lazily determinized class table
        let mut pending: Vec<Vec<u64>> = vec![vec![0; nv]]; // alloc-ok: lazily determinized class table
        let mut answer_masks = vec![0u64; nv]; // alloc-ok: quotient batch, not pooled
        let mut worklist: Vec<(usize, usize)> = Vec::new(); // alloc-ok: quotient batch worklist

        for (lane, &s) in wave.iter().enumerate() {
            let bit = 1u64 << lane;
            if reached[0][s.index()] & bit == 0 {
                reached[0][s.index()] |= bit;
                pending[0][s.index()] |= bit;
                worklist.push((0, s.index()));
            }
        }

        while let Some((c, v)) = worklist.pop() {
            let m = std::mem::take(&mut pending[c][v]);
            if m == 0 {
                continue; // already drained by an earlier pop
            }
            stats.pairs_visited += 1;
            if interner.accepting(c) {
                answer_masks[v] |= m;
            }
            for (label, targets) in graph.out_groups(Oid(v as u32)) {
                stats.edges_scanned += targets.len();
                let c2 = interner.step(c, label);
                if interner.is_dead(c2) {
                    continue;
                }
                while reached.len() < interner.len() {
                    reached.push(vec![0; nv]); // alloc-ok: class discovery grows the table
                    pending.push(vec![0; nv]); // alloc-ok: class discovery grows the table
                }
                for v2 in targets {
                    let newbits = m & !reached[c2][v2.index()];
                    if newbits != 0 {
                        reached[c2][v2.index()] |= newbits;
                        let was_idle = pending[c2][v2.index()] == 0;
                        pending[c2][v2.index()] |= newbits;
                        if was_idle {
                            worklist.push((c2, v2.index()));
                        }
                    }
                }
            }
        }

        collect_wave_answers(&answer_masks, wave.len(), &mut per_source);
        classes_seen = interner.len();
    }

    stats.classes_materialized = classes_seen;
    stats.answers = per_source.iter().map(Vec::len).sum();
    BatchResult::from_per_source(per_source, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, ProductEngine, Query};
    use rpq_automata::Alphabet;
    use rpq_graph::{CsrGraph, InstanceBuilder};

    fn lanes(query: &Query, csr: &CsrGraph, sources: &[Oid]) -> BatchResult {
        let opts = SearchOpts::default();
        search_lanes(query.nfa(), csr, sources, &opts, &mut EvalScratch::new())
    }

    fn diamond() -> (Alphabet, CsrGraph, Vec<Oid>) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s0", "a", "m");
        b.edge("s1", "a", "m");
        b.edge("s2", "a", "m");
        b.edge("m", "b", "t1");
        b.edge("t1", "b", "t2");
        b.edge("t2", "b", "t1");
        let (inst, names) = b.finish();
        let sources = vec![names["s0"], names["s1"], names["s2"], names["m"]];
        (ab, CsrGraph::from(&inst), sources)
    }

    #[test]
    fn batch_matches_per_source_loop() {
        let (mut ab, csr, sources) = diamond();
        for qs in ["a.b*", "b*", "(a+b)*", "a.b.b", "()", "[]"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            let batch = lanes(&query, &csr, &sources);
            let per = batch.per_source().unwrap();
            assert_eq!(per.len(), sources.len());
            for (i, &s) in sources.iter().enumerate() {
                let single = ProductEngine.eval(&query, &csr, s);
                assert_eq!(per[i], single.answers, "{qs} source {i}");
            }
        }
    }

    #[test]
    fn quotient_batch_matches_per_source_loop() {
        let (mut ab, csr, sources) = diamond();
        for qs in ["a.b*", "(a+b)*", "a.b.b", "()"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            let batch = eval_quotient_dfa_batch_csr(query.nfa(), &csr, &sources);
            let per = batch.per_source().unwrap();
            for (i, &s) in sources.iter().enumerate() {
                let single = ProductEngine.eval(&query, &csr, s);
                assert_eq!(per[i], single.answers, "{qs} source {i}");
            }
        }
    }

    #[test]
    fn shared_suffix_scans_fewer_edges_than_loop() {
        // N entry nodes funnel into one chain: the batch walks the chain
        // once, the loop N times.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        let n = 20;
        for i in 0..n {
            b.edge(&format!("e{i}"), "c", "x0");
        }
        for i in 0..30 {
            b.edge(&format!("x{i}"), "c", &format!("x{}", i + 1));
        }
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let sources: Vec<Oid> = (0..n).map(|i| names[format!("e{i}").as_str()]).collect();
        let query = Query::parse(&mut ab, "c*").unwrap();

        let batch = lanes(&query, &csr, &sources);
        let loop_edges: usize = sources
            .iter()
            .map(|&s| ProductEngine.eval(&query, &csr, s).stats.edges_scanned)
            .sum();
        assert!(
            batch.stats.edges_scanned < loop_edges,
            "batch {} vs loop {}",
            batch.stats.edges_scanned,
            loop_edges
        );
        // every source sees the whole chain plus itself
        for per in batch.per_source().unwrap() {
            assert_eq!(per.len(), 32);
        }
    }

    #[test]
    fn more_than_64_sources_run_in_waves() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..70 {
            b.edge(&format!("s{i}"), "a", "hub");
        }
        b.edge("hub", "b", "t");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let sources: Vec<Oid> = (0..70).map(|i| names[format!("s{i}").as_str()]).collect();
        let query = Query::parse(&mut ab, "a.b").unwrap();
        let batch = lanes(&query, &csr, &sources);
        let t = names["t"];
        for per in batch.per_source().unwrap() {
            assert_eq!(per, &vec![t]);
        }
        assert_eq!(batch.union(), &[t]);
        assert_eq!(batch.stats.answers, 70);
    }

    #[test]
    fn empty_source_set_is_empty() {
        let (mut ab, csr, _) = diamond();
        let query = Query::parse(&mut ab, "a*").unwrap();
        let batch = lanes(&query, &csr, &[]);
        assert!(batch.union().is_empty());
        assert_eq!(batch.per_source(), Some(&[][..]));
    }

    #[test]
    fn duplicate_sources_each_get_a_lane() {
        let (mut ab, csr, sources) = diamond();
        let query = Query::parse(&mut ab, "a.b*").unwrap();
        let dup = vec![sources[0], sources[0], sources[1]];
        let batch = lanes(&query, &csr, &dup);
        let per = batch.per_source().unwrap();
        assert_eq!(per[0], per[1]);
    }
}
