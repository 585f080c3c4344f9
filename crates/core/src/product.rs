//! The product-automaton evaluation algorithm (Section 2.2).
//!
//! "A more economical approach is to construct the nfsa for p and carry
//! along the set of states of the nfsa corresponding to the path traveled so
//! far (basically, this constructs a portion of the product of the nfsa for
//! p and the instance I). The resulting algorithm has polynomial-time
//! combined data and query complexity and nlogspace data complexity."
//!
//! We track individual NFA states rather than state *sets*: a breadth-first
//! search over reachable pairs `(q, v)` of automaton state × graph node,
//! processed level by level (ε-moves stay within a level, since they consume
//! no edge). A node `v` is an answer as soon as some reachable pair `(q, v)`
//! has `q` accepting. The pair space is `O(|Q| · |V|)` — the NLOGSPACE/NC
//! bound's certificate.
//!
//! [`search_nodes`] is the entry point (and [`eval_product_csr`] its
//! default-options one-liner): it steps pairs through the label-indexed
//! snapshot (`graph.out(v, sym)` is a contiguous slice of exactly the
//! matching edges), so per-pair work is proportional to *matching* edges
//! rather than `outdegree × fanout`. [`eval_product`] is a thin
//! compatibility wrapper that snapshots an [`Instance`] first, and
//! [`eval_product_scan`] preserves the original scan-and-filter loop as the
//! measurable baseline (bench `t1_eval_scaling`, skewed workload).
//!
//! # One driver
//!
//! The paper's procedure is *one* algorithm, and so is this module: one
//! level loop, one push-sweep body and one pull-sweep body, over the one
//! `(state, node)` mark table of an [`EvalScratch`]. What a search varies
//! in — direction, depth cap, per-level strategy, budget and cancellation,
//! degree of parallelism — is a field of [`SearchOpts`], not a sibling
//! function: backward search is `reverse_adj` with the reversed automaton,
//! "bounded" is `depth_cap`, "uncontrolled" is
//! [`EvalControl::UNLIMITED`], and sequential is `dop == 1` (a level that
//! does not fan out runs its sweep inline on the calling thread).
//!
//! # Direction-optimizing expansion
//!
//! The paper fixes the *pair space*; how each BFS level sweeps it is ours
//! to optimize. Every level is expanded one of two ways
//! (Beamer-style direction-optimizing BFS, selected per level by
//! [`FrontierMode`]):
//!
//! * **push** (sparse): for each frontier pair `(q, v)` and transition
//!   `(sym, q2)`, scan the matching adjacency row — cost is exactly the sum
//!   of the frontier's row lengths;
//! * **pull** (dense): for each *unreached* pair `(q2, v2)`, merge-join the
//!   candidate node's opposite-direction label groups against the reversed
//!   transition table and probe the dense frontier bitmap, stopping at the
//!   first hit — cost is bounded by one probe per (edge, matching reverse
//!   transition), independent of frontier fan-out.
//!
//! Both strategies produce the identical next level (level k = pairs first
//! reached spelling k letters), so [`FrontierMode::Hybrid`] compares the
//! *exact* push cost (row lengths from the label index — no edge is
//! scanned to price a level) against a sound, monotonically shrinking pull
//! bound: it starts at Σ over labeled transitions of the label's edge
//! count and is debited by each newly reached pair's matching in-edge
//! count — a pull sweep only probes edges entering *unreached* pairs, so
//! the remainder always upper-bounds the probes. The chosen sweep's actual
//! scans never exceed the push price of the same level, hence hybrid never
//! scans more edges than forced sparse, and strictly fewer whenever a
//! high-fanout level re-scans rows whose targets are mostly reached (bench
//! `t15_hot_path`). All working memory comes from an [`EvalScratch`] arena
//! (generation-stamped marks, reusable frontiers) so repeated queries
//! allocate nothing after warm-up — see [`crate::scratch`].
//!
//! # Fanned-out levels
//!
//! Every level is a pure expansion step whose inputs (the ε-closed
//! frontier, the mark table, the label index) are fixed for the duration
//! of the sweep, so a level whose priced cost clears
//! [`PAR_LEVEL_THRESHOLD`] can fan out across `std::thread::scope`
//! workers without changing any observable semantics. **Push** levels
//! chunk the frontier: workers claim fixed-size chunks from a shared
//! cursor, claim newly reached pairs with one atomic `swap` on the mark
//! table, and append them to per-worker buffers that the driver
//! concatenates at the level barrier. **Pull** levels partition the node
//! range into contiguous slabs, so each `(state, node)` candidate is owned
//! by exactly one worker and the probe loop runs contention-free against
//! the read-only densified frontier; per-worker pull-bound debits are
//! summed at the barrier, keeping the shrinking bound exact. Budgets stay
//! sound through one shared spent counter (row reservations for push,
//! small returned leases for pull — see the sweeps).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use rpq_automata::{Nfa, StateId, Symbol};
use rpq_graph::{CsrGraph, FrontierArena, GraphView, Instance, Oid};

use crate::parallel::{BUDGET_LEASE, PAR_LEVEL_THRESHOLD, PULL_SLAB, PUSH_CHUNK};
use crate::request::{EvalControl, Termination};
use crate::scratch::{EvalScratch, PooledScratch, ScratchPool};
use crate::stats::EvalStats;

/// How the product BFS expands each level.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum FrontierMode {
    /// Choose push or pull per level from measured costs (the default),
    /// pricing the dense sweep with [`PULL_SWEEP_DISCOUNT`].
    #[default]
    Hybrid,
    /// [`FrontierMode::Hybrid`] with an explicit pull-sweep discount
    /// divisor in place of [`PULL_SWEEP_DISCOUNT`] — how a test or a
    /// measurement re-prices the switch for one request. Built with
    /// [`FrontierMode::hybrid_with_discount`].
    HybridTuned {
        /// Divisor for the dense sweep's O(|Q|·|V|) mark-table price
        /// (clamped to ≥ 1); larger values make pull sweeps fire earlier.
        pull_discount: usize,
    },
    /// Always sparse push expansion — the pre-optimization behavior, kept
    /// as the baseline the hybrid is asserted against (bench
    /// `t15_hot_path`).
    ForcedSparse,
    /// Always dense pull expansion — exercised by tests to pin that both
    /// sweeps answer identically.
    ForcedDense,
}

impl FrontierMode {
    /// Hybrid expansion with an explicit pull-sweep discount divisor.
    /// `hybrid_with_discount(PULL_SWEEP_DISCOUNT)` prices levels exactly
    /// like [`FrontierMode::Hybrid`].
    pub fn hybrid_with_discount(pull_discount: usize) -> FrontierMode {
        FrontierMode::HybridTuned {
            pull_discount: pull_discount.max(1),
        }
    }

    /// The pull-sweep discount divisor this mode prices dense sweeps with
    /// ([`PULL_SWEEP_DISCOUNT`] unless tuned).
    pub fn pull_discount(self) -> usize {
        match self {
            FrontierMode::HybridTuned { pull_discount } => pull_discount.max(1),
            _ => PULL_SWEEP_DISCOUNT,
        }
    }
}

/// Divisor discounting the pull sweep's O(|Q|·|V|) mark-table reads against
/// edge probes when pricing a level: a contiguous `u32` read is far cheaper
/// than a label-group probe, but not free.
///
/// The value was fitted on the T15 saturating workloads: a divisor of 16
/// makes the switch fire on every mostly-reached level while never pricing
/// a sparse early level as dense. It is what every request in the default
/// [`FrontierMode::Hybrid`] is priced with; the per-class `push_levels` /
/// `pull_levels` sums the server's `Metrics` aggregate say how often the
/// switch fires on real traffic.
pub const PULL_SWEEP_DISCOUNT: usize = 16;

/// Result of an evaluation: sorted answers plus work counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalResult {
    /// The set `p(o, I)`, sorted by oid.
    pub answers: Vec<Oid>,
    /// Work counters.
    pub stats: EvalStats,
}

/// Shared finalization for bitmap-based engines (product, both quotient
/// variants): turn the answer bitmap into the sorted oid list and fill the
/// derived counters in one place.
pub(crate) fn finish_eval(
    answer: &[bool],
    classes_materialized: usize,
    mut stats: EvalStats,
) -> EvalResult {
    let answers: Vec<Oid> = answer
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| Oid(i as u32))
        .collect();
    stats.answers = answers.len();
    stats.classes_materialized = classes_materialized;
    EvalResult { answers, stats }
}

/// Every dimension a product search varies in — the parameters of the one
/// level-synchronous driver behind the four answer-shape entry points,
/// [`search_nodes`], [`crate::search_pair`], [`crate::search_pairs`] and
/// [`crate::run_request`]. `SearchOpts::default()` is the paper's plain
/// evaluation: forward, uncapped, [`FrontierMode::Hybrid`],
/// [`EvalControl::UNLIMITED`], sequential.
///
/// Each entry point documents the fields it does not read.
#[derive(Clone, Copy, Debug)]
pub struct SearchOpts<'a> {
    /// Traverse [`GraphView::rev`] instead of [`GraphView::out`]. The
    /// automaton is taken as given, so backward callers pass the
    /// *reversed* NFA ([`Nfa::reverse`]): a path `o →…→ t` spells
    /// `w ∈ L(p)` exactly when the transposed path spells `reverse(w)`.
    pub reverse_adj: bool,
    /// Never expand BFS levels beyond this depth. Level `k` holds exactly
    /// the pairs first reached by spelling `k` letters, so a cap of at
    /// least the automaton's longest accepted word
    /// ([`Nfa::longest_accepted_len`]) loses no answer — the planner's
    /// finite-language fast path.
    pub depth_cap: Option<usize>,
    /// Per-level push/pull strategy.
    pub mode: FrontierMode,
    /// `edges_scanned` budget and cancellation flag.
    pub control: EvalControl<'a>,
    /// Degree of parallelism granted to this search (from a
    /// [`crate::WorkerPool`] lease); `<= 1` is sequential.
    pub dop: usize,
    /// Where the `dop - 1` extra workers draw their arenas. Without a pool
    /// the search is sequential whatever `dop` says.
    pub pool: Option<&'a ScratchPool>,
}

impl Default for SearchOpts<'_> {
    fn default() -> Self {
        SearchOpts {
            reverse_adj: false,
            depth_cap: None,
            mode: FrontierMode::Hybrid,
            control: EvalControl::UNLIMITED,
            dop: 1,
            pool: None,
        }
    }
}

impl SearchOpts<'_> {
    /// The same options, without the granted workers.
    pub(crate) fn sequential(self) -> Self {
        SearchOpts { dop: 1, ..self }
    }

    /// The degree of parallelism the search can actually use (see
    /// [`SearchOpts::pool`]).
    pub(crate) fn effective_dop(&self) -> usize {
        if self.pool.is_some() {
            self.dop.max(1)
        } else {
            1
        }
    }
}

/// The shrinking upper bound on a pull sweep's probes: starts at Σ over
/// labeled transitions of the label's edge count and is debited by each
/// newly reached pair's [`pair_pull_probes`] — a pull level only probes
/// edges entering *unreached* pairs, so `remaining` always dominates its
/// actual scans.
pub(crate) struct PullBound {
    /// Tracking enabled — any mode that may run a pull sweep.
    pub(crate) active: bool,
    /// Probes remaining over unreached pairs.
    pub(crate) remaining: usize,
}

impl PullBound {
    #[inline]
    pub(crate) fn debit(&mut self, probes: usize) {
        if self.active {
            self.remaining = self.remaining.saturating_sub(probes);
        }
    }
}

/// The probes a pull sweep would spend on the unreached pair `(q, v)`: one
/// per (incoming edge under the expansion adjacency, matching reverse
/// transition). Priced from label-index row lengths — no edge is scanned.
#[inline]
pub(crate) fn pair_pull_probes<G: GraphView>(
    graph: &G,
    reverse_adj: bool,
    rev_trans: &[(Symbol, StateId)],
    rev_trans_off: &[usize],
    q: StateId,
    v: Oid,
) -> usize {
    let (lo, hi) = (rev_trans_off[q as usize], rev_trans_off[q as usize + 1]);
    let mut probes = 0usize;
    for &(sym, _) in &rev_trans[lo..hi] {
        let row = if reverse_adj {
            graph.out(v, sym)
        } else {
            graph.rev(v, sym)
        };
        probes += row.len();
    }
    probes
}

/// Per-worker accumulators, summed at each level barrier. Keeping these
/// local (one shared-counter touch per *level*, not per edge) is what
/// makes the barrier merge exact without contending on every probe.
#[derive(Default)]
struct WorkerOut {
    /// Edges scanned / probes performed by this worker.
    edges: usize,
    /// Pull-bound debits owed for pairs this worker newly reached.
    debits: usize,
    /// Cursor claims made after the worker had already processed its
    /// static fair share — the work-stealing telemetry.
    steals: usize,
}

impl WorkerOut {
    fn absorb(&mut self, other: WorkerOut) {
        self.edges += other.edges;
        self.debits += other.debits;
        self.steals += other.steals;
    }
}

/// Everything one level sweep reads, borrowed immutably for its duration
/// (and shared by the workers of a fanned-out level).
struct LevelCtx<'a, G> {
    nfa: &'a Nfa,
    graph: &'a G,
    reverse_adj: bool,
    nq: usize,
    nv: usize,
    gen: u32,
    bound_active: bool,
    seen: &'a [AtomicU32],
    rev_trans: &'a [(Symbol, StateId)],
    rev_trans_off: &'a [usize],
    frontier: &'a [(StateId, Oid)],
    dense: &'a FrontierArena,
    /// Shared claim cursor (frontier index for push, node index for pull).
    cursor: &'a AtomicUsize,
    /// Budget spent so far, cumulative across levels (reservations).
    spent: &'a AtomicUsize,
    /// Raised by the first worker that cannot reserve budget.
    tripped: &'a AtomicBool,
    budget: Option<usize>,
    /// Static fair share of claimable items per worker, for steal
    /// accounting.
    fair: usize,
}

impl<G: GraphView> LevelCtx<'_, G> {
    /// Mark `(q, v)` reached this generation; `true` when this call was
    /// the first to reach it. A level running inline (`SHARED == false`)
    /// owns the table, so a relaxed load-then-store — two plain moves —
    /// suffices; workers of a fanned-out level race on push targets and
    /// claim with one `swap` (first marker wins).
    #[inline]
    fn mark<const SHARED: bool>(&self, q: StateId, v: Oid) -> bool {
        let cell = &self.seen[q as usize * self.nv + v.index()];
        if SHARED {
            cell.swap(self.gen, Ordering::Relaxed) != self.gen
        } else if cell.load(Ordering::Relaxed) != self.gen {
            cell.store(self.gen, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Claim the next `chunk` of `total` items. An inline level takes the
    /// whole range as its one claim, in order; workers draw from the
    /// shared cursor (claims past the static fair share count as steals —
    /// the rebalancing a work-stealing deque buys, without one) and stop
    /// once any of them has tripped the budget.
    #[inline]
    fn claim<const SHARED: bool>(
        &self,
        total: usize,
        chunk: usize,
        claimed: &mut usize,
        out: &mut WorkerOut,
    ) -> Option<(usize, usize)> {
        if !SHARED {
            let first = *claimed == 0 && total > 0;
            *claimed = total;
            return first.then_some((0, total));
        }
        if self.tripped.load(Ordering::Relaxed) {
            return None;
        }
        let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= total {
            return None;
        }
        if *claimed >= self.fair {
            out.steals += 1;
        }
        let end = (start + chunk).min(total);
        *claimed += end - start;
        Some((start, end))
    }

    #[inline]
    fn pull_probes(&self, q: StateId, v: Oid) -> usize {
        pair_pull_probes(
            self.graph,
            self.reverse_adj,
            self.rev_trans,
            self.rev_trans_off,
            q,
            v,
        )
    }
}

/// Sparse *push* expansion of (a claimed part of) one ε-closed level: scan
/// each frontier pair's matching adjacency rows and mark/enqueue unseen
/// targets into `next`.
///
/// With a budget, each row's exact length is reserved against the shared
/// spent counter *before* it is scanned, so reservations never exceed the
/// budget and `edges_scanned <= budget` always; the first failed
/// reservation raises `tripped` (the level is then partially expanded and
/// the driver abandons the search).
fn push_sweep<G: GraphView, const SHARED: bool>(
    ctx: &LevelCtx<'_, G>,
    next: &mut Vec<(StateId, Oid)>,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut claimed = 0usize;
    while let Some((start, end)) =
        ctx.claim::<SHARED>(ctx.frontier.len(), PUSH_CHUNK, &mut claimed, &mut out)
    {
        for &(q, v) in &ctx.frontier[start..end] {
            for &(sym, q2) in ctx.nfa.transitions(q) {
                let targets = if ctx.reverse_adj {
                    ctx.graph.rev(v, sym)
                } else {
                    ctx.graph.out(v, sym)
                };
                if let Some(b) = ctx.budget {
                    let row = targets.len();
                    let reserved =
                        ctx.spent
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                                (s + row <= b).then_some(s + row)
                            });
                    if reserved.is_err() {
                        ctx.tripped.store(true, Ordering::Relaxed);
                        return out;
                    }
                }
                out.edges += targets.len();
                for v2 in targets {
                    if ctx.mark::<SHARED>(q2, v2) {
                        next.push((q2, v2));
                        if ctx.bound_active {
                            out.debits += ctx.pull_probes(q2, v2);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Dense *pull* expansion of (a claimed node slab of) one ε-closed level:
/// for every unreached pair `(q2, v2)`, merge-join the candidate's
/// opposite-direction label groups against the reversed transition table
/// and probe the densified frontier, stopping at the first hit. Produces
/// exactly the next level [`push_sweep`] would; `edges` counts probed
/// endpoints only. Slab ownership means no two workers ever race on a
/// candidate, so the mark never needs a read-modify-write.
///
/// With a budget, probes are drawn in leases of [`BUDGET_LEASE`] against
/// the shared spent counter and the unspent remainder is returned, so the
/// counter equals the probes actually performed.
fn pull_sweep<G: GraphView, const SHARED: bool>(
    ctx: &LevelCtx<'_, G>,
    next: &mut Vec<(StateId, Oid)>,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let (nq, nv) = (ctx.nq, ctx.nv);
    let mut claimed = 0usize;
    // Probes pre-paid against the shared budget but not yet performed.
    let mut lease = 0usize;
    'slabs: while let Some((start, end)) =
        ctx.claim::<SHARED>(nv, PULL_SLAB, &mut claimed, &mut out)
    {
        for q2 in 0..nq {
            let (lo, hi) = (ctx.rev_trans_off[q2], ctx.rev_trans_off[q2 + 1]);
            if lo == hi {
                continue; // no labeled transition enters q2
            }
            let seg = &ctx.rev_trans[lo..hi];
            for vi in start..end {
                if ctx.seen[q2 * nv + vi].load(Ordering::Relaxed) == ctx.gen {
                    continue;
                }
                let candidate = Oid(vi as u32);
                // The candidate's in-edges under the expansion adjacency —
                // the *opposite* orientation of the push step.
                let groups = if ctx.reverse_adj {
                    ctx.graph.out_groups(candidate)
                } else {
                    ctx.graph.rev_groups(candidate)
                };
                let mut si = 0usize;
                'probe: for (sym, edges) in groups {
                    while si < seg.len() && seg[si].0 < sym {
                        si += 1;
                    }
                    if si == seg.len() {
                        break;
                    }
                    let mut sj = si;
                    while sj < seg.len() && seg[sj].0 == sym {
                        sj += 1;
                    }
                    if sj == si {
                        continue;
                    }
                    for u in edges {
                        for &(_, qsrc) in &seg[si..sj] {
                            if let Some(b) = ctx.budget {
                                if lease == 0 {
                                    lease = acquire_lease(ctx.spent, b);
                                    if lease == 0 {
                                        ctx.tripped.store(true, Ordering::Relaxed);
                                        break 'slabs;
                                    }
                                }
                                lease -= 1;
                            }
                            out.edges += 1;
                            if ctx.dense.state(qsrc as usize).contains(u.index()) {
                                ctx.seen[q2 * nv + vi].store(ctx.gen, Ordering::Relaxed);
                                next.push((q2 as StateId, candidate));
                                out.debits += ctx.pull_probes(q2 as StateId, candidate);
                                break 'probe;
                            }
                        }
                    }
                }
            }
        }
    }
    if lease > 0 {
        ctx.spent.fetch_sub(lease, Ordering::Relaxed);
    }
    out
}

/// Draw up to [`BUDGET_LEASE`] probes from the shared budget; 0 when the
/// budget is exhausted.
fn acquire_lease(spent: &AtomicUsize, budget: usize) -> usize {
    match spent.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        (s < budget).then(|| (s + BUDGET_LEASE).min(budget))
    }) {
        Ok(prev) => (prev + BUDGET_LEASE).min(budget) - prev,
        Err(_) => 0,
    }
}

/// Run one level sweep with `threads` workers. `threads == 1` runs the
/// sweep inline on the calling thread — same body, no spawn, no shared
/// read-modify-writes; otherwise the extra workers collect into the
/// `next` buffers of `worker_scratch`, which the driver concatenates at
/// the level barrier.
fn run_level<G: GraphView>(
    ctx: &LevelCtx<'_, G>,
    pull: bool,
    threads: usize,
    worker_scratch: &mut [PooledScratch<'_>],
    own_next: &mut Vec<(StateId, Oid)>,
) -> WorkerOut {
    if threads <= 1 {
        return if pull {
            pull_sweep::<G, false>(ctx, own_next)
        } else {
            push_sweep::<G, false>(ctx, own_next)
        };
    }
    let worker = if pull {
        pull_sweep::<G, true>
    } else {
        push_sweep::<G, true>
    };
    let mut out = WorkerOut::default();
    let extras = &mut worker_scratch[..threads - 1];
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(extras.len()); // alloc-ok: one tiny vec per parallel level, not per edge
        for w in extras.iter_mut() {
            handles.push(s.spawn(move || worker(ctx, &mut w.next)));
        }
        out.absorb(worker(ctx, own_next));
        for h in handles {
            match h.join() {
                Ok(part) => out.absorb(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// First reach of `(q, v)` on the driver's own thread (seeding and
/// ε-closure): mark it, append it to the current frontier, and debit the
/// pull bound — the pair stops being a pull candidate.
#[inline]
fn reach<G: GraphView>(
    graph: &G,
    reverse_adj: bool,
    nv: usize,
    q: StateId,
    v: Oid,
    bound: &mut PullBound,
    scratch: &mut EvalScratch,
) {
    let gen = scratch.generation();
    let cell = &scratch.seen[q as usize * nv + v.index()];
    if cell.load(Ordering::Relaxed) == gen {
        return;
    }
    cell.store(gen, Ordering::Relaxed);
    scratch.frontier.push((q, v));
    if bound.active {
        bound.debit(pair_pull_probes(
            graph,
            reverse_adj,
            &scratch.rev_trans,
            &scratch.rev_trans_off,
            q,
            v,
        ));
    }
}

/// **The** level-synchronous product BFS (Section 2.2) — the one loop
/// behind every entry point, generic over any
/// [`GraphView`] (the immutable CSR snapshot or the delta overlay).
///
/// Each level runs: ε-closure (ε-moves consume no edge, so their targets
/// stay in the level) → answer pass (with `stop_at`, return as soon as
/// that node is an answer; the answer list is then partial and pair
/// callers consume only the flag) → depth-cap check → pricing → one push
/// or pull sweep → swap. Sequential evaluation is simply `dop == 1`: a
/// level fans out across up to `dop` threads only when its priced cost
/// clears [`PAR_LEVEL_THRESHOLD`], and otherwise runs the same sweep body
/// inline — so a sequential search checks out no worker arena, enters no
/// `thread::scope`, and marks with plain loads and stores. Both sweeps
/// produce the *set* of pairs first reached at the next level, so pricing
/// sees identical inputs and `edges_scanned` is identical at every `dop`
/// (only the unobserved frontier order varies).
///
/// Cancellation is checked once per level; the budget is enforced before
/// every row scan / probe inside the sweeps, so `edges_scanned <= budget`.
/// Answers collected before an early termination are a sound subset (a
/// node is only reported once an accepting pair is actually reached).
pub(crate) fn product_search<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    seed: Oid,
    stop_at: Option<Oid>,
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> (EvalResult, bool, Termination) {
    let nq = nfa.num_states();
    let nv = graph.num_nodes();
    debug_assert!(seed.index() < nv.max(1), "seed must be a graph node");
    let (reverse_adj, mode) = (opts.reverse_adj, opts.mode);
    let dop = opts.effective_dop();
    let covered = scratch.begin(nq, nv);
    let mut stats = EvalStats {
        scratch_reused: usize::from(covered),
        threads_used: usize::from(dop > 1),
        ..EvalStats::default()
    };
    let gen = scratch.generation();
    let mut found = false;
    let mut termination = Termination::Complete;
    let mut classes = 0usize;

    // Pull machinery: the reversed transition table, plus the shrinking
    // probe bound — each graph edge labeled `sym` is tested at most once
    // per reverse transition carrying `sym` *and only while its target
    // pair is unreached*, so the bound starts at Σ over labeled
    // transitions of edge_count(label) and is debited as pairs are
    // reached. The O(|Q|·|V|) unreached-candidate sweep is priced
    // separately (discounted: contiguous mark reads, not edge probes).
    let mut bound = PullBound {
        active: mode != FrontierMode::ForcedSparse,
        remaining: 0,
    };
    let sweep_cost = (nq * nv) / mode.pull_discount();
    if bound.active {
        scratch.build_rev_trans(nfa);
        let gstats = graph.stats();
        for q in 0..nq {
            for &(sym, _) in nfa.transitions(q as StateId) {
                bound.remaining = bound.remaining.saturating_add(gstats.edge_count(sym));
            }
        }
    }

    // Per-worker arenas, checked out once per search: their `next`
    // buffers receive a fanned-out level's newly reached pairs.
    let mut workers: Vec<PooledScratch<'_>> = match opts.pool {
        Some(pool) if dop > 1 => (1..dop).map(|_| pool.checkout()).collect(), // alloc-ok: one checkout vec per parallel search
        _ => Vec::new(), // alloc-ok: empty, never allocates
    };
    for w in workers.iter_mut() {
        w.next.clear();
    }
    // Budget state shared by the sweeps, cumulative across levels.
    let spent = AtomicUsize::new(0);
    let tripped = AtomicBool::new(false);

    if nv > 0 {
        reach(
            graph,
            reverse_adj,
            nv,
            nfa.start(),
            seed,
            &mut bound,
            scratch,
        );
    }

    let mut depth = 0usize;
    'bfs: while !scratch.frontier.is_empty() {
        if opts.control.cancelled() {
            termination = Termination::Cancelled;
            break 'bfs;
        }
        let mut i = 0;
        while i < scratch.frontier.len() {
            let (q, v) = scratch.frontier[i];
            i += 1;
            for &q2 in nfa.eps_transitions(q) {
                reach(graph, reverse_adj, nv, q2, v, &mut bound, scratch);
            }
        }
        stats.frontier_peak = stats.frontier_peak.max(scratch.frontier.len());

        for &(q, v) in &scratch.frontier {
            stats.pairs_visited += 1;
            if scratch.state_marks[q as usize] != gen {
                scratch.state_marks[q as usize] = gen;
                classes += 1;
            }
            if nfa.is_accepting(q) && scratch.answer_marks[v.index()] != gen {
                scratch.answer_marks[v.index()] = gen;
                scratch.answers.push(v);
                if stop_at == Some(v) {
                    found = true;
                    break 'bfs;
                }
            }
        }

        // At the cap no longer word can be accepted: the level was
        // answer-checked above but is never expanded, so graph edges
        // beyond the cap are not even scanned.
        if opts.depth_cap.is_some_and(|cap| depth >= cap) {
            break 'bfs;
        }

        // Price the level. Push costs exactly its frontier's row lengths
        // (read off the label index — no edge is scanned); pull's probes
        // are bounded by the remaining unreached mass. Both sweeps produce
        // the same level, so taking the cheaper keeps hybrid ≤
        // forced-sparse everywhere. A sequential search in a forced mode
        // needs no price at all.
        let hybrid = matches!(
            mode,
            FrontierMode::Hybrid | FrontierMode::HybridTuned { .. }
        );
        let mut push_cost = 0usize;
        if hybrid || dop > 1 {
            for &(q, v) in &scratch.frontier {
                for &(sym, _) in nfa.transitions(q) {
                    let row = if reverse_adj {
                        graph.rev(v, sym)
                    } else {
                        graph.out(v, sym)
                    };
                    push_cost = push_cost.saturating_add(row.len());
                }
            }
        }
        let pull_cost = sweep_cost.saturating_add(bound.remaining);
        let use_pull = match mode {
            FrontierMode::ForcedSparse => false,
            FrontierMode::ForcedDense => true,
            FrontierMode::Hybrid | FrontierMode::HybridTuned { .. } => pull_cost < push_cost,
        };
        let level_cost = if use_pull { pull_cost } else { push_cost };
        let threads = if dop > 1 && level_cost >= PAR_LEVEL_THRESHOLD {
            dop
        } else {
            1
        };
        if threads > 1 {
            stats.parallel_levels += 1;
            stats.threads_used = stats.threads_used.max(threads);
        }
        if use_pull {
            stats.pull_levels += 1;
            // Densify the frontier for O(1) membership probes; read-only
            // for the duration of the sweep.
            for &(q, v) in &scratch.frontier {
                scratch.dense.state_mut(q as usize).insert(v.index());
            }
        } else {
            stats.push_levels += 1;
        }

        let cursor = AtomicUsize::new(0);
        let claimable = if use_pull { nv } else { scratch.frontier.len() };
        let out = {
            // Disjoint field borrows: the sweep reads the frontier, marks
            // and transition tables while `next` (and the worker arenas)
            // collect the produced level.
            let ctx = LevelCtx {
                nfa,
                graph,
                reverse_adj,
                nq,
                nv,
                gen,
                bound_active: bound.active,
                seen: &scratch.seen,
                rev_trans: &scratch.rev_trans,
                rev_trans_off: &scratch.rev_trans_off,
                frontier: &scratch.frontier,
                dense: &scratch.dense,
                cursor: &cursor,
                spent: &spent,
                tripped: &tripped,
                budget: opts.control.budget,
                fair: claimable.div_ceil(threads),
            };
            run_level(&ctx, use_pull, threads, &mut workers, &mut scratch.next)
        };
        stats.edges_scanned += out.edges;
        stats.steal_count += out.steals;
        bound.debit(out.debits);
        if use_pull {
            // Leave the dense arena clean for the next level / search
            // (O(1) per untouched state thanks to the maintained counts).
            scratch.dense.clear();
        }

        if tripped.load(Ordering::Relaxed) {
            // The level is partially expanded; everything already answered
            // stays sound, the rest of the search is abandoned.
            termination = Termination::BudgetExhausted;
            scratch.next.clear();
            for w in workers.iter_mut() {
                w.next.clear();
            }
            break 'bfs;
        }

        // Level barrier: the next frontier is the concatenation of the
        // per-worker buffers.
        for w in workers.iter_mut() {
            scratch.next.append(&mut w.next);
        }
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        scratch.next.clear();
        depth += 1;
    }

    // Answers were collected sparsely during the BFS — sort instead of
    // sweeping all |V| nodes.
    scratch.answers.sort_unstable();
    stats.answers = scratch.answers.len();
    stats.classes_materialized = classes;
    let answers = std::mem::take(&mut scratch.answers);
    (EvalResult { answers, stats }, found, termination)
}

/// The node-set answer shape: evaluate `L(nfa)` from `seed` — `p(seed, I)`
/// forward, or `{o | seed ∈ p(o, I)}` with `opts.reverse_adj` and the
/// reversed automaton — by the product BFS, reading every field of
/// `opts`. Returns the (sound, possibly partial) sorted answer set and how
/// the search ended.
///
/// All working memory comes from `scratch`, which is resized/invalidated
/// here and can be reused across calls of any `(|Q|, |V|)` shape; a warm
/// scratch whose capacity covers `|Q|·|V|` makes the whole evaluation
/// allocation-free (reported via `stats.scratch_reused`).
/// `stats.edges_scanned` counts only the edges the label index delivered.
pub fn search_nodes<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    seed: Oid,
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> (EvalResult, Termination) {
    let (res, _, term) = product_search(nfa, graph, seed, None, opts, scratch);
    (res, term)
}

/// One [`search_nodes`] per seed under one shared control — the loop behind
/// every multi-item request arm ([`crate::run_request`]) and
/// [`crate::search_pairs`]. Each seed's search gets
/// whatever `opts.control.budget` has left after the seeds before it; the
/// loop stops at the first non-complete termination, so seeds not yet
/// explored report nothing — still a sound subset. `on_item` receives each
/// explored seed's index and answer set, in order.
pub(crate) fn search_nodes_each<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    seeds: &[Oid],
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
    mut on_item: impl FnMut(usize, Vec<Oid>),
) -> (EvalStats, Termination) {
    let mut stats = EvalStats::default();
    for (i, &seed) in seeds.iter().enumerate() {
        let budget = opts.control.budget;
        let item = SearchOpts {
            control: EvalControl {
                budget: budget.map(|b| b.saturating_sub(stats.edges_scanned)),
                cancel: opts.control.cancel,
            },
            ..*opts
        };
        let (res, term) = search_nodes(nfa, graph, seed, &item, scratch);
        stats.merge(&res.stats);
        on_item(i, res.answers);
        if !term.is_complete() {
            return (stats, term);
        }
    }
    (stats, Termination::Complete)
}

/// `p(source, I)` over a label-indexed snapshot with default
/// [`SearchOpts`] and a fresh arena — the one-line form the paper-example
/// tests spell. Generic over any [`GraphView`]: the `_csr` suffix names
/// the canonical snapshot form, but the same search runs unchanged over a
/// `rpq_graph::DeltaGraph` overlay.
pub fn eval_product_csr<G: GraphView>(nfa: &Nfa, graph: &G, source: Oid) -> EvalResult {
    search_nodes(
        nfa,
        graph,
        source,
        &SearchOpts::default(),
        &mut EvalScratch::new(),
    )
    .0
}

/// Evaluate `L(nfa)` from `source` over `instance`.
///
/// Compatibility wrapper: snapshots the instance into a [`CsrGraph`] and
/// runs [`eval_product_csr`]. Callers evaluating many queries over one
/// graph should build the snapshot once and use the CSR entry point (or the
/// `Engine` trait) directly.
pub fn eval_product(nfa: &Nfa, instance: &Instance, source: Oid) -> EvalResult {
    eval_product_csr(nfa, &CsrGraph::from(instance), source)
}

/// The original scan-and-filter product search, kept as the baseline the
/// label index is measured against: for every pair and every automaton
/// transition it scans the node's *entire* out-edge list and filters by
/// label, so `stats.edges_scanned` grows with `outdegree × fanout`.
pub fn eval_product_scan(nfa: &Nfa, instance: &Instance, source: Oid) -> EvalResult {
    fn push_scan(
        q: StateId,
        v: Oid,
        nv: usize,
        seen: &mut [bool],
        queue: &mut Vec<(StateId, Oid)>,
    ) {
        let idx = q as usize * nv + v.index();
        if !seen[idx] {
            seen[idx] = true;
            queue.push((q, v));
        }
    }

    let nq = nfa.num_states();
    let nv = instance.num_nodes();
    let mut seen = vec![false; nq * nv]; // alloc-ok: scan baseline, measured against — not a hot path
    let mut answer = vec![false; nv]; // alloc-ok: scan baseline
    let mut state_touched = vec![false; nq]; // alloc-ok: scan baseline
    let mut stats = EvalStats::default();

    let mut queue: Vec<(StateId, Oid)> = Vec::new(); // alloc-ok: scan baseline
    push_scan(nfa.start(), source, nv, &mut seen, &mut queue);
    while let Some((q, v)) = queue.pop() {
        stats.pairs_visited += 1;
        state_touched[q as usize] = true;
        if nfa.is_accepting(q) {
            answer[v.index()] = true;
        }
        for &q2 in nfa.eps_transitions(q) {
            push_scan(q2, v, nv, &mut seen, &mut queue);
        }
        for &(sym, q2) in nfa.transitions(q) {
            for &(label, v2) in instance.out_edges(v) {
                stats.edges_scanned += 1;
                if label == sym {
                    push_scan(q2, v2, nv, &mut seen, &mut queue);
                }
            }
        }
    }

    let classes = state_touched.iter().filter(|&&t| t).count();
    finish_eval(&answer, classes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::InstanceBuilder;

    /// `p(seed, I)` (or, `reverse`d, `{o | seed ∈ p(o, I)}` — reversing
    /// the automaton here) with an optional depth cap.
    fn search(
        nfa: &Nfa,
        graph: &CsrGraph,
        seed: Oid,
        reverse: bool,
        cap: Option<usize>,
    ) -> EvalResult {
        let opts = SearchOpts {
            reverse_adj: reverse,
            depth_cap: cap,
            ..SearchOpts::default()
        };
        let auto = if reverse { nfa.reverse() } else { nfa.clone() };
        search_nodes(&auto, graph, seed, &opts, &mut EvalScratch::new()).0
    }

    fn eval(query: &str, edges: &[(&str, &str, &str)], src: &str) -> (Vec<String>, EvalStats) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for &(f, l, t) in edges {
            b.edge(f, l, t);
        }
        let (inst, names) = b.finish();
        let r = parse_regex(&mut ab, query).unwrap();
        let res = eval_product(&Nfa::thompson(&r), &inst, names[src]);
        let scan = eval_product_scan(&Nfa::thompson(&r), &inst, names[src]);
        assert_eq!(res.answers, scan.answers, "csr vs scan baseline on {query}");
        let mut out: Vec<String> = res.answers.iter().map(|&o| inst.node_name(o)).collect();
        out.sort();
        (out, res.stats)
    }

    #[test]
    fn fig2_query_ab_star() {
        let edges = [("o1", "a", "o2"), ("o2", "b", "o3"), ("o3", "b", "o2")];
        let (ans, stats) = eval("a.b*", &edges, "o1");
        assert_eq!(ans, vec!["o2", "o3"]);
        assert_eq!(stats.answers, 2);
    }

    #[test]
    fn epsilon_query_returns_source() {
        let edges = [("s", "a", "x")];
        let (ans, _) = eval("()", &edges, "s");
        assert_eq!(ans, vec!["s"]);
        let (ans, _) = eval("a*", &edges, "s");
        assert_eq!(ans, vec!["s", "x"]);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let edges = [("s", "a", "x")];
        let (ans, _) = eval("[]", &edges, "s");
        assert!(ans.is_empty());
    }

    #[test]
    fn union_and_concat() {
        let edges = [
            ("s", "a", "x"),
            ("s", "b", "y"),
            ("x", "c", "z"),
            ("y", "c", "w"),
        ];
        let (ans, _) = eval("(a+b).c", &edges, "s");
        assert_eq!(ans, vec!["w", "z"]);
    }

    #[test]
    fn cycles_terminate() {
        let edges = [("s", "a", "s")];
        let (ans, stats) = eval("a*", &edges, "s");
        assert_eq!(ans, vec!["s"]);
        // pair space is finite even though the language is infinite
        assert!(stats.pairs_visited < 20);
    }

    #[test]
    fn unreachable_labels_are_ignored() {
        let edges = [("s", "a", "x"), ("q", "b", "r")];
        let (ans, _) = eval("a.b", &edges, "s");
        assert!(ans.is_empty());
        let (ans, _) = eval("a", &edges, "s");
        assert_eq!(ans, vec!["x"]);
    }

    #[test]
    fn diamond_dedups_answers() {
        let edges = [
            ("s", "a", "x"),
            ("s", "a", "y"),
            ("x", "b", "t"),
            ("y", "b", "t"),
        ];
        let (ans, _) = eval("a.b", &edges, "s");
        assert_eq!(ans, vec!["t"]);
    }

    #[test]
    fn nested_stars() {
        let edges = [("s", "a", "x"), ("x", "b", "s"), ("x", "c", "t")];
        let (ans, _) = eval("(a.b)*.a.c", &edges, "s");
        assert_eq!(ans, vec!["t"]);
        let (ans, _) = eval("(a.b)*", &edges, "s");
        assert_eq!(ans, vec!["s"]);
    }

    #[test]
    fn bfs_levels_are_word_lengths() {
        // a chain: the pair (state, n_k) is first reached at level k, so
        // pairs_visited equals the number of distinct reachable pairs and
        // every node is answered despite the single pass per level.
        let edges = [
            ("n0", "a", "n1"),
            ("n1", "a", "n2"),
            ("n2", "a", "n3"),
            ("n3", "a", "n4"),
        ];
        let (ans, _) = eval("a*", &edges, "n0");
        assert_eq!(ans, vec!["n0", "n1", "n2", "n3", "n4"]);
    }

    #[test]
    fn backward_is_the_transpose_of_forward() {
        // t ∈ p(s, I)  ⟺  s ∈ backward(t): check the full relation on a
        // graph with cycles, a diamond, and an ε-accepting query.
        let edges = [
            ("o1", "a", "o2"),
            ("o2", "b", "o3"),
            ("o3", "b", "o2"),
            ("o1", "b", "o3"),
            ("o3", "a", "o1"),
        ];
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for &(f, l, t) in &edges {
            b.edge(f, l, t);
        }
        let (inst, _) = b.finish();
        let csr = CsrGraph::from(&inst);
        for qs in ["a.b*", "(a+b)*", "b.b", "()", "[]", "(a.b)*.a"] {
            let r = parse_regex(&mut ab, qs).unwrap();
            let nfa = Nfa::thompson(&r);
            let forward: Vec<Vec<Oid>> = csr
                .nodes()
                .map(|s| eval_product_csr(&nfa, &csr, s).answers)
                .collect();
            for t in csr.nodes() {
                let backward = search(&nfa, &csr, t, true, None).answers;
                for s in csr.nodes() {
                    assert_eq!(
                        forward[s.index()].contains(&t),
                        backward.contains(&s),
                        "{qs}: {s:?} -> {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn backward_scans_fewer_edges_when_last_label_is_rare() {
        // hub fans out 50 hot edges; exactly one cold edge enters t. The
        // query hot.cold evaluated backward from t starts on the rare label.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..50 {
            b.edge("hub", "hot", &format!("h{i}"));
        }
        b.edge("h0", "cold", "t");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let q = parse_regex(&mut ab, "hot.cold").unwrap();
        let nfa = Nfa::thompson(&q);
        let fwd = eval_product_csr(&nfa, &csr, names["hub"]);
        let bwd = search(&nfa, &csr, names["t"], true, None);
        assert_eq!(fwd.answers, vec![names["t"]]);
        assert_eq!(bwd.answers, vec![names["hub"]]);
        assert!(
            bwd.stats.edges_scanned * 10 < fwd.stats.edges_scanned,
            "backward {} vs forward {}",
            bwd.stats.edges_scanned,
            fwd.stats.edges_scanned
        );
    }

    #[test]
    fn bounded_search_is_exact_at_the_word_length_cap() {
        // cyclic graph, finite query a.a + a.b (longest word: 2). The cap
        // stops the BFS at depth 2 without losing answers, and scans
        // strictly fewer edges than the uncapped search on the cycle.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("x", "a", "s");
        b.edge("x", "b", "t");
        b.edge("t", "a", "s");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let r = parse_regex(&mut ab, "a.a + a.b").unwrap();
        let nfa = Nfa::thompson(&r);
        assert_eq!(nfa.longest_accepted_len(), Some(2));
        let full = eval_product_csr(&nfa, &csr, names["s"]);
        let capped = search(&nfa, &csr, names["s"], false, Some(2));
        assert_eq!(capped.answers, full.answers);
        // a cap below the longest word is allowed but incomplete — the
        // planner never does this; documented here as the contract edge
        let short = search(&nfa, &csr, names["s"], false, Some(1));
        assert!(short.answers.len() <= full.answers.len());
        // backward form agrees with the uncapped backward search
        let bwd_full = search(&nfa, &csr, names["t"], true, None);
        let bwd_capped = search(&nfa, &csr, names["t"], true, Some(2));
        assert_eq!(bwd_capped.answers, bwd_full.answers);
    }

    #[test]
    fn label_index_scans_fewer_edges_on_skew() {
        // one hub with many hot-label edges; the query follows the cold label
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..50 {
            b.edge("hub", "hot", &format!("h{i}"));
        }
        b.edge("hub", "cold", "t");
        let (inst, names) = b.finish();
        let q = parse_regex(&mut ab, "cold").unwrap();
        let nfa = Nfa::thompson(&q);
        let csr = eval_product_csr(&nfa, &CsrGraph::from(&inst), names["hub"]);
        let scan = eval_product_scan(&nfa, &inst, names["hub"]);
        assert_eq!(csr.answers, scan.answers);
        assert!(
            csr.stats.edges_scanned * 10 < scan.stats.edges_scanned,
            "label index {} vs scan {}",
            csr.stats.edges_scanned,
            scan.stats.edges_scanned
        );
    }

    fn web(n: usize) -> (CsrGraph, Oid, Nfa) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..n {
            b.edge(&format!("n{i}"), "a", &format!("n{}", (i * 7 + 1) % n));
            b.edge(&format!("n{i}"), "b", &format!("n{}", (i * 13 + 5) % n));
            if i % 3 == 0 {
                b.edge(&format!("n{i}"), "c", &format!("n{}", (i * 31 + 2) % n));
            }
        }
        let (inst, names) = b.finish();
        let r = parse_regex(&mut ab, "(a+b+c)*").unwrap();
        (CsrGraph::from(&inst), names["n0"], Nfa::thompson(&r))
    }

    #[test]
    fn parallel_agrees_with_sequential_on_broad_closure() {
        let (graph, src, nfa) = web(400);
        let seq = eval_product_csr(&nfa, &graph, src);
        for dop in [1, 2, 4] {
            let pool = ScratchPool::new();
            let opts = SearchOpts {
                dop,
                pool: Some(&pool),
                ..SearchOpts::default()
            };
            let (res, term) = search_nodes(&nfa, &graph, src, &opts, &mut EvalScratch::new());
            assert_eq!(term, Termination::Complete);
            assert_eq!(res.answers, seq.answers, "dop={dop}");
            assert_eq!(
                res.stats.edges_scanned, seq.stats.edges_scanned,
                "dop={dop}"
            );
        }
    }

    #[test]
    fn parallel_budget_is_a_sound_subset() {
        let (graph, src, nfa) = web(200);
        let full = eval_product_csr(&nfa, &graph, src);
        for budget in [0usize, 1, 17, 150, 100_000] {
            let pool = ScratchPool::new();
            let opts = SearchOpts {
                control: EvalControl {
                    budget: Some(budget),
                    cancel: None,
                },
                dop: 4,
                pool: Some(&pool),
                ..SearchOpts::default()
            };
            let (res, term) = search_nodes(&nfa, &graph, src, &opts, &mut EvalScratch::new());
            assert!(res.stats.edges_scanned <= budget, "budget={budget}");
            for o in &res.answers {
                assert!(full.answers.binary_search(o).is_ok(), "unsound answer");
            }
            if term == Termination::Complete {
                assert_eq!(res.answers, full.answers);
            }
            // the sequential search under the same budget also stays within it
            let (seq, _) = search_nodes(
                &nfa,
                &graph,
                src,
                &opts.sequential(),
                &mut EvalScratch::new(),
            );
            assert!(seq.stats.edges_scanned <= budget);
        }
    }

    #[test]
    fn forced_modes_agree_in_parallel() {
        let (graph, src, nfa) = web(150);
        let seq = eval_product_csr(&nfa, &graph, src);
        for mode in [
            FrontierMode::ForcedSparse,
            FrontierMode::ForcedDense,
            FrontierMode::hybrid_with_discount(64),
        ] {
            let pool = ScratchPool::new();
            let opts = SearchOpts {
                mode,
                dop: 3,
                pool: Some(&pool),
                ..SearchOpts::default()
            };
            let (res, _) = search_nodes(&nfa, &graph, src, &opts, &mut EvalScratch::new());
            assert_eq!(res.answers, seq.answers, "{mode:?}");
        }
    }
}
