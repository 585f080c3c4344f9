//! Reusable evaluation scratch: generation-stamped mark tables, frontier
//! buffers, and a checkout pool — the zero-allocation backbone of the
//! serving hot path.
//!
//! Every product-BFS entry point needs an O(|Q|·|V|) `seen` table, an
//! O(|V|) answer table, and a handful of frontier buffers. Allocating and
//! zeroing them per query dominates small queries on the million-query
//! serving workload, so this module factors all of it into one
//! [`EvalScratch`] arena that is
//!
//! * **generation-stamped** — the mark tables store a `u32` generation
//!   instead of a `bool`, so "reset everything" is one counter bump
//!   (`EvalScratch::begin`) rather than an `O(|Q|·|V|)` `fill(false)`;
//! * **capacity-retaining** — buffers only ever grow, so a warm scratch
//!   serves any query whose `(|Q|, |V|)` shape fits without touching the
//!   allocator;
//! * **poolable** — a [`ScratchPool`] hands out warm arenas across threads
//!   (`rpq_optimizer::PlannedEngine` and the distributed batch engine both
//!   keep one), returning them on drop of the [`PooledScratch`] guard.
//!
//! The `EvalStats::scratch_reused` counter reports, per evaluation, whether
//! the arena's capacity already covered the query shape (1) or had to grow
//! (0) — the observable currency of the "zero allocations after warm-up"
//! claim, asserted by bench `t15_hot_path`.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use parking_lot::Mutex;
use rpq_automata::{Nfa, StateId, Symbol};
use rpq_graph::{FrontierArena, Oid};

/// Default upper bound on arenas parked in a [`ScratchPool`]; checkouts
/// beyond the bound under contention allocate fresh arenas that are dropped
/// on return. Engines configured for intra-query parallelism scale the
/// bound up with [`ScratchPool::with_capacity`] — a pool smaller than
/// `workers × concurrent queries` thrashes (every checkout past the bound
/// is a cold alloc).
const MAX_POOLED: usize = 8;

/// Reusable per-evaluation working memory for the product BFS (every
/// answer shape runs on the one driver). See the module docs for the
/// design; obtain one with
/// [`EvalScratch::new`] or from a [`ScratchPool`].
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Current mark generation; a mark-table cell is "set" iff it equals
    /// this. Bumped once per `EvalScratch::begin`.
    gen: u32,
    /// The one (state, node) mark table, indexed `q * nv + v` with the
    /// *current* query's `nv` (stale marks from other geometries are just
    /// stale generations). Atomic so the workers of a fanned-out BFS level
    /// can claim pairs with one `swap(gen)`; a level running inline uses
    /// relaxed loads and stores, which compile to plain moves.
    pub(crate) seen: Vec<AtomicU32>,
    /// Per-node answer marks (generation-stamped).
    pub(crate) answer_marks: Vec<u32>,
    /// Per-state touched marks (generation-stamped) — feeds
    /// `classes_materialized`.
    pub(crate) state_marks: Vec<u32>,
    /// Sparse frontier of the current BFS level.
    pub(crate) frontier: Vec<(StateId, Oid)>,
    /// Sparse frontier of the next BFS level.
    pub(crate) next: Vec<(StateId, Oid)>,
    /// Answers collected sparsely during the BFS (sorted at finish), so no
    /// O(|V|) sweep is needed to produce the result.
    pub(crate) answers: Vec<Oid>,
    /// Dense per-state node sets: the pull step's frontier bitmap.
    pub(crate) dense: FrontierArena,
    /// Reversed-NFA transition table for the pull step, flattened: segment
    /// `rev_trans_off[q2]..rev_trans_off[q2 + 1]` lists the `(symbol,
    /// source-state)` pairs with a `source --symbol--> q2` transition,
    /// sorted by symbol for the merge-join against a node's label groups.
    pub(crate) rev_trans: Vec<(Symbol, StateId)>,
    /// Segment offsets into `rev_trans`, length `nq + 1`.
    pub(crate) rev_trans_off: Vec<usize>,
    /// Cursor buffer for the counting-sort build of `rev_trans`.
    rev_cursor: Vec<usize>,
    /// ε-closure worklist of [`crate::seed_candidates`].
    pub(crate) worklist: Vec<(StateId, usize)>,
    /// Capacity of the mark tables and the dense arena.
    cap_nq: usize,
    /// Capacity of the mark tables and the dense arena.
    cap_nv: usize,
}

impl EvalScratch {
    /// An empty arena; the first `EvalScratch::begin` sizes it.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Does the capacity already cover a `(states, nodes)` query shape?
    /// When true, `EvalScratch::begin` for that shape performs no
    /// allocation.
    pub fn covers(&self, nq: usize, nv: usize) -> bool {
        nq <= self.cap_nq && nv <= self.cap_nv
    }

    /// The current mark generation (valid between `begin` and the next
    /// `begin`).
    #[inline]
    pub(crate) fn generation(&self) -> u32 {
        self.gen
    }

    /// Start a fresh search over a `(nq, nv)` shape: grow the buffers if
    /// needed, invalidate all marks by bumping the
    /// generation, and clear the sparse buffers. Returns `true` when the
    /// existing capacity already covered the shape — i.e. this call touched
    /// no allocator (the `scratch_reused` signal).
    pub(crate) fn begin(&mut self, nq: usize, nv: usize) -> bool {
        let covered = self.covers(nq, nv);
        if !covered {
            self.grow(nq, nv);
        }
        self.bump_gen();
        self.frontier.clear();
        self.next.clear();
        self.answers.clear();
        // The dense arena is cleared after each pull level, so this is an
        // O(states) no-op unless a search was abandoned mid-way.
        self.dense.clear();
        covered
    }

    fn grow(&mut self, nq: usize, nv: usize) {
        let new_nq = nq.max(self.cap_nq);
        let new_nv = nv.max(self.cap_nv);
        // Fresh tables start at generation 0 with all marks 0: never "set",
        // because the generation is bumped to >= 1 before any use.
        self.seen.clear();
        self.seen.resize_with(new_nq * new_nv, || AtomicU32::new(0));
        self.answer_marks.clear();
        self.answer_marks.resize(new_nv, 0);
        self.state_marks.clear();
        self.state_marks.resize(new_nq, 0);
        self.dense = FrontierArena::new(new_nq, new_nv);
        self.gen = 0;
        self.cap_nq = new_nq;
        self.cap_nv = new_nv;
    }

    fn bump_gen(&mut self) {
        if self.gen == u32::MAX {
            // Generation wrap (once per 2^32 - 1 evaluations): zero every
            // mark so stale cells cannot collide with the restarted counter.
            for cell in &mut self.seen {
                *cell.get_mut() = 0;
            }
            self.answer_marks.fill(0);
            self.state_marks.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// Build the reversed transition table for `nfa` into
    /// `rev_trans`/`rev_trans_off` (counting sort, then an in-place
    /// per-segment sort by symbol). Allocation-free once the buffers are
    /// warm.
    pub(crate) fn build_rev_trans(&mut self, nfa: &Nfa) {
        let nq = nfa.num_states();
        self.rev_trans_off.clear();
        self.rev_trans_off.resize(nq + 1, 0);
        for q in 0..nq {
            for &(_, q2) in nfa.transitions(q as StateId) {
                self.rev_trans_off[q2 as usize + 1] += 1;
            }
        }
        for i in 0..nq {
            self.rev_trans_off[i + 1] += self.rev_trans_off[i];
        }
        self.rev_trans.clear();
        self.rev_trans
            .resize(self.rev_trans_off[nq], (Symbol::from_index(0), 0));
        self.rev_cursor.clear();
        self.rev_cursor.extend_from_slice(&self.rev_trans_off[..nq]);
        for q in 0..nq {
            for &(sym, q2) in nfa.transitions(q as StateId) {
                let slot = self.rev_cursor[q2 as usize];
                self.rev_trans[slot] = (sym, q as StateId);
                self.rev_cursor[q2 as usize] += 1;
            }
        }
        for q2 in 0..nq {
            let (lo, hi) = (self.rev_trans_off[q2], self.rev_trans_off[q2 + 1]);
            self.rev_trans[lo..hi].sort_unstable_by_key(|&(sym, _)| sym);
        }
    }
}

/// A thread-safe pool of warm [`EvalScratch`] arenas. Engines that serve
/// repeated queries ([`crate::Engine`] implementors with a hot path) check
/// an arena out per evaluation and return it on drop; after warm-up every
/// checkout reuses retained capacity, so the BFS inner loops never touch
/// the allocator.
#[derive(Debug)]
pub struct ScratchPool {
    pool: Mutex<Vec<EvalScratch>>,
    max_pooled: usize,
    reuses: AtomicUsize,
    allocs: AtomicUsize,
}

impl Default for ScratchPool {
    fn default() -> ScratchPool {
        ScratchPool::with_capacity(MAX_POOLED)
    }
}

impl ScratchPool {
    /// An empty pool with the default parking bound.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// An empty pool that parks up to `capacity` warm arenas. Engines
    /// running the frontier-parallel kernels size this as
    /// `workers × expected concurrency` (never below the default bound):
    /// every parallel worker checks out its own arena, so a pool sized for
    /// sequential serving thrashes the moment big queries fan out.
    pub fn with_capacity(capacity: usize) -> ScratchPool {
        ScratchPool {
            pool: Mutex::new(Vec::new()),
            max_pooled: capacity.max(1),
            reuses: AtomicUsize::new(0),
            allocs: AtomicUsize::new(0),
        }
    }

    /// The most arenas this pool will park.
    pub fn capacity(&self) -> usize {
        self.max_pooled
    }

    /// Check out an arena: a warm one if the pool has any, a fresh empty
    /// one otherwise. The returned guard derefs to [`EvalScratch`] and
    /// returns the arena to the pool when dropped.
    pub fn checkout(&self) -> PooledScratch<'_> {
        let warm = self.pool.lock().pop();
        match warm {
            Some(inner) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                PooledScratch { inner, pool: self }
            }
            None => {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                PooledScratch {
                    inner: EvalScratch::new(),
                    pool: self,
                }
            }
        }
    }

    /// Checkouts that popped a warm arena.
    pub fn reuses(&self) -> usize {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Checkouts that had to construct a fresh arena (pool empty).
    pub fn allocs(&self) -> usize {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Arenas currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.pool.lock().len()
    }

    fn put(&self, scratch: EvalScratch) {
        let mut pool = self.pool.lock();
        if pool.len() < self.max_pooled {
            pool.push(scratch);
        }
    }
}

/// Checkout guard for a pooled [`EvalScratch`]; derefs to the arena and
/// returns it to the [`ScratchPool`] on drop.
#[derive(Debug)]
pub struct PooledScratch<'a> {
    inner: EvalScratch,
    pool: &'a ScratchPool,
}

impl Deref for PooledScratch<'_> {
    type Target = EvalScratch;

    fn deref(&self) -> &EvalScratch {
        &self.inner
    }
}

impl DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut EvalScratch {
        &mut self.inner
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.inner));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_reports_reuse_only_when_capacity_covers() {
        let mut s = EvalScratch::new();
        assert!(!s.begin(3, 10), "cold scratch must grow");
        assert!(s.begin(3, 10), "warm scratch with the same shape reuses");
        assert!(s.begin(2, 4), "smaller shapes fit in retained capacity");
        assert!(!s.begin(5, 10), "more states than capacity must grow");
        assert!(s.begin(5, 10));
        assert!(s.covers(4, 10) && !s.covers(6, 10));
    }

    #[test]
    fn generations_invalidate_marks_without_clearing() {
        let mut s = EvalScratch::new();
        s.begin(2, 8);
        let g = s.generation();
        *s.seen[3].get_mut() = g;
        s.begin(2, 8);
        let mark = *s.seen[3].get_mut();
        assert_ne!(mark, s.generation(), "old marks are stale, not set");
    }

    #[test]
    fn generation_wrap_rezeros_marks() {
        let mut s = EvalScratch::new();
        s.begin(1, 4);
        s.gen = u32::MAX - 1;
        s.bump_gen();
        let g = s.generation();
        *s.seen[0].get_mut() = g;
        s.bump_gen(); // wraps: marks zeroed, gen restarts at 1
        assert_eq!(s.generation(), 1);
        assert_eq!(*s.seen[0].get_mut(), 0);
    }

    #[test]
    fn pool_round_trips_and_counts() {
        let pool = ScratchPool::new();
        {
            let mut a = pool.checkout();
            a.begin(4, 16);
        }
        assert_eq!(pool.allocs(), 1);
        assert_eq!(pool.idle(), 1);
        {
            let b = pool.checkout();
            assert!(b.covers(4, 16), "the warm arena came back");
        }
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn rev_trans_segments_are_sorted_by_symbol() {
        use rpq_automata::{parse_regex, Alphabet};
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "(a+b).c").unwrap();
        let nfa = Nfa::thompson(&r);
        let mut s = EvalScratch::new();
        s.build_rev_trans(&nfa);
        let nq = nfa.num_states();
        assert_eq!(s.rev_trans_off.len(), nq + 1);
        let total: usize = (0..nq).map(|q| nfa.transitions(q as StateId).len()).sum();
        assert_eq!(s.rev_trans.len(), total);
        // every segment sorted by symbol, and every entry mirrors a real
        // forward transition
        for q2 in 0..nq {
            let seg = &s.rev_trans[s.rev_trans_off[q2]..s.rev_trans_off[q2 + 1]];
            assert!(seg.windows(2).all(|w| w[0].0 <= w[1].0), "segment sorted");
            for &(sym, q) in seg {
                assert!(nfa.transitions(q).contains(&(sym, q2 as StateId)));
            }
        }
    }
}
