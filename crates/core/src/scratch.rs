//! Reusable evaluation scratch: the node-major state-mask table, the
//! per-automaton mask tables, frontier buffers, and a checkout pool — the
//! zero-allocation backbone of the serving hot path.
//!
//! The product BFS "carries along the set of states" (§2.2) per object, and
//! the arena stores it that way: **one cell per node holding the set of
//! automaton states reached there**, as a bit mask. A cell is one `u64` —
//! the mark generation in the high half, 32 state bits (`WORD_STATES`) in the
//! low half — and an automaton wider than one word uses
//! `⌈|Q| / WORD_STATES⌉` consecutive cells per node, so the table is
//! `|V| · 8 B` per word whatever `|Q|` is, an edge marks all its successor
//! states with one load/or/store, and the states of one node share a cache
//! line. Allocating and zeroing that table per query would dominate small
//! queries, so one [`EvalScratch`] arena is
//!
//! * **generation-stamped** — a cell whose high half is not the current
//!   generation holds nothing, so "reset everything" is one counter bump
//!   (`EvalScratch::reset`) rather than an `O(|V|)` fill;
//! * **capacity-retaining** — buffers only ever grow, so a warm scratch
//!   serves any query whose `(|Q|, |V|)` shape fits without touching the
//!   allocator, and cells written under another geometry are just stale
//!   generations;
//! * **poolable** — a [`ScratchPool`] hands out warm arenas across threads
//!   (`rpq_optimizer::PlannedEngine` and the distributed batch engine both
//!   keep one, one arena per query running), returning them on drop of the
//!   [`PooledScratch`] guard.
//!
//! The table is also the search's answer set: a node is an answer exactly
//! when its cell meets the accepting mask, so the arena keeps no second
//! per-node array for answers. The search reads them off the table once it
//! is over (or, when it stopped part-way, off its log of reached entries).
//!
//! What the search needs to know about the automaton — ε-closed successor
//! masks, transitions grouped by symbol, the accepting mask — is compiled
//! into `MaskTables` by `EvalScratch::compile`, into buffers the arena
//! keeps, once per request: a request that runs one search per seed
//! compiles its automaton once and resets the marks per seed
//! (`EvalScratch::reset`), so neither costs an allocation per search.
//!
//! The `EvalStats::scratch_reused` counter reports, per evaluation, whether
//! the arena's capacity already covered the query shape (1) or had to grow
//! (0) — the observable currency of the "zero allocations after warm-up"
//! claim, asserted by bench `t15_hot_path`.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use rpq_automata::{Nfa, StateId, Symbol};
use rpq_graph::Oid;

/// Upper bound on arenas parked in a [`ScratchPool`]; checkouts beyond the
/// bound under contention allocate fresh arenas that are dropped on return.
/// A query holds one arena, so the bound is the number of queries that can
/// run at once before a checkout goes cold.
const MAX_POOLED: usize = 8;

/// Automaton states per mask word: the low half of a cell.
pub(crate) const WORD_STATES: usize = 32;

/// Mask words per node for an automaton of `nq` states.
fn words_for(nq: usize) -> usize {
    nq.div_ceil(WORD_STATES).max(1)
}

/// The mask word and bit of state `q`.
#[inline]
fn word_bit(q: StateId) -> (usize, u32) {
    (q as usize / WORD_STATES, 1 << (q as usize % WORD_STATES))
}

/// OR `bits` of mask word `word` into the sparse mask `list[from..]`.
fn or_into(list: &mut Vec<(u32, u32)>, from: usize, word: u32, bits: u32) {
    match list[from..].iter_mut().find(|(w, _)| *w == word) {
        Some((_, have)) => *have |= bits,
        None => list.push((word, bits)),
    }
}

/// OR a mask given word by word into the sparse mask `list[from..]`.
fn or_words_into(mask: &[u32], list: &mut Vec<(u32, u32)>, from: usize) {
    for (word, &bits) in mask.iter().enumerate() {
        if bits != 0 {
            or_into(list, from, word as u32, bits);
        }
    }
}

/// One frontier entry: the states of mask word `word` *newly* reached at
/// `node`. A level may hold several entries for one node (disjoint bits);
/// its pairs are the set bits of its entries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Entry {
    pub(crate) node: Oid,
    pub(crate) word: u32,
    pub(crate) bits: u32,
}

/// The mark table as one search sees it: `words` cells per node, set iff
/// stamped with `gen`.
pub(crate) struct Cells<'a> {
    cells: &'a mut [u64],
    words: usize,
    gen: u32,
}

impl<'a> Cells<'a> {
    /// `table` read as `words` cells per node, under generation `gen`.
    pub(crate) fn new(table: &'a mut [u64], words: usize, gen: u32) -> Cells<'a> {
        Cells {
            cells: table,
            words,
            gen,
        }
    }

    /// The states of mask word `word` reached at node `v` so far.
    #[cfg(test)]
    fn reached(&self, v: usize, word: usize) -> u32 {
        self.unpack(self.cells[v * self.words + word])
    }

    /// Do the states reached at node `v` meet `accepting` (one mask per
    /// word)? Then `v` is an answer of the search that marked them.
    #[inline]
    pub(crate) fn accepts(&self, v: usize, accepting: &[u32]) -> bool {
        let row = &self.cells[v * self.words..(v + 1) * self.words];
        row.iter()
            .zip(accepting)
            .any(|(&cell, &acc)| self.unpack(cell) & acc != 0)
    }

    #[inline]
    fn unpack(&self, cell: u64) -> u32 {
        if (cell >> 32) as u32 == self.gen {
            cell as u32
        } else {
            0
        }
    }

    /// What marking `bits` makes of a cell that holds `old`: the cell to
    /// store and the bits it newly reaches — `None` when it reaches
    /// nothing new, and the cell is left alone.
    #[inline]
    fn marked(&self, old: u64, bits: u32) -> Option<(u64, u32)> {
        let have = self.unpack(old);
        let new = bits & !have;
        (new != 0).then(|| (u64::from(self.gen) << 32 | u64::from(have | bits), new))
    }

    /// Mark `bits` of mask word `word` reached at `v`; returns the bits
    /// this call was the first to reach. One load, an `or` and a store;
    /// a mask that adds nothing costs the load and no write at all.
    #[inline]
    pub(crate) fn mark(&mut self, v: usize, word: usize, bits: u32) -> u32 {
        let i = v * self.words + word;
        match self.marked(self.cells[i], bits) {
            Some((stamped, new)) => {
                self.cells[i] = stamped;
                new
            }
            None => 0,
        }
    }
}

/// The labeled transitions leaving the states of one mask word on one
/// symbol — what a frontier entry expands by: one row lookup and one walk
/// per group, whatever number of the entry's states take part.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Group {
    pub(crate) sym: Symbol,
    /// The states of the word with a transition on `sym`.
    pub(crate) sources: u32,
    /// Index of the first of the group's arms (one per source, ascending).
    arms: usize,
}

/// One source state's share of a [`Group`].
#[derive(Copy, Clone, Debug)]
struct Arm {
    /// Transitions of the source on the group's symbol.
    mult: usize,
    /// Range of `MaskTables::succ` holding the ε-closure of their targets.
    succ: (usize, usize),
}

/// What the product search reads of the automaton, compiled once per
/// request into retained buffers: ε-moves become ε-closed successor masks
/// here, so the search itself never follows one.
#[derive(Debug, Default)]
pub(crate) struct MaskTables {
    /// Mask words per node.
    pub(crate) words: usize,
    /// The automaton's start state.
    start: StateId,
    /// ε-closure of every state (itself included), `words` words each.
    closure: Vec<u32>,
    /// The accepting states, per word.
    pub(crate) accepting: Vec<u32>,
    /// Every [`Group`], sorted by (source word, symbol).
    groups: Vec<Group>,
    /// Word `w`'s groups are `groups[group_off[w]..group_off[w + 1]]`.
    group_off: Vec<usize>,
    arms: Vec<Arm>,
    /// Sparse masks: `(word, bits)` runs addressed by [`Arm::succ`].
    succ: Vec<(u32, u32)>,
    /// Build buffers: transitions as `(word, symbol, source, target)` and
    /// the ε-closure stack.
    sorted: Vec<(usize, Symbol, StateId, StateId)>,
    stack: Vec<StateId>,
}

impl MaskTables {
    fn build(&mut self, nfa: &Nfa) {
        let nq = nfa.num_states();
        let words = words_for(nq);
        self.words = words;
        self.start = nfa.start();

        self.closure.clear();
        self.closure.resize(nq * words, 0);
        self.accepting.clear();
        self.accepting.resize(words, 0);
        self.sorted.clear();
        for q in 0..nq as StateId {
            let (w, bit) = word_bit(q);
            let row = q as usize * words;
            self.closure[row + w] |= bit;
            self.stack.clear();
            self.stack.push(q);
            while let Some(s) = self.stack.pop() {
                for &t in nfa.eps_transitions(s) {
                    let (tw, tbit) = word_bit(t);
                    if self.closure[row + tw] & tbit == 0 {
                        self.closure[row + tw] |= tbit;
                        self.stack.push(t);
                    }
                }
            }
            if nfa.is_accepting(q) {
                self.accepting[w] |= bit;
            }
            for &(sym, q2) in nfa.transitions(q) {
                self.sorted.push((w, sym, q, q2));
            }
        }
        self.sorted.sort_unstable();

        self.groups.clear();
        self.arms.clear();
        self.succ.clear();
        self.group_off.clear();
        self.group_off.resize(words + 1, 0);
        let mut i = 0;
        while i < self.sorted.len() {
            let (w, sym, ..) = self.sorted[i];
            let mut group = Group {
                sym,
                sources: 0,
                arms: self.arms.len(),
            };
            while i < self.sorted.len() && (self.sorted[i].0, self.sorted[i].1) == (w, sym) {
                let q = self.sorted[i].2;
                let from = self.succ.len();
                let mut mult = 0;
                while i < self.sorted.len() && self.sorted[i].2 == q && self.sorted[i].1 == sym {
                    let row = self.sorted[i].3 as usize * words;
                    or_words_into(&self.closure[row..row + words], &mut self.succ, from);
                    mult += 1;
                    i += 1;
                }
                group.sources |= word_bit(q).1;
                self.arms.push(Arm {
                    mult,
                    succ: (from, self.succ.len()),
                });
            }
            self.groups.push(group);
            self.group_off[w + 1] = self.groups.len();
        }
        for w in 0..words {
            self.group_off[w + 1] = self.group_off[w + 1].max(self.group_off[w]);
        }
    }

    /// The ε-closure of `q`, per word.
    pub(crate) fn closure_of(&self, q: StateId) -> &[u32] {
        let row = q as usize * self.words;
        &self.closure[row..row + self.words]
    }

    /// The ε-closure of the start state, per word: what a search marks at
    /// its seed.
    pub(crate) fn start_closure(&self) -> &[u32] {
        self.closure_of(self.start)
    }

    /// The groups an entry of mask word `word` can expand by.
    #[inline]
    pub(crate) fn groups_of(&self, word: usize) -> &[Group] {
        &self.groups[self.group_off[word]..self.group_off[word + 1]]
    }

    /// What the states `hit` (a non-empty subset of `group.sources`) reach
    /// by the group's symbol: how many transitions they take — the factor
    /// a row's length counts with — and the ε-closed successor mask, as
    /// `(word, bits)` runs. One state's mask is read in place; several are
    /// OR-ed into `merged`.
    #[inline]
    pub(crate) fn successors<'a>(
        &'a self,
        group: &Group,
        hit: u32,
        merged: &'a mut Vec<(u32, u32)>,
    ) -> (usize, &'a [(u32, u32)]) {
        let arm_of = |bit: u32| {
            let arm = &self.arms[group.arms + (group.sources & (bit - 1)).count_ones() as usize];
            (arm.mult, &self.succ[arm.succ.0..arm.succ.1])
        };
        if hit & (hit - 1) == 0 {
            return arm_of(hit);
        }
        merged.clear();
        let (mut mult, mut rest) = (0, hit);
        while rest != 0 {
            let (m, succ) = arm_of(rest & rest.wrapping_neg());
            mult += m;
            for &(w, bits) in succ {
                or_into(merged, 0, w, bits);
            }
            rest &= rest - 1;
        }
        (mult, &merged[..])
    }
}

/// What a level sweep collects, with the sweep's working buffers.
#[derive(Debug, Default)]
pub(crate) struct LevelOut {
    /// Entries of the next level, in discovery order.
    pub(crate) entries: Vec<Entry>,
    /// A successor mask OR-ed from several states (see
    /// [`MaskTables::successors`]).
    pub(crate) merged: Vec<(u32, u32)>,
}

/// Reusable per-evaluation working memory for the product BFS (every
/// answer shape runs on the one driver). See the module docs for the
/// design; obtain one with
/// [`EvalScratch::new`] or from a [`ScratchPool`].
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Current mark generation; a cell is "set" iff stamped with it.
    /// Bumped once per `EvalScratch::reset`; when it would wrap past
    /// `u32::MAX`, the table is zeroed instead (once per 2^32 − 1
    /// searches).
    gen: u32,
    /// The one mark table, node-major: node `v`'s reached-state mask is
    /// the `words` cells from `v * words` with the *current* query's
    /// `words` (cells written under another geometry are just stale
    /// generations); see [`Cells`]. It is also the answer set of a search
    /// that ran to the end: `v` is an answer iff its cells meet the
    /// accepting mask ([`Cells::accepts`]).
    pub(crate) table: Vec<u64>,
    /// The current automaton's mask tables.
    pub(crate) masks: MaskTables,
    /// Every entry reached by the current search, level after level; the
    /// current frontier is its tail. Kept whole, in level order, because it
    /// is the search's own record of *when* each pair was first reached:
    /// the counters and, for a search stopped part-way, the answers are
    /// read off it after the search, and one shortest witness per answer
    /// can be rebuilt from it backwards through reverse rows, with nothing
    /// added to the level loop.
    pub(crate) reached: Vec<Entry>,
    /// Where each level of `reached` starts, in level order.
    pub(crate) levels: Vec<usize>,
    /// The next level, as the sweep collects it.
    pub(crate) next: LevelOut,
    /// The sorted answers of the last search, read off the table or the
    /// log when it ended. The buffer stays here between searches: callers
    /// copy the answers out at exact size, or read them in place.
    pub(crate) answers: Vec<Oid>,
    /// States seen on any answer-checked level, per word — feeds
    /// `classes_materialized`.
    pub(crate) touched: Vec<u32>,
}

impl EvalScratch {
    /// An empty arena; the first `EvalScratch::reset` sizes it.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Does the capacity already cover a `(states, nodes)` query shape?
    /// When true, `EvalScratch::reset` for that shape does not grow the
    /// mark table.
    pub fn covers(&self, nq: usize, nv: usize) -> bool {
        words_for(nq) * nv <= self.table.len()
    }

    /// The current mark generation (valid between `reset` and the next
    /// `reset`).
    #[inline]
    pub(crate) fn generation(&self) -> u32 {
        self.gen
    }

    /// The mark table under the current generation and geometry.
    #[cfg(test)]
    fn cells(&mut self) -> Cells<'_> {
        Cells::new(&mut self.table, self.masks.words, self.gen)
    }

    /// Compile `nfa`'s [`MaskTables`] for the searches that follow — once
    /// per request, however many seeds it searches from.
    pub(crate) fn compile(&mut self, nfa: &Nfa) {
        self.masks.build(nfa);
    }

    /// Start a fresh search of the compiled automaton over `nv` nodes: grow
    /// the mark table if needed, invalidate all marks by bumping the
    /// generation, and clear the sparse buffers. Returns `true` when the
    /// existing capacity already covered the shape (the `scratch_reused`
    /// signal).
    pub(crate) fn reset(&mut self, nv: usize) -> bool {
        let words = self.masks.words;
        let covered = words * nv <= self.table.len();
        if !covered {
            // Grown cells start at generation 0 and old ones keep theirs:
            // neither is ever "set", because the generation only moves up.
            self.table.resize(words * nv, 0);
        }
        self.bump_gen();
        self.reached.clear();
        self.levels.clear();
        self.next.entries.clear();
        self.answers.clear();
        self.touched.clear();
        self.touched.resize(words, 0);
        covered
    }

    fn bump_gen(&mut self) {
        if self.gen == u32::MAX {
            // Generation wrap (once per 2^32 - 1 evaluations): zero every
            // mark so stale cells cannot collide with the restarted counter.
            self.table.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }
}

/// A thread-safe pool of warm [`EvalScratch`] arenas. Engines that serve
/// repeated queries ([`crate::Engine`] implementors with a hot path) check
/// an arena out per evaluation and return it on drop; after warm-up every
/// checkout reuses retained capacity, so the BFS inner loops never touch
/// the allocator.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<EvalScratch>>,
    reuses: AtomicUsize,
    allocs: AtomicUsize,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
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
        if pool.len() < MAX_POOLED {
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
    use rpq_automata::{parse_regex, Alphabet};

    /// An automaton of exactly `states` states: the word `a^(states - 1)`.
    fn chain(states: usize) -> Nfa {
        Nfa::from_word(&vec![Symbol::from_index(0); states - 1])
    }

    /// Compile `nfa` and start a search over `nv` nodes, as a request's
    /// first seed does.
    fn begin(s: &mut EvalScratch, nfa: &Nfa, nv: usize) -> bool {
        s.compile(nfa);
        s.reset(nv)
    }

    #[test]
    fn begin_reports_reuse_only_when_capacity_covers() {
        let mut s = EvalScratch::new();
        assert!(!begin(&mut s, &chain(3), 10), "cold scratch must grow");
        assert!(
            begin(&mut s, &chain(3), 10),
            "warm scratch with the same shape reuses"
        );
        assert!(
            begin(&mut s, &chain(2), 4),
            "smaller shapes fit in retained capacity"
        );
        assert!(
            begin(&mut s, &chain(WORD_STATES), 10),
            "states of one word share the cells"
        );
        assert!(
            !begin(&mut s, &chain(WORD_STATES + 1), 10),
            "a second mask word must grow"
        );
        assert!(begin(&mut s, &chain(2 * WORD_STATES), 10));
        assert!(s.covers(64, 10) && !s.covers(65, 10) && !s.covers(1, 21));
        assert!(s.covers(1, 20), "one word per node fits twice the nodes");
    }

    #[test]
    fn generations_invalidate_marks_without_clearing() {
        let mut s = EvalScratch::new();
        begin(&mut s, &chain(2), 8);
        assert_eq!(s.cells().mark(3, 0, 0b11), 0b11);
        assert_eq!(s.cells().mark(3, 0, 0b11), 0, "already reached");
        assert_eq!(s.cells().reached(3, 0), 0b11);
        begin(&mut s, &chain(2), 8);
        assert_eq!(s.cells().reached(3, 0), 0, "old marks are stale, not set");
        assert_eq!(s.cells().mark(3, 0, 0b10), 0b10);
        assert_eq!(s.cells().reached(3, 0), 0b10, "a stale mask is dropped");
    }

    /// The one step a mark stores, on every kind of cell: a cell of
    /// another generation holds nothing, the stored cell carries the
    /// current generation and the union, the bits won are exactly the new
    /// ones, and a mark that wins nothing stores nothing.
    #[test]
    fn a_marked_cell_is_the_union_under_the_current_generation() {
        let mut table = [];
        let cells = Cells::new(&mut table, 1, 7);
        let masks = [0u32, 1, 0b0110, 0x8000_0001, u32::MAX];
        for old_gen in [0u32, 6, 7, 8, u32::MAX] {
            for old_mask in masks {
                for bits in masks {
                    let old = u64::from(old_gen) << 32 | u64::from(old_mask);
                    let have = if old_gen == 7 { old_mask } else { 0 };
                    match cells.marked(old, bits) {
                        None => assert_eq!(bits & !have, 0),
                        Some((stamped, won)) => {
                            assert_eq!(won, bits & !have);
                            assert_ne!(won, 0);
                            assert_eq!(stamped, 7 << 32 | u64::from(have | bits));
                            assert_eq!(cells.unpack(stamped), have | bits);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn generation_wrap_rezeros_marks() {
        let mut s = EvalScratch::new();
        begin(&mut s, &chain(1), 4);
        s.gen = u32::MAX - 1;
        s.bump_gen();
        assert_eq!(s.cells().mark(0, 0, 1), 1);
        s.bump_gen(); // wraps: marks zeroed, gen restarts at 1
        assert_eq!(s.generation(), 1);
        assert_eq!(s.table[0], 0);
    }

    #[test]
    fn pool_round_trips_and_counts() {
        let pool = ScratchPool::new();
        {
            let mut a = pool.checkout();
            begin(&mut a, &chain(4), 16);
        }
        assert_eq!(pool.allocs(), 1);
        assert_eq!(pool.idle(), 1);
        {
            let b = pool.checkout();
            assert!(b.covers(4, 16), "the warm arena came back");
        }
        assert_eq!(pool.reuses(), 1);
    }

    /// A union of `branches` words of `len` letters over `a`, `b`, `c`:
    /// `2 + branches · (len − 1)` states, so several mask words when large.
    fn wide(branches: usize, len: usize) -> Nfa {
        let mut ab = Alphabet::from_names(["a", "b", "c"]);
        // branch i spells i in base 3: the words are distinct
        let text: Vec<String> = (0..branches)
            .map(|i| {
                let word: Vec<&str> = (0..len as u32)
                    .map(|j| ["a", "b", "c"][i / 3usize.pow(j) % 3])
                    .collect();
                word.join(".")
            })
            .collect();
        let nfa = Nfa::thompson(&parse_regex(&mut ab, &text.join("+")).unwrap());
        assert_eq!(nfa.num_states(), 2 + branches * (len - 1));
        nfa
    }

    fn suite() -> Vec<Nfa> {
        let mut ab = Alphabet::from_names(["a", "b", "c"]);
        let mut out: Vec<Nfa> = ["()", "a*", "(a+b).c", "(a.b+c)*.a", "(a*.a)*.(a+b)*"]
            .iter()
            .map(|q| Nfa::thompson(&parse_regex(&mut ab, q).unwrap()))
            .collect();
        out.push(wide(24, 5)); // 98 states: four words
        out.push(Nfa::star(&wide(16, 4))); // ε-moves across words
        out
    }

    /// The states of `bits`, a mask of word `word`, ascending.
    fn states_of(word: usize, mut bits: u32) -> impl Iterator<Item = StateId> {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                (word * WORD_STATES) as StateId + b
            })
        })
    }

    fn states(words: impl Iterator<Item = (u32, u32)>) -> Vec<StateId> {
        let mut out: Vec<StateId> = words
            .flat_map(|(w, bits)| states_of(w as usize, bits))
            .collect();
        out.sort_unstable();
        out
    }

    /// The mask tables are the subset simulation: for every set of states
    /// of one word and every symbol, `successors` is `Nfa::step` and its
    /// factor the number of transitions taken.
    #[test]
    fn mask_tables_are_the_subset_simulation() {
        for nfa in suite() {
            let mut s = EvalScratch::new();
            begin(&mut s, &nfa, 0);
            let t = &s.masks;
            let nq = nfa.num_states();
            assert_eq!(t.words, nq.div_ceil(WORD_STATES));
            let start = t.closure_of(nfa.start()).iter().copied();
            assert_eq!(states((0..).zip(start)), nfa.start_set());
            let accepting = t.accepting.iter().copied();
            assert_eq!(states((0..).zip(accepting)), nfa.accepting_states());
            for q in 0..nq as StateId {
                let closure = t.closure_of(q).iter().copied();
                assert_eq!(states((0..).zip(closure)), nfa.eps_closure(&[q]));
            }
            let mut merged = Vec::new();
            for w in 0..t.words {
                let in_word = |q: &StateId| *q as usize / WORD_STATES == w;
                let mut seen_syms = Vec::new();
                for g in t.groups_of(w) {
                    assert!(!seen_syms.contains(&g.sym), "one group per symbol");
                    seen_syms.push(g.sym);
                    let sources: Vec<StateId> = states_of(w, g.sources).collect();
                    let takes =
                        |q: StateId| nfa.transitions(q).iter().filter(|t| t.0 == g.sym).count();
                    assert!(sources.iter().all(|&q| takes(q) > 0));
                    // every single source, every pair, and all of them
                    let mut subsets: Vec<Vec<StateId>> = sources.iter().map(|&q| vec![q]).collect();
                    for (i, &p) in sources.iter().enumerate() {
                        subsets.extend(sources[i + 1..].iter().map(|&q| vec![p, q]));
                    }
                    subsets.push(sources.clone());
                    for set in subsets {
                        let hit = set.iter().fold(0, |m, &q| m | word_bit(q).1);
                        let (mult, succ) = t.successors(g, hit, &mut merged);
                        assert_eq!(mult, set.iter().map(|&q| takes(q)).sum::<usize>());
                        assert_eq!(states(succ.iter().copied()), nfa.step(&set, g.sym));
                    }
                }
                // no transition of the word is left out of its groups
                for q in (0..nq as StateId).filter(in_word) {
                    for &(sym, _) in nfa.transitions(q) {
                        let g = t.groups_of(w).iter().find(|g| g.sym == sym);
                        assert!(g.is_some_and(|g| g.sources & word_bit(q).1 != 0));
                    }
                }
            }
        }
    }

    /// One arena through everything that once left stale marks behind
    /// (PR 15's bug, on the new cell): a regrow between searches, a smaller
    /// then a larger `|V|`, one mask word then three (so the same cells are
    /// read under another geometry), and the generation wrap — each
    /// followed by searches whose answers and counters match a fresh
    /// arena's.
    #[test]
    fn one_arena_survives_regrow_reshape_and_generation_wrap() {
        use crate::product::{search_nodes, SearchOpts};
        use rpq_graph::{CsrGraph, Instance};

        let syms: Vec<Symbol> = (0..3).map(Symbol::from_index).collect();
        let web = |n: u32| {
            let mut inst = Instance::new();
            for _ in 0..n {
                inst.add_node();
            }
            for i in 0..n {
                inst.add_edge(Oid(i), syms[0], Oid((i * 7 + 1) % n));
                inst.add_edge(Oid(i), syms[1], Oid((i * 13 + 5) % n));
                if i % 3 == 0 {
                    inst.add_edge(Oid(i), syms[2], Oid((i * 31 + 2) % n));
                }
            }
            CsrGraph::from(&inst)
        };
        let (small, large) = (web(60), web(1500));
        let one_word = Nfa::star(&wide(3, 3)); // 9 states
        let three_words = Nfa::star(&wide(24, 4)); // 75 states

        let mut arena = EvalScratch::new();
        let check = |arena: &mut EvalScratch, nfa: &Nfa, graph: &CsrGraph, step: &str| {
            let opts = SearchOpts::default();
            let fresh = search_nodes(nfa, graph, Oid(1), &opts, &mut EvalScratch::new()).0;
            let mut reused = search_nodes(nfa, graph, Oid(1), &opts, arena).0;
            assert!(!fresh.answers.is_empty());
            reused.stats.scratch_reused = fresh.stats.scratch_reused;
            assert_eq!(reused, fresh, "{step}");
        };
        check(&mut arena, &one_word, &small, "cold");
        check(&mut arena, &one_word, &large, "regrown to a larger |V|");
        check(&mut arena, &one_word, &small, "back on the smaller |V|");
        check(
            &mut arena,
            &three_words,
            &small,
            "three words where one was",
        );
        check(
            &mut arena,
            &three_words,
            &large,
            "regrown under three words",
        );
        check(&mut arena, &one_word, &large, "one word where three were");
        // One arena search per step: the next stamps the last generation,
        // the one after it wraps.
        arena.gen = u32::MAX - 1;
        check(&mut arena, &three_words, &large, "at the last generation");
        check(
            &mut arena,
            &three_words,
            &large,
            "across the generation wrap",
        );
        assert_eq!(arena.generation(), 1, "the generation wrapped");
        check(&mut arena, &one_word, &small, "after the wrap");
    }
}
