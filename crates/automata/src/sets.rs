//! The state-set arena every subset-state construction runs on.
//!
//! The paper evaluates a query by "carrying along the set of states of the
//! nfsa" (Section 2.2), and the planner's deciders are built from the same
//! move: a subset construction names each set of NFA states it meets, an
//! inclusion test pairs an `A`-state with a set of `B`-states, Moore
//! refinement names each signature row, a product names each state pair.
//! [`StateSets`] gives all of them one place to keep those sets:
//!
//! * **Interning.** [`StateSets::intern`] maps a `StateId` slice to a dense
//!   [`SetId`], numbered in order of first sight. The slices live back to
//!   back in one buffer, and the index is open addressing over the ids. A
//!   probe compares the slices themselves: two slices get one id only when
//!   they are equal, whatever their hashes.
//! * **Closing and stepping.** [`StateSets::close`], [`StateSets::step`]
//!   and [`StateSets::read_word`] compute ε-closures into buffers the arena
//!   keeps, with a per-state generation stamp for "seen", so a closure
//!   costs no allocation once the buffers have grown to the automaton.
//!
//! An arena lives for one construction and is dropped with it; nothing is
//! shared across constructions.

use crate::alphabet::Symbol;
use crate::nfa::{Nfa, StateId};

/// Dense id of an interned slice, in order of first sight.
pub(crate) type SetId = u32;

/// An index slot that holds no id.
const VACANT: u32 = u32::MAX;

/// Interned `StateId` slices and the buffers that close and step sets of
/// NFA states (module docs).
pub(crate) struct StateSets {
    /// Every interned slice, back to back.
    words: Vec<StateId>,
    /// Slice `id` ends at `words[ends[id]]` and starts where `id - 1` ends.
    ends: Vec<u32>,
    /// Open-addressing index: a slot holds an id or [`VACANT`]. Its length
    /// is zero or a power of two, and at least twice the number of ids.
    slots: Vec<u32>,
    /// Where the index starts looking for a slice ([`fx_hash`]; a test
    /// swaps in one under which every slice collides).
    hash: fn(&[StateId]) -> u64,
    /// `stamp[s] == generation` iff state `s` is in the closure being built.
    stamp: Vec<u32>,
    generation: u32,
    /// The targets of the last symbol move.
    moved: Vec<StateId>,
    /// States whose ε-edges are still to be followed.
    stack: Vec<StateId>,
    /// The last closure built, sorted.
    closed: Vec<StateId>,
}

/// Multiplicative word hash (the Fx mix) over the length and the words.
/// It is not keyed, though the sets come from client queries: a set
/// crafted to collide costs probes, never a wrong id, and a query can
/// already make its subset construction meet exponentially many sets.
fn fx_hash(set: &[StateId]) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    set.iter()
        .fold((set.len() as u64).wrapping_mul(K), |h, &w| {
            (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(K)
        })
}

/// Push the targets of the `sym` moves out of `set` in `nfa` onto `moved`.
fn push_moves(moved: &mut Vec<StateId>, nfa: &Nfa, set: &[StateId], sym: Symbol) {
    for &s in set {
        moved.extend(
            nfa.transitions(s)
                .iter()
                .filter(|&&(sy, _)| sy == sym)
                .map(|&(_, t)| t),
        );
    }
}

impl StateSets {
    /// An empty arena; it allocates on first use.
    pub(crate) fn new() -> StateSets {
        StateSets {
            words: Vec::new(),
            ends: Vec::new(),
            slots: Vec::new(),
            hash: fx_hash,
            stamp: Vec::new(),
            generation: 0,
            moved: Vec::new(),
            stack: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Number of interned slices.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Where slice `id` lies in `words`.
    fn span(&self, id: SetId) -> std::ops::Range<usize> {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        start as usize..self.ends[id] as usize
    }

    /// The slice interned as `id`.
    pub(crate) fn get(&self, id: SetId) -> &[StateId] {
        &self.words[self.span(id)]
    }

    /// Forget every interned slice, keeping the buffers; ids restart at 0.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.ends.clear();
        self.slots.fill(VACANT);
    }

    /// The slot of `set`'s probe sequence that holds its id, or the vacant
    /// slot where its id belongs. `slots` must be non-empty with a vacancy.
    fn probe(&self, set: &[StateId]) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = ((self.hash)(set) >> 32) as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == VACANT || self.get(id) == set {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id of `set`, interning it if it is new; `true` when it is.
    pub(crate) fn intern(&mut self, set: &[StateId]) -> (SetId, bool) {
        if self.slots.len() < 2 * (self.len() + 1) {
            self.grow();
        }
        let slot = self.probe(set);
        if self.slots[slot] != VACANT {
            return (self.slots[slot], false);
        }
        let id = self.len() as SetId;
        self.words.extend_from_slice(set);
        self.ends.push(self.words.len() as u32);
        self.slots[slot] = id;
        (id, true)
    }

    /// Double the index (16 slots at first) and re-place every id.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(size, VACANT);
        for id in 0..self.len() as SetId {
            let slot = self.probe(self.get(id));
            self.slots[slot] = id;
        }
    }

    /// The ε-closure of `seeds` in `nfa`, sorted, into `closed`.
    fn close_from(&mut self, nfa: &Nfa, seeds: &[StateId]) {
        let n = nfa.num_states();
        self.closed.clear();
        self.stack.clear();
        if self.stamp.len() < n {
            // a closure holds each state at most once
            self.stamp.resize(n, 0);
            self.stack.reserve(n);
            self.closed.reserve(n);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        let generation = self.generation;
        for &s in seeds {
            if self.stamp[s as usize] != generation {
                self.stamp[s as usize] = generation;
                self.stack.push(s);
            }
        }
        while let Some(s) = self.stack.pop() {
            self.closed.push(s);
            for &t in nfa.eps_transitions(s) {
                if self.stamp[t as usize] != generation {
                    self.stamp[t as usize] = generation;
                    self.stack.push(t);
                }
            }
        }
        self.closed.sort_unstable();
    }

    /// [`StateSets::close_from`] the targets in `moved`.
    fn close_moved(&mut self, nfa: &Nfa) {
        let moved = std::mem::take(&mut self.moved);
        self.close_from(nfa, &moved);
        self.moved = moved;
    }

    /// The ε-closure of `seeds` in `nfa` (sorted, deduplicated), held until
    /// the next closure.
    pub(crate) fn closure(&mut self, nfa: &Nfa, seeds: &[StateId]) -> &[StateId] {
        self.close_from(nfa, seeds);
        &self.closed
    }

    /// The ε-closure of `seeds` in `nfa`, interned.
    pub(crate) fn close(&mut self, nfa: &Nfa, seeds: &[StateId]) -> (SetId, bool) {
        self.close_from(nfa, seeds);
        self.intern_closed()
    }

    /// [`StateSets::intern`] the last closure built.
    fn intern_closed(&mut self) -> (SetId, bool) {
        let closed = std::mem::take(&mut self.closed);
        let id = self.intern(&closed);
        self.closed = closed;
        id
    }

    /// One symbol step of the subset simulation of `nfa` from `set`, with
    /// ε-closure (empty when no member moves on `sym`), held until the next
    /// closure.
    pub(crate) fn step_slice(&mut self, nfa: &Nfa, set: &[StateId], sym: Symbol) -> &[StateId] {
        self.moved.clear();
        push_moves(&mut self.moved, nfa, set, sym);
        self.close_moved(nfa);
        &self.closed
    }

    /// One symbol step of the subset simulation of `nfa` from the interned
    /// set `id`, with ε-closure, interned (the empty set when no member
    /// moves on `sym`).
    pub(crate) fn step(&mut self, nfa: &Nfa, id: SetId, sym: Symbol) -> (SetId, bool) {
        self.moved.clear();
        let span = self.span(id);
        push_moves(&mut self.moved, nfa, &self.words[span], sym);
        self.close_moved(nfa);
        self.intern_closed()
    }

    /// The states of `nfa` reached from `from` by reading `word`, ε-moves
    /// folded in at every step (sorted; empty once a step strands every
    /// state), held until the next closure.
    pub(crate) fn read_word(&mut self, nfa: &Nfa, from: StateId, word: &[Symbol]) -> &[StateId] {
        self.close_from(nfa, &[from]);
        for &sym in word {
            if self.closed.is_empty() {
                break;
            }
            self.moved.clear();
            push_moves(&mut self.moved, nfa, &self.closed, sym);
            self.close_moved(nfa);
        }
        &self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every slice of length ≤ 3 over states `0..4`, in a fixed order.
    fn slices() -> Vec<Vec<StateId>> {
        let mut all: Vec<Vec<StateId>> = vec![Vec::new()];
        let mut layer: Vec<Vec<StateId>> = vec![Vec::new()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for s in &layer {
                for x in 0..4 {
                    let mut t = s.clone();
                    t.push(x);
                    next.push(t);
                }
            }
            all.extend(next.iter().cloned());
            layer = next;
        }
        all
    }

    fn check_interning(mut sets: StateSets) {
        let all = slices();
        for (i, s) in all.iter().enumerate() {
            assert_eq!(sets.intern(s), (i as SetId, true), "{s:?} is new");
        }
        assert_eq!(sets.len(), all.len());
        for (i, s) in all.iter().enumerate().rev() {
            assert_eq!(sets.intern(s), (i as SetId, false), "{s:?} was seen");
            assert_eq!(sets.get(i as SetId), s.as_slice());
        }
        sets.clear();
        assert_eq!(sets.len(), 0);
        assert_eq!(sets.intern(&all[7]), (0, true), "ids restart after clear");
        assert_eq!(sets.intern(&all[3]), (1, true));
        assert_eq!(sets.intern(&all[7]), (0, false));
    }

    #[test]
    fn interning_numbers_slices_by_first_sight() {
        check_interning(StateSets::new());
    }

    /// A hash that sends every slice to one slot: only the slice
    /// comparison can tell two sets apart, so an index that trusted a hash
    /// would hand every new slice the id of the first.
    #[test]
    fn interning_survives_a_hash_under_which_everything_collides() {
        let sets = StateSets {
            hash: |_| 0,
            ..StateSets::new()
        };
        check_interning(sets);
    }

    #[test]
    fn closures_reuse_their_buffers_across_automata_and_generations() {
        let a = Symbol::from_index(0);
        // 0 -ε→ 1 -a→ 2 -ε→ 3, 3 -ε→ 2
        let mut n = Nfa::empty();
        for _ in 0..3 {
            n.add_state(false);
        }
        n.add_eps(0, 1);
        n.add_transition(1, a, 2);
        n.add_eps(2, 3);
        n.add_eps(3, 2);
        let mut sets = StateSets::new();
        // a wrapped generation must not leave stale stamps behind
        sets.generation = u32::MAX - 1;
        for _ in 0..4 {
            assert_eq!(sets.closure(&n, &[3, 0, 3]), &[0, 1, 2, 3]);
            assert_eq!(sets.closure(&n, &[1]), &[1]);
        }
        assert_eq!(sets.read_word(&n, 0, &[a]), &[2, 3]);
        assert!(sets.read_word(&n, 0, &[a, a]).is_empty());
        let (start, fresh) = sets.close(&n, &[0]);
        assert!(fresh);
        assert_eq!(sets.get(start), &[0, 1]);
        let (next, _) = sets.step(&n, start, a);
        assert_eq!(sets.get(next), &[2, 3]);
        let (dead, _) = sets.step(&n, next, a);
        assert!(sets.get(dead).is_empty());
        // a larger automaton after a smaller one
        let big = Nfa::from_word(&[a; 6]);
        assert_eq!(sets.read_word(&big, 0, &[a; 6]), &[6]);
    }
}
