//! Dense per-state node sets for the product BFS.
//!
//! A dense *pull* level of `rpq-core`'s product search probes "is
//! `(state, node)` on the current frontier?" once per candidate in-edge, so
//! the frontier is densified into bitmaps first:
//!
//! * [`NodeBitset`] — one bit per graph node in `u64` blocks;
//! * [`FrontierArena`] — one such bitset per automaton state.
//!
//! Both are plain arenas: allocated once per evaluation arena and reset in
//! place, so the hot loops never allocate.

/// A fixed-capacity set of node indices stored as `u64` blocks.
///
/// Maintains a running set-bit count so [`NodeBitset::is_empty`] and
/// [`NodeBitset::count`] are O(1), and clearing an already-empty set (the
/// common case between levels) touches no block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeBitset {
    blocks: Vec<u64>,
    len: usize,
    /// Number of set bits, maintained by every mutation.
    ones: usize,
}

impl NodeBitset {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> NodeBitset {
        NodeBitset {
            blocks: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Universe size (number of addressable bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bit is set — O(1) via the maintained count.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Set bit `i`; returns `true` if it was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (block, bit) = (i / 64, 1u64 << (i % 64));
        let newly = self.blocks[block] & bit == 0;
        self.blocks[block] |= bit;
        self.ones += usize::from(newly);
        newly
    }

    /// Test bit `i`.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.blocks[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits — O(1) via the maintained count.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Clear all bits (retains the allocation). O(1) when already empty.
    pub fn clear(&mut self) {
        if self.ones != 0 {
            self.blocks.fill(0);
            self.ones = 0;
        }
    }

    /// OR `other` into `self`; returns `true` if any bit changed.
    pub fn union_with(&mut self, other: &NodeBitset) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut gained = 0usize;
        for (a, &b) in self.blocks.iter_mut().zip(&other.blocks) {
            let fresh = b & !*a;
            gained += fresh.count_ones() as usize;
            *a |= fresh;
        }
        self.ones += gained;
        gained != 0
    }
}

/// One [`NodeBitset`] per automaton state, spanning all graph nodes — the
/// densified frontier of a pull level.
#[derive(Clone, Debug, Default)]
pub struct FrontierArena {
    per_state: Vec<NodeBitset>,
}

impl FrontierArena {
    /// One empty bitset of capacity `nodes` for each of `states`.
    pub fn new(states: usize, nodes: usize) -> FrontierArena {
        FrontierArena {
            per_state: vec![NodeBitset::new(nodes); states],
        }
    }

    /// Number of per-state bitsets.
    pub fn num_states(&self) -> usize {
        self.per_state.len()
    }

    /// The bitset for state `q`.
    pub fn state(&self, q: usize) -> &NodeBitset {
        &self.per_state[q]
    }

    /// Mutable bitset for state `q`.
    pub fn state_mut(&mut self, q: usize) -> &mut NodeBitset {
        &mut self.per_state[q]
    }

    /// Clear every per-state bitset (retains allocations).
    pub fn clear(&mut self) {
        for b in &mut self.per_state {
            b.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = NodeBitset::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 130);
    }

    #[test]
    fn union_reports_change() {
        let mut a = NodeBitset::new(70);
        let mut b = NodeBitset::new(70);
        b.insert(3);
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn frontier_arena_clears_every_state() {
        let mut f = FrontierArena::new(3, 10);
        f.state_mut(1).insert(7);
        f.state_mut(2).insert(1);
        assert!(f.state(1).contains(7));
        assert_eq!(f.num_states(), 3);
        f.clear();
        assert!((0..3).all(|q| f.state(q).is_empty()));
    }
}
