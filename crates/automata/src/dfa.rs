//! Deterministic finite automata.
//!
//! DFAs here are always *complete*: every state has a transition on every
//! symbol of a fixed alphabet size (a dead sink is added by the subset
//! construction when needed). Completeness makes complementation a flag flip
//! and keeps the product constructions simple. The paper notes that building
//! the deterministic (quotient) automaton "may be exponential in p"
//! (Section 2.2) — the benches in `rpq-bench` measure exactly that effect.
//!
//! ## The sparse step and the numbering it keeps
//!
//! [`Dfa::from_nfa`] computes a successor only for the symbols some member
//! of the subset state has a transition on; every other column of the row
//! is the one dead sink (the empty subset), so a three-step query under a
//! forty-label alphabet pays for three steps, not forty. **The state
//! numbering is that of the dense construction** — subset states are
//! numbered in order of first sight, scanning states in id order and, per
//! state, symbols `0..sigma` in order, the sink included (it gets its id
//! the first time some state has no move on some symbol). Two
//! determinizations of one NFA at different `sigma` agree on the relative
//! order of the non-sink states; only the sink's id can differ. The
//! dense construction is kept in the tests as the reference the sparse one
//! is held against, state for state.
//!
//! A subset state's id *is* its id in the construction's state-set arena
//! (the crate docs): sets are interned in first-sight order, and the sink
//! is the empty set, interned when first needed. [`Dfa::product`] interns
//! its state pairs the same way.
//!
//! ## Minimization
//!
//! [`Dfa::minimize`] is Moore's partition refinement, the one minimizer.
//! Each round interns every reachable state's signature row — its class,
//! then its successors' classes on the columns that can split — into one
//! arena, in state order, so a class id is the first-sight order of its
//! row. It is held against the definition of a minimal DFA on random
//! regexes (every state reachable, every two states distinguishable), and
//! against Brzozowski's double reversal in `tests/growth_and_simplify.rs`.

use crate::alphabet::Symbol;
use crate::nfa::{Nfa, StateId};
use crate::sets::StateSets;

/// A complete DFA over symbols `0..sigma`.
#[derive(Clone, Debug)]
pub struct Dfa {
    sigma: usize,
    start: StateId,
    accept: Vec<bool>,
    /// Row-major transition table: `trans[state * sigma + symbol]`.
    trans: Vec<StateId>,
}

impl Dfa {
    /// Subset construction from an NFA. `sigma` must be at least
    /// `max symbol index + 1` over the NFA's transitions.
    ///
    /// The NFA is [`Nfa::trim`]med first: states not on a start→accept
    /// path cannot change the language, but left in they inflate the
    /// subset-state universe (every dead state a set drags along splits
    /// otherwise-equal sets). Determinizing the trimmed automaton yields a
    /// DFA over the same language with never more states.
    ///
    /// A subset state is stepped only on the symbols one of its members
    /// has a transition on; every other column of its row is the dead sink
    /// (see the module docs for the numbering this keeps).
    pub fn from_nfa(nfa: &Nfa, sigma: usize) -> Dfa {
        let nfa = &nfa.trim();
        // Subset state `i` is set `i` of the arena.
        let mut sets = StateSets::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut trans: Vec<StateId> = Vec::new();
        let mut sink: Option<StateId> = None;

        let (start, _) = sets.close(nfa, &[nfa.start()]);
        accept.push(nfa.set_accepts(sets.get(start)));

        let mut moves: Vec<(Symbol, StateId)> = Vec::new();
        let mut targets: Vec<StateId> = Vec::new();
        let mut i = 0;
        while i < sets.len() {
            moves.clear();
            for &s in sets.get(i as StateId) {
                moves.extend(
                    nfa.transitions(s)
                        .iter()
                        .filter(|(sym, _)| sym.index() < sigma),
                );
            }
            moves.sort_unstable();
            let mut rest = moves.as_slice();
            for sym in 0..sigma {
                let here = rest.iter().take_while(|(s, _)| s.index() == sym).count();
                let id = if here == 0 {
                    // No member moves on `sym`: the one dead sink, numbered
                    // when first needed (the empty set is never stepped —
                    // its row is all sink, by this same branch).
                    *sink.get_or_insert_with(|| {
                        accept.push(false);
                        sets.intern(&[]).0
                    })
                } else {
                    targets.clear();
                    targets.extend(rest[..here].iter().map(|&(_, t)| t));
                    rest = &rest[here..];
                    let (id, fresh) = sets.close(nfa, &targets);
                    if fresh {
                        accept.push(nfa.set_accepts(sets.get(id)));
                    }
                    id
                };
                trans.push(id);
            }
            i += 1;
        }
        Dfa {
            sigma,
            start: 0,
            accept,
            trans,
        }
    }

    /// Number of states (including any dead sink).
    pub fn num_states(&self) -> usize {
        self.accept.len()
    }

    /// Alphabet size this DFA is complete over.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `s` is accepting.
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accept[s as usize]
    }

    /// The successor of `s` on `sym`.
    #[inline]
    pub fn next(&self, s: StateId, sym: Symbol) -> StateId {
        self.trans[s as usize * self.sigma + sym.index()]
    }

    /// Membership test.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut s = self.start;
        for &sym in word {
            s = self.next(s, sym);
        }
        self.accept[s as usize]
    }

    /// Complement (flip accepting); valid because the DFA is complete.
    pub fn complement(&self) -> Dfa {
        Dfa {
            sigma: self.sigma,
            start: self.start,
            accept: self.accept.iter().map(|&a| !a).collect(),
            trans: self.trans.clone(),
        }
    }

    /// True iff no accepting state is reachable from the start.
    pub fn is_empty_lang(&self) -> bool {
        self.shortest_accepted().is_none()
    }

    /// A shortest accepted word, if any (plain BFS).
    pub fn shortest_accepted(&self) -> Option<Vec<Symbol>> {
        let n = self.num_states();
        let mut back: Vec<Option<(StateId, Symbol)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[self.start as usize] = true;
        queue.push_back(self.start);
        while let Some(s) = queue.pop_front() {
            if self.accept[s as usize] {
                let mut word = Vec::new();
                let mut cur = s;
                while let Some((prev, sym)) = back[cur as usize] {
                    word.push(sym);
                    cur = prev;
                }
                word.reverse();
                return Some(word);
            }
            for sym in 0..self.sigma {
                let t = self.next(s, Symbol::from_index(sym));
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    back[t as usize] = Some((s, Symbol::from_index(sym)));
                    queue.push_back(t);
                }
            }
        }
        None
    }

    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.num_states()];
        let mut stack = vec![self.start];
        seen[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            for sym in 0..self.sigma {
                let t = self.next(s, Symbol::from_index(sym));
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// Moore partition-refinement minimization (restricted to reachable
    /// states). O(n²·σ) worst case; robust and plenty fast for our sizes.
    ///
    /// A column on which every reachable state has the same successor (the
    /// all-sink columns of a narrow query under a wide alphabet) cannot
    /// split a class, so signatures are taken over the other columns only.
    pub fn minimize(&self) -> Dfa {
        let n = self.num_states();
        let reach = self.reachable();
        let splitting: Vec<usize> = (0..self.sigma)
            .filter(|&sym| {
                let mut targets = (0..n)
                    .filter(|&s| reach[s])
                    .map(|s| self.trans[s * self.sigma + sym]);
                let first = targets.next();
                targets.any(|t| Some(t) != first)
            })
            .collect();
        // initial partition: {accepting, rejecting} over reachable states
        let mut class: Vec<u32> = (0..n).map(|s| if self.accept[s] { 1 } else { 0 }).collect();
        let mut next_class: Vec<u32> = vec![0; n];
        let mut num_classes = 2;
        // A round's signature rows — (class, class of successor per
        // splitting symbol) — interned in state order: a row's id is its
        // class in the next round.
        let mut rows = StateSets::new();
        let mut sig: Vec<u32> = Vec::with_capacity(splitting.len() + 1);
        loop {
            rows.clear();
            for s in 0..n {
                if !reach[s] {
                    continue;
                }
                sig.clear();
                sig.push(class[s]);
                for &sym in &splitting {
                    sig.push(class[self.trans[s * self.sigma + sym] as usize]);
                }
                next_class[s] = rows.intern(&sig).0;
            }
            // only reachable states' classes are read from here on
            std::mem::swap(&mut class, &mut next_class);
            if rows.len() == num_classes {
                break;
            }
            num_classes = rows.len();
        }
        // build quotient automaton
        let m = num_classes;
        let mut accept = vec![false; m];
        let mut trans = vec![0 as StateId; m * self.sigma];
        let mut done = vec![false; m];
        for s in 0..n {
            if !reach[s] {
                continue;
            }
            let c = class[s] as usize;
            if done[c] {
                continue;
            }
            done[c] = true;
            accept[c] = self.accept[s];
            for sym in 0..self.sigma {
                trans[c * self.sigma + sym] = class[self.trans[s * self.sigma + sym] as usize];
            }
        }
        Dfa {
            sigma: self.sigma,
            start: class[self.start as usize],
            accept,
            trans,
        }
    }

    /// Product DFA combining acceptance with `op(a_accepts, b_accepts)`.
    /// Both inputs must share `sigma`.
    pub fn product<F>(a: &Dfa, b: &Dfa, op: F) -> Dfa
    where
        F: Fn(bool, bool) -> bool,
    {
        assert_eq!(a.sigma, b.sigma, "product requires equal alphabets");
        let sigma = a.sigma;
        // Product state `i` is pair `i` of the arena.
        let mut pairs = StateSets::new();
        let mut accept = Vec::new();
        let mut trans: Vec<StateId> = Vec::new();
        pairs.intern(&[a.start, b.start]);
        accept.push(op(a.accept[a.start as usize], b.accept[b.start as usize]));
        let mut i = 0;
        while i < pairs.len() {
            let pair = pairs.get(i as StateId);
            let (sa, sb) = (pair[0] as usize, pair[1] as usize);
            for sym in 0..sigma {
                let ta = a.trans[sa * sigma + sym];
                let tb = b.trans[sb * sigma + sym];
                let (id, fresh) = pairs.intern(&[ta, tb]);
                if fresh {
                    accept.push(op(a.accept[ta as usize], b.accept[tb as usize]));
                }
                trans.push(id);
            }
            i += 1;
        }
        Dfa {
            sigma,
            start: 0,
            accept,
            trans,
        }
    }

    /// Convert back to an NFA (for uniform downstream APIs): state `s`
    /// keeps its id (the NFA's start is moved, not renumbered). Transitions
    /// into a dead state — rejecting, every symbol a self-loop: the sink of
    /// [`Dfa::from_nfa`] — are left out; no word through them is accepted,
    /// and under a wide alphabet they are most of the table.
    pub fn to_nfa(&self) -> Nfa {
        let dead: Vec<bool> = (0..self.num_states())
            .map(|s| {
                let row = &self.trans[s * self.sigma..(s + 1) * self.sigma];
                !self.accept[s] && row.iter().all(|&t| t as usize == s)
            })
            .collect();
        let mut n = Nfa::empty();
        // state 0 of the NFA is its start; map DFA state s -> s (+1 if start ≠ 0)
        // Simplest: add all states fresh and set start afterwards.
        let mut ids = Vec::with_capacity(self.num_states());
        ids.push(n.start());
        n.set_accepting(n.start(), self.accept[0]);
        for s in 1..self.num_states() {
            ids.push(n.add_state(self.accept[s]));
        }
        for s in 0..self.num_states() {
            for sym in 0..self.sigma {
                let t = self.trans[s * self.sigma + sym];
                if !dead[t as usize] {
                    n.add_transition(ids[s], Symbol::from_index(sym), ids[t as usize]);
                }
            }
        }
        n.set_start(ids[self.start as usize]);
        n
    }

    /// Count accepted words of each length `0..=max_len` (dynamic program).
    /// Useful for comparing language sizes in tests and benches.
    pub fn count_words_by_length(&self, max_len: usize) -> Vec<u64> {
        let n = self.num_states();
        let mut cur = vec![0u64; n];
        cur[self.start as usize] = 1;
        let mut out = Vec::with_capacity(max_len + 1);
        for _ in 0..=max_len {
            let total: u64 = (0..n).filter(|&s| self.accept[s]).map(|s| cur[s]).sum();
            out.push(total);
            let mut next = vec![0u64; n];
            for (s, &c) in cur.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                for sym in 0..self.sigma {
                    let t = self.trans[s * self.sigma + sym] as usize;
                    next[t] = next[t].saturating_add(c);
                }
            }
            cur = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::parser::parse_regex;

    fn dfa(ab: &mut Alphabet, s: &str) -> Dfa {
        let r = parse_regex(ab, s).unwrap();
        let n = Nfa::thompson(&r);
        Dfa::from_nfa(&n, ab.len())
    }

    fn word(ab: &mut Alphabet, s: &str) -> Vec<Symbol> {
        s.chars().map(|c| ab.intern(&c.to_string())).collect()
    }

    #[test]
    fn subset_construction_preserves_language() {
        let mut ab = Alphabet::new();
        // pre-intern so sigma covers everything
        ab.intern("a");
        ab.intern("b");
        ab.intern("c");
        let d = dfa(&mut ab, "a.(b+c)*");
        assert!(d.accepts(&word(&mut ab, "a")));
        assert!(d.accepts(&word(&mut ab, "abcb")));
        assert!(!d.accepts(&word(&mut ab, "b")));
        assert!(!d.accepts(&[]));
    }

    #[test]
    fn complement_flips_membership() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let d = dfa(&mut ab, "a.b");
        let c = d.complement();
        assert!(!c.accepts(&word(&mut ab, "ab")));
        assert!(c.accepts(&word(&mut ab, "a")));
        assert!(c.accepts(&[]));
    }

    #[test]
    fn minimize_collapses_equivalent_states() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        // (a + a.a.a*) ≡ a.a*  — wait, a + a.a.a* = a(ε + a.a*) = a.a*
        let d1 = dfa(&mut ab, "a + a.a.a*");
        let d2 = dfa(&mut ab, "a.a*");
        let m1 = d1.minimize();
        let m2 = d2.minimize();
        assert_eq!(m1.num_states(), m2.num_states());
        for len in d1.count_words_by_length(6) {
            let _ = len;
        }
        assert_eq!(m1.count_words_by_length(8), m2.count_words_by_length(8));
    }

    #[test]
    fn product_difference_emptiness_checks_inclusion() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let sub = dfa(&mut ab, "a.b");
        let sup = dfa(&mut ab, "a.b*");
        let diff = Dfa::product(&sub, &sup, |x, y| x && !y);
        assert!(diff.is_empty_lang());
        let diff2 = Dfa::product(&sup, &sub, |x, y| x && !y);
        assert!(!diff2.is_empty_lang());
        let cex = diff2.shortest_accepted().unwrap();
        assert!(sup.accepts(&cex) && !sub.accepts(&cex));
    }

    #[test]
    fn count_words_by_length_counts() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let d = dfa(&mut ab, "(a+b)*");
        assert_eq!(d.count_words_by_length(4), vec![1, 2, 4, 8, 16]);
        let e = dfa(&mut ab, "a.b");
        assert_eq!(e.count_words_by_length(3), vec![0, 0, 1, 0]);
    }

    #[test]
    fn to_nfa_round_trip() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let d = dfa(&mut ab, "a.(a+b)*.b");
        let n = d.to_nfa();
        assert!(n.accepts(&word(&mut ab, "ab")));
        assert!(n.accepts(&word(&mut ab, "aabab")));
        assert!(!n.accepts(&word(&mut ab, "ba")));
    }

    #[test]
    fn to_nfa_leaves_the_dead_sink_unwired_and_the_language_alone() {
        let mut ab = Alphabet::new();
        for name in ["a", "b", "c", "d", "e"] {
            ab.intern(name);
        }
        let d = dfa(&mut ab, "a.(a+b)*.b");
        let n = d.to_nfa();
        assert_eq!(n.num_states(), d.num_states(), "ids are kept");
        // c, d, e lead nowhere but the sink: no transition mentions them
        assert_eq!(n.symbols().len(), 2);
        assert!(crate::ops::equivalent(
            &n,
            &Nfa::thompson(&parse_regex(&mut ab, "a.(a+b)*.b").unwrap())
        )
        .is_ok());
        // the complement's sink accepts: it is not dead and stays wired
        let c = d.complement().to_nfa();
        assert_eq!(c.symbols().len(), 5);
        assert!(c.accepts(&word(&mut ab, "ce")) && !c.accepts(&word(&mut ab, "ab")));
        // ∅: the start state itself is the dead state
        let empty = dfa(&mut ab, "[]").to_nfa();
        assert!(empty.is_empty_lang());
    }

    #[test]
    fn minimize_ignores_columns_that_cannot_split() {
        // The same language under σ = 2 and σ = 40: the 38 all-sink
        // columns change neither the classes nor their order.
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let r = parse_regex(&mut ab, "a.a* + a.a*.b.(a+b)* + a.b").unwrap();
        let narrow = Dfa::from_nfa(&Nfa::thompson(&r), 2).minimize();
        let wide = Dfa::from_nfa(&Nfa::thompson(&r), 40).minimize();
        assert_eq!(narrow.num_states(), wide.num_states());
        assert_eq!(wide.num_states(), wide.minimize().num_states());
        assert_eq!(
            narrow.accept, wide.accept,
            "class order is σ-independent here"
        );
        for s in 0..narrow.num_states() {
            for sym in 0..2 {
                assert_eq!(narrow.trans[s * 2 + sym], wide.trans[s * 40 + sym]);
            }
        }
    }

    #[test]
    fn shortest_accepted_empty_language() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        let d = dfa(&mut ab, "[]");
        assert!(d.shortest_accepted().is_none());
        assert!(d.is_empty_lang());
    }
    /// The textbook subset construction: every subset state stepped on
    /// every symbol of `0..sigma`. The definition [`Dfa::from_nfa`] is
    /// compared with, field by field.
    fn from_nfa_dense(nfa: &Nfa, sigma: usize) -> Dfa {
        use std::collections::HashMap;
        let nfa = &nfa.trim();
        let mut states: Vec<Vec<StateId>> = vec![nfa.start_set()];
        let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
        index.insert(states[0].clone(), 0);
        let mut accept = vec![nfa.set_accepts(&states[0])];
        let mut trans: Vec<StateId> = Vec::new();
        let mut i = 0usize;
        while i < states.len() {
            let set = states[i].clone();
            for sym in 0..sigma {
                let stepped = nfa.step(&set, Symbol::from_index(sym));
                let id = match index.get(&stepped) {
                    Some(&id) => id,
                    None => {
                        let id = states.len() as StateId;
                        index.insert(stepped.clone(), id);
                        accept.push(nfa.set_accepts(&stepped));
                        states.push(stepped);
                        id
                    }
                };
                trans.push(id);
            }
            i += 1;
        }
        Dfa {
            sigma,
            start: 0,
            accept,
            trans,
        }
    }

    /// A random NFA over `used` of the `sigma` symbols: ε-cycles, states
    /// nothing reaches and states that reach nothing included.
    fn random_nfa(rng: &mut rand::rngs::StdRng, states: usize, used: &[usize]) -> Nfa {
        use rand::Rng;
        let mut n = Nfa::empty();
        for _ in 1..states {
            let accepting = rng.random_range(0..4) == 0;
            n.add_state(accepting);
        }
        let any = |rng: &mut rand::rngs::StdRng| rng.random_range(0..states) as StateId;
        for _ in 0..states * 2 {
            let (from, to) = (any(rng), any(rng));
            let sym = used[rng.random_range(0..used.len())];
            n.add_transition(from, Symbol::from_index(sym), to);
        }
        for _ in 0..states / 2 {
            let (from, to) = (any(rng), any(rng));
            n.add_eps(from, to);
            if rng.random_range(0..3) == 0 {
                n.add_eps(to, from); // an ε-cycle
            }
        }
        n
    }

    #[test]
    fn sparse_subset_construction_is_the_dense_one_state_for_state() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5BA25E);
        let (mut cases, mut with_sink, mut without_sink) = (0, 0, 0);
        for &sigma in &[1usize, 3, 13, 40] {
            for round in 0..60 {
                // Every other round leaves symbols of `0..sigma` unused.
                let used: Vec<usize> = if round % 2 == 0 {
                    (0..sigma).collect()
                } else {
                    (0..sigma).filter(|s| s % 3 != 1).collect()
                };
                let used = if used.is_empty() { vec![0] } else { used };
                let states = rng.random_range(1..=9);
                let nfa = random_nfa(&mut rng, states, &used);
                let sparse = Dfa::from_nfa(&nfa, sigma);
                let dense = from_nfa_dense(&nfa, sigma);
                assert_eq!(sparse.num_states(), dense.num_states(), "{nfa:?}");
                assert_eq!(sparse.start, dense.start);
                assert_eq!(sparse.accept, dense.accept, "{nfa:?}");
                assert_eq!(sparse.trans, dense.trans, "{nfa:?}");
                // complement ∘ complement is the identity
                let back = sparse.complement().complement();
                assert_eq!(
                    (back.accept, back.trans),
                    (sparse.accept.clone(), sparse.trans.clone())
                );
                // and membership agrees with the NFA on enumerated words
                let mut words: Vec<Vec<Symbol>> = vec![Vec::new()];
                for len in 0..3 {
                    let longest: Vec<Vec<Symbol>> =
                        words.iter().filter(|w| w.len() == len).cloned().collect();
                    for w in longest {
                        for sym in 0..sigma.min(4) {
                            let mut next = w.clone();
                            next.push(Symbol::from_index(sym));
                            words.push(next);
                        }
                    }
                }
                for w in &words {
                    assert_eq!(sparse.accepts(w), nfa.accepts(w), "{w:?} on {nfa:?}");
                    assert_eq!(sparse.complement().accepts(w), !nfa.accepts(w));
                }
                let dead = (0..sparse.num_states()).any(|s| {
                    !sparse.accept[s]
                        && (0..sigma).all(|a| sparse.trans[s * sigma + a] == s as StateId)
                });
                if dead {
                    with_sink += 1;
                } else {
                    without_sink += 1;
                }
                cases += 1;
            }
        }
        assert_eq!(cases, 240);
        assert!(
            with_sink > 0 && without_sink > 0,
            "{with_sink} / {without_sink}"
        );
    }

    #[test]
    fn symbols_beyond_sigma_are_not_stepped() {
        // The dense loop never looked at a symbol ≥ sigma; neither may the
        // sparse one (an undersized sigma drops words, it does not panic).
        let mut n = Nfa::empty();
        let t = n.add_state(true);
        n.add_transition(n.start(), Symbol::from_index(0), t);
        n.add_transition(n.start(), Symbol::from_index(5), t);
        let d = Dfa::from_nfa(&n, 2);
        let dense = from_nfa_dense(&n, 2);
        assert_eq!((d.accept, d.trans), (dense.accept, dense.trans));
    }
}
