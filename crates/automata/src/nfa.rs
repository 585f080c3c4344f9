//! Nondeterministic finite automata with ε-transitions.
//!
//! The paper's evaluation algorithm "constructs the nfsa for p and carries
//! along the set of states of the nfsa corresponding to the path traveled so
//! far" (Section 2.2); [`Nfa::start_set`] / [`Nfa::step`] are exactly that
//! operation. The builder API ([`Nfa::add_state`], [`Nfa::add_transition`],
//! [`Nfa::add_eps`], [`Nfa::add_nfa`]) is public because the constraint crate
//! constructs saturation automata (Lemmas 4.5/4.7) directly, and
//! [`Nfa::saturate`] runs their fixpoint.
//!
//! [`Nfa::eps_closure`], [`Nfa::step`] and [`Nfa::start_set`] return fresh
//! vectors, for callers that keep the sets; the constructions of this crate
//! close and step sets in the state-set arena instead (the crate docs).

use std::collections::VecDeque;

use crate::alphabet::Symbol;
use crate::regex::Regex;
use crate::sets::StateSets;

/// Dense automaton state identifier.
pub type StateId = u32;

/// An NFA over [`Symbol`]s with a single start state and ε-transitions.
#[derive(Clone, Debug)]
pub struct Nfa {
    start: StateId,
    accept: Vec<bool>,
    trans: Vec<Vec<(Symbol, StateId)>>,
    eps: Vec<Vec<StateId>>,
}

impl Nfa {
    /// An automaton with a single, non-accepting start state (language ∅).
    pub fn empty() -> Nfa {
        Nfa {
            start: 0,
            accept: vec![false],
            trans: vec![Vec::new()],
            eps: vec![Vec::new()],
        }
    }

    /// The automaton for {ε}.
    pub fn epsilon() -> Nfa {
        let mut n = Nfa::empty();
        n.accept[0] = true;
        n
    }

    /// The automaton accepting exactly `word`.
    pub fn from_word(word: &[Symbol]) -> Nfa {
        let mut n = Nfa::empty();
        let mut cur = n.start;
        for &s in word {
            let next = n.add_state(false);
            n.add_transition(cur, s, next);
            cur = next;
        }
        n.accept[cur as usize] = true;
        n
    }

    /// Thompson construction from a regular expression.
    pub fn thompson(r: &Regex) -> Nfa {
        let mut n = Nfa::empty();
        let exit = n.add_state(true);
        n.build_fragment(r, n.start, exit);
        n
    }

    fn build_fragment(&mut self, r: &Regex, from: StateId, to: StateId) {
        match r {
            Regex::Empty => {}
            Regex::Epsilon => {
                self.add_eps(from, to);
            }
            Regex::Symbol(s) => {
                self.add_transition(from, *s, to);
            }
            Regex::Concat(parts) => {
                let mut cur = from;
                for (i, p) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() {
                        to
                    } else {
                        self.add_state(false)
                    };
                    self.build_fragment(p, cur, next);
                    cur = next;
                }
            }
            Regex::Union(parts) => {
                for p in parts {
                    self.build_fragment(p, from, to);
                }
            }
            Regex::Star(inner) => {
                let hub = self.add_state(false);
                self.add_eps(from, hub);
                self.add_eps(hub, to);
                let back = self.add_state(false);
                self.build_fragment(inner, hub, back);
                self.add_eps(back, hub);
            }
        }
    }

    // ----- builder API -----

    /// Add a fresh state; returns its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        let id = self.accept.len() as StateId;
        self.accept.push(accepting);
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        id
    }

    /// Add a labeled transition. Duplicate edges are ignored.
    pub fn add_transition(&mut self, from: StateId, sym: Symbol, to: StateId) -> bool {
        let row = &mut self.trans[from as usize];
        if row.contains(&(sym, to)) {
            return false;
        }
        row.push((sym, to));
        true
    }

    /// Add an ε-transition. Duplicate edges are ignored.
    pub fn add_eps(&mut self, from: StateId, to: StateId) -> bool {
        if from == to {
            return false;
        }
        let row = &mut self.eps[from as usize];
        if row.contains(&to) {
            return false;
        }
        row.push(to);
        true
    }

    /// Copy all of `other`'s states into `self`, returning the offset that
    /// maps `other`'s ids into `self`'s. Accepting flags are preserved;
    /// `other`'s start is *not* linked — callers glue it explicitly.
    pub fn add_nfa(&mut self, other: &Nfa) -> StateId {
        let off = self.accept.len() as StateId;
        for s in 0..other.num_states() {
            self.accept.push(other.accept[s]);
            self.trans.push(
                other.trans[s]
                    .iter()
                    .map(|&(sym, t)| (sym, t + off))
                    .collect(),
            );
            self.eps
                .push(other.eps[s].iter().map(|&t| t + off).collect());
        }
        off
    }

    /// Mark or unmark a state as accepting.
    pub fn set_accepting(&mut self, s: StateId, accepting: bool) {
        self.accept[s as usize] = accepting;
    }

    /// Change the start state.
    pub fn set_start(&mut self, s: StateId) {
        assert!((s as usize) < self.accept.len());
        self.start = s;
    }

    // ----- accessors -----

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.accept.len()
    }

    /// Total number of transitions (labeled + ε).
    pub fn num_transitions(&self) -> usize {
        self.trans.iter().map(Vec::len).sum::<usize>()
            + self.eps.iter().map(Vec::len).sum::<usize>()
    }

    /// Whether `s` is accepting.
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accept[s as usize]
    }

    /// Labeled transitions out of `s`.
    pub fn transitions(&self, s: StateId) -> &[(Symbol, StateId)] {
        &self.trans[s as usize]
    }

    /// ε-transitions out of `s`.
    pub fn eps_transitions(&self, s: StateId) -> &[StateId] {
        &self.eps[s as usize]
    }

    /// All accepting states.
    pub fn accepting_states(&self) -> Vec<StateId> {
        (0..self.num_states() as StateId)
            .filter(|&s| self.accept[s as usize])
            .collect()
    }

    // ----- state-set simulation -----

    /// ε-closure of a set of states; input need not be sorted, output is a
    /// sorted, deduplicated canonical set.
    pub fn eps_closure(&self, states: &[StateId]) -> Vec<StateId> {
        StateSets::new().closure(self, states).to_vec()
    }

    /// The canonical start set (ε-closure of the start state). This is the
    /// state-set representation of the *whole query*; quotients of the query
    /// are exactly the sets reachable from it via [`Nfa::step`].
    pub fn start_set(&self) -> Vec<StateId> {
        self.eps_closure(&[self.start])
    }

    /// One symbol step of the subset simulation (with ε-closure).
    pub fn step(&self, set: &[StateId], sym: Symbol) -> Vec<StateId> {
        StateSets::new().step_slice(self, set, sym).to_vec()
    }

    /// Does the set contain an accepting state? (i.e. ε ∈ quotient.)
    pub fn set_accepts(&self, set: &[StateId]) -> bool {
        set.iter().any(|&s| self.accept[s as usize])
    }

    /// Membership test for a word.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.set_accepts(StateSets::new().read_word(self, self.start, word))
    }

    /// A saturation run to its fixpoint, the construction of the
    /// `RewriteTo` automata (the paper's Lemmas 4.5 and 4.7). A round reads
    /// each `words[i]` from `from` (ε-moves folded in at every step) and
    /// hands the states it reaches, sorted, to `wire(self, i, reached)`,
    /// which may add edges and says whether it did. The first round in
    /// which no call adds anything is the last; returns the number of
    /// rounds. Every read of every round runs on one set of closure
    /// buffers.
    pub fn saturate<F>(&mut self, from: StateId, words: &[&[Symbol]], mut wire: F) -> usize
    where
        F: FnMut(&mut Nfa, usize, &[StateId]) -> bool,
    {
        let mut sets = StateSets::new();
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut changed = false;
            for (i, word) in words.iter().enumerate() {
                let reached = sets.read_word(self, from, word);
                changed |= wire(self, i, reached);
            }
            if !changed {
                return rounds;
            }
        }
    }

    // ----- language queries -----

    /// True iff the language is empty (no accepting state reachable).
    pub fn is_empty_lang(&self) -> bool {
        self.shortest_accepted().is_none()
    }

    /// A shortest accepted word, if any (0–1 BFS over states, ε edges free).
    pub fn shortest_accepted(&self) -> Option<Vec<Symbol>> {
        #[derive(Clone)]
        struct Back {
            prev: StateId,
            sym: Option<Symbol>,
        }
        let n = self.num_states();
        let mut dist = vec![usize::MAX; n];
        let mut back: Vec<Option<Back>> = vec![None; n];
        let mut dq: VecDeque<StateId> = VecDeque::new();
        dist[self.start as usize] = 0;
        dq.push_back(self.start);
        while let Some(s) = dq.pop_front() {
            let d = dist[s as usize];
            if self.accept[s as usize] {
                // reconstruct
                let mut word = Vec::new();
                let mut cur = s;
                while cur != self.start || back[cur as usize].is_some() {
                    let Some(b) = back[cur as usize].clone() else {
                        break;
                    };
                    if let Some(sym) = b.sym {
                        word.push(sym);
                    }
                    cur = b.prev;
                }
                word.reverse();
                return Some(word);
            }
            for &t in &self.eps[s as usize] {
                if d < dist[t as usize] {
                    dist[t as usize] = d;
                    back[t as usize] = Some(Back { prev: s, sym: None });
                    dq.push_front(t);
                }
            }
            for &(sym, t) in &self.trans[s as usize] {
                if d + 1 < dist[t as usize] {
                    dist[t as usize] = d + 1;
                    back[t as usize] = Some(Back {
                        prev: s,
                        sym: Some(sym),
                    });
                    dq.push_back(t);
                }
            }
        }
        None
    }

    /// Keep only states that are both reachable from the start and
    /// co-reachable to an accepting state. Returns the trimmed automaton
    /// (canonical ∅ automaton when the language is empty).
    pub fn trim(&self) -> Nfa {
        let n = self.num_states();
        // forward reachability
        let mut fwd = vec![false; n];
        let mut stack = Vec::with_capacity(n);
        stack.push(self.start);
        fwd[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s as usize] {
                if !fwd[t as usize] {
                    fwd[t as usize] = true;
                    stack.push(t);
                }
            }
            for &(_, t) in &self.trans[s as usize] {
                if !fwd[t as usize] {
                    fwd[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        // backward from accepting, over reversed edges: the predecessors of
        // `t` are `preds[first[t]..first[t + 1]]`
        let edges = || {
            (0..n).flat_map(|s| {
                let eps = self.eps[s].iter().map(move |&t| (s, t));
                eps.chain(self.trans[s].iter().map(move |&(_, t)| (s, t)))
            })
        };
        let mut first = vec![0u32; n + 1];
        for (_, t) in edges() {
            first[t as usize] += 1;
        }
        for t in 1..=n {
            first[t] += first[t - 1];
        }
        // `first[t]` is now where `t`'s predecessors end; placing each one
        // counts it back down to where they start
        let mut preds = vec![0 as StateId; first[n] as usize];
        for (s, t) in edges() {
            first[t as usize] -= 1;
            preds[first[t as usize] as usize] = s as StateId;
        }
        let mut bwd = vec![false; n];
        stack.extend((0..n as StateId).filter(|&s| self.accept[s as usize]));
        for &s in &stack {
            bwd[s as usize] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in &preds[first[s as usize] as usize..first[s as usize + 1] as usize] {
                if !bwd[p as usize] {
                    bwd[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        // the states on some start → accept path, renumbered in order
        let mut map = vec![StateId::MAX; n];
        let mut kept = 0;
        for s in (0..n).filter(|&s| fwd[s] && bwd[s]) {
            map[s] = kept;
            kept += 1;
        }
        if map[self.start as usize] == StateId::MAX {
            return Nfa::empty();
        }
        let mut out = Nfa {
            start: map[self.start as usize],
            accept: Vec::with_capacity(kept as usize),
            trans: Vec::with_capacity(kept as usize),
            eps: Vec::with_capacity(kept as usize),
        };
        for s in (0..n).filter(|&s| map[s] != StateId::MAX) {
            out.accept.push(self.accept[s]);
            out.trans.push(
                self.trans[s]
                    .iter()
                    .filter(|&&(_, t)| map[t as usize] != StateId::MAX)
                    .map(|&(sym, t)| (sym, map[t as usize]))
                    .collect(),
            );
            out.eps.push(
                self.eps[s]
                    .iter()
                    .filter(|&&t| map[t as usize] != StateId::MAX)
                    .map(|&t| map[t as usize])
                    .collect(),
            );
        }
        out
    }

    /// The reversed-language automaton.
    ///
    /// **Stable state numbering:** the result has exactly
    /// `num_states() + 1` states; state 0 is a fresh start (ε-wired to the
    /// images of the accepting states) and state `i` of `self` becomes
    /// state `i + 1`.
    pub fn reverse(&self) -> Nfa {
        let n = self.num_states();
        let mut out = Nfa {
            start: 0,
            accept: vec![false; n + 1],
            trans: vec![Vec::new(); n + 1],
            eps: vec![Vec::new(); n + 1],
        };
        // state i of self becomes state i+1 of out; state 0 is the new start
        for s in 0..n {
            for &(sym, t) in &self.trans[s] {
                out.trans[t as usize + 1].push((sym, s as StateId + 1));
            }
            for &t in &self.eps[s] {
                out.eps[t as usize + 1].push(s as StateId + 1);
            }
            if self.accept[s] {
                out.eps[0].push(s as StateId + 1);
            }
        }
        out.accept[self.start as usize + 1] = true;
        out
    }

    /// The labels on transitions out of the ε-closure of the start state,
    /// sorted and deduplicated. On an automaton that is trim
    /// ([`Nfa::trim`], or [`Nfa::reverse`] of one) these are exactly the
    /// symbols an accepted word can begin with — the cost input for
    /// direction planning: a forward product search pays for edges matching
    /// the first symbols, a backward search (over the reversed automaton)
    /// for edges matching the last. On any other automaton a superset — a
    /// label that leads nowhere is counted too.
    pub fn entry_symbols(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = StateSets::new()
            .closure(self, &[self.start])
            .iter()
            .flat_map(|&q| self.trans[q as usize].iter().map(|&(sym, _)| sym))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Union of two automata (fresh start with ε-edges to both).
    pub fn union(a: &Nfa, b: &Nfa) -> Nfa {
        let mut out = Nfa::empty();
        let oa = out.add_nfa(a);
        let ob = out.add_nfa(b);
        out.add_eps(out.start, a.start + oa);
        out.add_eps(out.start, b.start + ob);
        out
    }

    /// Concatenation `a·b`.
    pub fn concat(a: &Nfa, b: &Nfa) -> Nfa {
        let mut out = Nfa::empty();
        let oa = out.add_nfa(a);
        let ob = out.add_nfa(b);
        out.add_eps(out.start, a.start + oa);
        for s in 0..a.num_states() {
            if a.accept[s] {
                out.accept[s + oa as usize] = false;
                out.add_eps(s as StateId + oa, b.start + ob);
            }
        }
        out
    }

    /// Kleene closure of `a`.
    pub fn star(a: &Nfa) -> Nfa {
        let mut out = Nfa::empty();
        out.accept[0] = true;
        let oa = out.add_nfa(a);
        out.add_eps(out.start, a.start + oa);
        for s in 0..a.num_states() {
            if a.accept[s] {
                out.add_eps(s as StateId + oa, out.start);
            }
        }
        out
    }

    /// Product automaton for intersection: accepts L(a) ∩ L(b). Only pairs
    /// reachable from (start, start) are materialized.
    pub fn intersection(a: &Nfa, b: &Nfa) -> Nfa {
        let mut out = Nfa::empty();
        let mut map: std::collections::HashMap<(StateId, StateId), StateId> =
            std::collections::HashMap::new();
        let start_pair = (a.start, b.start);
        map.insert(start_pair, out.start);
        out.accept[0] = a.accept[a.start as usize] && b.accept[b.start as usize];
        let mut queue = vec![start_pair];
        while let Some((sa, sb)) = queue.pop() {
            let from = map[&(sa, sb)];
            let push = |out: &mut Nfa,
                        map: &mut std::collections::HashMap<(StateId, StateId), StateId>,
                        queue: &mut Vec<(StateId, StateId)>,
                        pair: (StateId, StateId)|
             -> StateId {
                *map.entry(pair).or_insert_with(|| {
                    queue.push(pair);
                    out.add_state(a.accept[pair.0 as usize] && b.accept[pair.1 as usize])
                })
            };
            for &t in &a.eps[sa as usize] {
                let to = push(&mut out, &mut map, &mut queue, (t, sb));
                out.add_eps(from, to);
            }
            for &t in &b.eps[sb as usize] {
                let to = push(&mut out, &mut map, &mut queue, (sa, t));
                out.add_eps(from, to);
            }
            for &(sym, ta) in &a.trans[sa as usize] {
                for &(sym2, tb) in &b.trans[sb as usize] {
                    if sym == sym2 {
                        let to = push(&mut out, &mut map, &mut queue, (ta, tb));
                        out.add_transition(from, sym, to);
                    }
                }
            }
        }
        out
    }

    /// States of `self` reachable from its start by some word in `L(filter)`.
    /// Used by the constraint saturation procedures: "the set of states q
    /// such that some y ∈ L(Q) leads from the start to q".
    ///
    /// A walk of the product `self × filter`; visited pairs are one bit
    /// each of a `|Q| · |Q_f|` table (both automata are tens of states on
    /// the planner's path, where this runs once per cache and cold plan).
    pub fn reachable_via(&self, filter: &Nfa) -> Vec<StateId> {
        let width = filter.num_states();
        let mut seen = vec![0u64; (self.num_states() * width).div_ceil(64)];
        let mut stack: Vec<(StateId, StateId)> = Vec::new();
        let mut visit = |stack: &mut Vec<(StateId, StateId)>, s: StateId, f: StateId| {
            let bit = s as usize * width + f as usize;
            if seen[bit / 64] & (1 << (bit % 64)) == 0 {
                seen[bit / 64] |= 1 << (bit % 64);
                stack.push((s, f));
            }
        };
        visit(&mut stack, self.start, filter.start);
        let mut hits = vec![false; self.num_states()];
        while let Some((s, f)) = stack.pop() {
            if filter.accept[f as usize] {
                hits[s as usize] = true;
            }
            for &t in &self.eps[s as usize] {
                visit(&mut stack, t, f);
            }
            for &t in &filter.eps[f as usize] {
                visit(&mut stack, s, t);
            }
            for &(sym, ts) in &self.trans[s as usize] {
                for &(sym2, tf) in &filter.trans[f as usize] {
                    if sym == sym2 {
                        visit(&mut stack, ts, tf);
                    }
                }
            }
        }
        (0..self.num_states() as StateId)
            .filter(|&s| hits[s as usize])
            .collect()
    }

    /// True iff the language is finite: no symbol edge of the trimmed
    /// automaton lies on a cycle.
    pub fn is_finite_lang(&self) -> bool {
        self.trim().pumpless_components().is_some()
    }

    /// The strongly connected components of the automaton (over ε and
    /// symbol edges alike), or `None` when a symbol edge lies inside one.
    /// Cycles of pure ε edges pump no word, so on a trim automaton `None`
    /// is exactly "the language is infinite".
    fn pumpless_components(&self) -> Option<Vec<usize>> {
        let scc = strongly_connected_components(self.num_states(), |s, f| {
            for &e in &self.eps[s] {
                f(e as usize);
            }
            for &(_, e) in &self.trans[s] {
                f(e as usize);
            }
        });
        let pumps = (0..self.num_states()).any(|s| {
            self.trans[s]
                .iter()
                .any(|&(_, e)| scc[s] == scc[e as usize])
        });
        (!pumps).then_some(scc)
    }

    /// Length of the longest accepted word: `Some(len)` when the language
    /// is finite and non-empty, `None` when it is infinite or empty. This
    /// is the exact depth cap for bounded-depth product evaluation of
    /// finite-language queries: no answer can lie deeper than the longest
    /// word the automaton accepts.
    pub fn longest_accepted_len(&self) -> Option<usize> {
        let t = &self.trim();
        if !t.accept.iter().any(|&a| a) {
            return None; // empty language: no word to bound
        }
        // a pumpable symbol cycle: infinite language
        let scc = t.pumpless_components()?;
        let ncomp = scc.iter().map(|&c| c + 1).max().unwrap_or(0);
        // Tarjan numbers components in reverse topological order: every
        // cross-component edge u→v has scc[v] < scc[u], so one sweep over
        // components in decreasing index order relaxes longest-path
        // distances in topological order (symbol edges weigh 1, ε weighs 0;
        // surviving cycles are ε-only and cannot change a distance).
        const UNREACH: isize = isize::MIN;
        let mut dist = vec![UNREACH; ncomp];
        dist[scc[t.start as usize]] = 0;
        let mut by_comp: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
        for (s, &c) in scc.iter().enumerate() {
            by_comp[c].push(s);
        }
        let mut best: isize = UNREACH;
        for c in (0..ncomp).rev() {
            if dist[c] == UNREACH {
                continue;
            }
            for &s in &by_comp[c] {
                if t.accept[s] {
                    best = best.max(dist[c]);
                }
                for &e in &t.eps[s] {
                    let tc = scc[e as usize];
                    if dist[c] > dist[tc] {
                        dist[tc] = dist[c];
                    }
                }
                for &(_, e) in &t.trans[s] {
                    let tc = scc[e as usize];
                    if dist[c] + 1 > dist[tc] {
                        dist[tc] = dist[c] + 1;
                    }
                }
            }
        }
        (best != UNREACH).then_some(best as usize)
    }

    /// The set of symbols appearing on any transition of the automaton
    /// (dead states included). Sorted and deduplicated.
    pub fn symbols(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self
            .trans
            .iter()
            .flat_map(|row| row.iter().map(|&(sym, _)| sym))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Enumerate accepted words in nondecreasing length order, up to
    /// `max_len`, returning at most `cap` words. Deterministic order (length,
    /// then symbol indices). Mostly a testing and boundedness-construction
    /// aid; cost is exponential in `max_len` in the worst case.
    ///
    /// The search keeps one entry per word it extends — the entry it
    /// extends, its last symbol and the interned state set it reaches — and
    /// spells a word out only when it returns it.
    pub fn enumerate_words(&self, max_len: usize, cap: usize) -> Vec<Vec<Symbol>> {
        struct Entry {
            parent: usize,
            sym: Symbol,
            set: crate::sets::SetId,
        }
        let spell = |entries: &[Entry], mut e: usize, len: usize| {
            let mut word = vec![entries[e].sym; len];
            for slot in word.iter_mut().rev() {
                *slot = entries[e].sym;
                e = entries[e].parent;
            }
            word
        };
        // Frontier safety valve: a layer keeps its first `frontier_cap` words.
        let frontier_cap = cap.saturating_mul(8).max(4096);
        let mut out = Vec::new();
        let mut sets = StateSets::new();
        let (start, _) = sets.close(self, &[self.start]);
        let mut entries = vec![Entry {
            parent: usize::MAX,
            sym: Symbol::from_index(0),
            set: start,
        }];
        let mut syms: Vec<Symbol> = Vec::new();
        let mut layer = 0..1;
        for len in 0..=max_len {
            for e in layer.clone() {
                if self.set_accepts(sets.get(entries[e].set)) {
                    out.push(spell(&entries, e, len));
                    if out.len() >= cap {
                        return out;
                    }
                }
            }
            if len == max_len {
                break;
            }
            let next = entries.len();
            'layer: for e in layer {
                let set = entries[e].set;
                syms.clear();
                for &s in sets.get(set) {
                    syms.extend(self.trans[s as usize].iter().map(|&(sym, _)| sym));
                }
                syms.sort_unstable();
                syms.dedup();
                for &sym in &syms {
                    if entries.len() - next == frontier_cap {
                        break 'layer;
                    }
                    // never empty: some member moves on `sym`
                    let (stepped, _) = sets.step(self, set, sym);
                    entries.push(Entry {
                        parent: e,
                        sym,
                        set: stepped,
                    });
                }
            }
            layer = next..entries.len();
            if layer.is_empty() {
                break;
            }
        }
        out
    }
}

/// Tarjan SCC over a graph given by a successor callback. Returns the
/// component index of each node (components are numbered arbitrarily).
pub fn strongly_connected_components<F>(n: usize, succ: F) -> Vec<usize>
where
    F: Fn(usize, &mut dyn FnMut(usize)),
{
    // Iterative Tarjan to avoid recursion limits on large automata.
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![UNSET; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        // call stack: (node, iterator position over successors)
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            // collect successors each visit (cheap for our small degrees)
            let mut succs = Vec::new();
            succ(v, &mut |w| succs.push(w));
            if *pos < succs.len() {
                let w = succs[*pos];
                *pos += 1;
                if index[w] == UNSET {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("scc stack non-empty");
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::parser::parse_regex;

    fn re(ab: &mut Alphabet, s: &str) -> Regex {
        parse_regex(ab, s).unwrap()
    }

    fn w(ab: &mut Alphabet, s: &str) -> Vec<Symbol> {
        if s.is_empty() {
            vec![]
        } else {
            s.chars().map(|c| ab.intern(&c.to_string())).collect()
        }
    }

    #[test]
    fn thompson_accepts_expected_words() {
        let mut ab = Alphabet::new();
        let r = re(&mut ab, "a.(b+c)*.d");
        let n = Nfa::thompson(&r);
        assert!(n.accepts(&w(&mut ab, "ad")));
        assert!(n.accepts(&w(&mut ab, "abd")));
        assert!(n.accepts(&w(&mut ab, "abcbcd")));
        assert!(!n.accepts(&w(&mut ab, "a")));
        assert!(!n.accepts(&w(&mut ab, "d")));
        assert!(!n.accepts(&w(&mut ab, "abdd")));
    }

    #[test]
    fn epsilon_and_empty_languages() {
        let mut ab = Alphabet::new();
        let e = Nfa::thompson(&re(&mut ab, "()"));
        assert!(e.accepts(&[]));
        assert!(!e.accepts(&w(&mut ab, "a")));
        let v = Nfa::thompson(&re(&mut ab, "[]"));
        assert!(!v.accepts(&[]));
        assert!(v.is_empty_lang());
        assert!(!e.is_empty_lang());
    }

    #[test]
    fn shortest_accepted_finds_minimum() {
        let mut ab = Alphabet::new();
        let r = re(&mut ab, "a.a.a + b.b");
        let n = Nfa::thompson(&r);
        assert_eq!(n.shortest_accepted().unwrap().len(), 2);
        let r2 = re(&mut ab, "c* ");
        assert_eq!(Nfa::thompson(&r2).shortest_accepted().unwrap().len(), 0);
    }

    #[test]
    fn step_tracks_quotients() {
        let mut ab = Alphabet::new();
        let r = re(&mut ab, "a.b*");
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let n = Nfa::thompson(&r);
        let s0 = n.start_set();
        assert!(!n.set_accepts(&s0));
        let s1 = n.step(&s0, a);
        assert!(n.set_accepts(&s1)); // ε ∈ b*
        let s2 = n.step(&s1, b);
        assert!(n.set_accepts(&s2));
        let dead = n.step(&s1, a);
        assert!(dead.is_empty());
    }

    #[test]
    fn union_concat_star_combinators() {
        let mut ab = Alphabet::new();
        let na = Nfa::thompson(&re(&mut ab, "a"));
        let nb = Nfa::thompson(&re(&mut ab, "b"));
        let u = Nfa::union(&na, &nb);
        assert!(u.accepts(&w(&mut ab, "a")));
        assert!(u.accepts(&w(&mut ab, "b")));
        assert!(!u.accepts(&w(&mut ab, "ab")));
        let c = Nfa::concat(&na, &nb);
        assert!(c.accepts(&w(&mut ab, "ab")));
        assert!(!c.accepts(&w(&mut ab, "a")));
        let s = Nfa::star(&c);
        assert!(s.accepts(&[]));
        assert!(s.accepts(&w(&mut ab, "abab")));
        assert!(!s.accepts(&w(&mut ab, "aba")));
    }

    #[test]
    fn entry_symbols_of_trim_automata() {
        let mut ab = Alphabet::new();
        let n = Nfa::thompson(&re(&mut ab, "a.(b+c)*.d")).trim();
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let c = ab.get("c").unwrap();
        let d = ab.get("d").unwrap();
        assert_eq!(n.entry_symbols(), vec![a]);
        assert_eq!(n.reverse().entry_symbols(), vec![d]);
        // stars make both ends porous
        let star = Nfa::thompson(&re(&mut ab, "(a+b)*.c")).trim();
        assert_eq!(star.entry_symbols(), vec![a, b, c]);
        assert_eq!(star.reverse().entry_symbols(), vec![c]);
        // dead branches contribute nothing once trimmed
        let dead = Nfa::thompson(&re(&mut ab, "a + b.[]"));
        assert_eq!(dead.trim().entry_symbols(), vec![a]);
        assert_eq!(dead.trim().reverse().entry_symbols(), vec![a]);
    }

    #[test]
    fn reverse_language() {
        let mut ab = Alphabet::new();
        let n = Nfa::thompson(&re(&mut ab, "a.b.c"));
        let r = n.reverse();
        assert!(r.accepts(&w(&mut ab, "cba")));
        assert!(!r.accepts(&w(&mut ab, "abc")));
    }

    #[test]
    fn intersection_products() {
        let mut ab = Alphabet::new();
        let n1 = Nfa::thompson(&re(&mut ab, "a*.b"));
        let n2 = Nfa::thompson(&re(&mut ab, "a.a*.b + b"));
        let i = Nfa::intersection(&n1, &n2);
        assert!(i.accepts(&w(&mut ab, "ab")));
        assert!(i.accepts(&w(&mut ab, "b")));
        assert!(i.accepts(&w(&mut ab, "aab")));
        assert!(!i.accepts(&w(&mut ab, "a")));
        let n3 = Nfa::thompson(&re(&mut ab, "c"));
        assert!(Nfa::intersection(&n1, &n3).is_empty_lang());
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut n = Nfa::empty();
        let acc = n.add_state(true);
        let dead = n.add_state(false);
        n.add_transition(n.start(), a, acc);
        n.add_transition(n.start(), a, dead); // dead end
        let t = n.trim();
        assert_eq!(t.num_states(), 2);
        assert!(t.accepts(&[a]));
    }

    #[test]
    fn finiteness_detection() {
        let mut ab = Alphabet::new();
        assert!(Nfa::thompson(&re(&mut ab, "a.b + c")).is_finite_lang());
        assert!(!Nfa::thompson(&re(&mut ab, "a.b*")).is_finite_lang());
        assert!(Nfa::thompson(&re(&mut ab, "[]")).is_finite_lang());
        // star of epsilon is finite
        assert!(Nfa::thompson(&re(&mut ab, "()*")).is_finite_lang());
        // unreachable cycles don't count
        let a = ab.get("a").unwrap();
        let mut n = Nfa::thompson(&re(&mut ab, "a"));
        let s1 = n.add_state(false);
        n.add_transition(s1, a, s1); // disconnected loop
        assert!(n.is_finite_lang());
    }

    #[test]
    fn longest_accepted_len_matches_language() {
        let mut ab = Alphabet::new();
        // finite: longest word is a.b.c (3) even with a shorter arm
        let n = Nfa::thompson(&re(&mut ab, "a.b.c + a"));
        assert_eq!(n.longest_accepted_len(), Some(3));
        // ε-only language
        assert_eq!(
            Nfa::thompson(&re(&mut ab, "()")).longest_accepted_len(),
            Some(0)
        );
        // star of ε is still finite with max length 0
        assert_eq!(
            Nfa::thompson(&re(&mut ab, "()*")).longest_accepted_len(),
            Some(0)
        );
        // infinite and empty languages have no bound
        assert_eq!(
            Nfa::thompson(&re(&mut ab, "a.b*")).longest_accepted_len(),
            None
        );
        assert_eq!(
            Nfa::thompson(&re(&mut ab, "[]")).longest_accepted_len(),
            None
        );
        // dead recursive branch does not spoil the bound
        let n = Nfa::thompson(&re(&mut ab, "a.b + c.c*.[]"));
        assert_eq!(n.longest_accepted_len(), Some(2));
    }

    #[test]
    fn symbols_lists_all_transition_labels() {
        let mut ab = Alphabet::new();
        let n = Nfa::thompson(&re(&mut ab, "a.(b+c)*.d"));
        let syms: Vec<String> = n
            .symbols()
            .iter()
            .map(|&s| ab.name(s).to_string())
            .collect();
        assert_eq!(syms, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn enumerate_words_in_order() {
        let mut ab = Alphabet::new();
        let n = Nfa::thompson(&re(&mut ab, "a.b* + b"));
        let words = n.enumerate_words(3, 100);
        let rendered: Vec<String> = words.iter().map(|w| ab.render_word(w)).collect();
        assert_eq!(rendered, vec!["a", "b", "a.b", "a.b.b"]);
    }

    #[test]
    fn reachable_via_filters_by_language() {
        let mut ab = Alphabet::new();
        // self: chain a b c; filter: a.b
        let n = Nfa::thompson(&re(&mut ab, "a.b.c"));
        let f = Nfa::thompson(&re(&mut ab, "a.b"));
        let hits = n.reachable_via(&f);
        // Exactly the states at "distance a.b" from start should be hit.
        assert!(!hits.is_empty());
        // From each hit state, reading c must reach acceptance.
        let c = ab.get("c").unwrap();
        let set = n.eps_closure(&hits);
        let after = n.step(&set, c);
        assert!(n.set_accepts(&after));
    }

    /// The result vector by its definition: `s` is hit iff some word of
    /// `L(filter)` (up to a length that covers these automata) leads from
    /// the start to a set containing `s`.
    fn reachable_via_by_words(n: &Nfa, filter: &Nfa) -> Vec<StateId> {
        let mut hits = vec![false; n.num_states()];
        for w in filter.enumerate_words(6, 4096) {
            let mut set = n.start_set();
            for &sym in &w {
                set = n.step(&set, sym);
            }
            for s in set {
                hits[s as usize] = true;
            }
        }
        (0..n.num_states() as StateId)
            .filter(|&s| hits[s as usize])
            .collect()
    }

    #[test]
    fn reachable_via_survives_eps_cycles_on_both_sides() {
        let mut ab = Alphabet::new();
        let (a, b) = (ab.intern("a"), ab.intern("b"));
        // self: 0 ⇄ε 1 -a→ 2 ⇄ε 3 -b→ 4, with 2 -a→ 2
        let mut n = Nfa::empty();
        for _ in 0..4 {
            n.add_state(false);
        }
        n.set_accepting(4, true);
        n.add_eps(0, 1);
        n.add_eps(1, 0);
        n.add_transition(1, a, 2);
        n.add_transition(2, a, 2);
        n.add_eps(2, 3);
        n.add_eps(3, 2);
        n.add_transition(3, b, 4);
        // filter: a.a* with an ε-cycle between its two a-states
        let mut f = Nfa::empty();
        let f1 = f.add_state(true);
        let f2 = f.add_state(false);
        f.add_transition(f.start(), a, f1);
        f.add_eps(f1, f2);
        f.add_eps(f2, f1);
        f.add_transition(f2, a, f1);
        assert_eq!(n.reachable_via(&f), vec![2, 3]);
        assert_eq!(n.reachable_via(&f), reachable_via_by_words(&n, &f));
        // and against the definition on Thompson automata with stars
        for (q, r) in [
            ("(a.b)*.a", "(a.b)*"),
            ("a*.b*", "a.a + b"),
            ("(a+b)*", "()"),
        ] {
            let n = Nfa::thompson(&re(&mut ab, q));
            let f = Nfa::thompson(&re(&mut ab, r));
            assert_eq!(
                n.reachable_via(&f),
                reachable_via_by_words(&n, &f),
                "{q} via {r}"
            );
        }
    }

    #[test]
    fn reachable_via_an_empty_filter_hits_nothing() {
        let mut ab = Alphabet::new();
        let n = Nfa::thompson(&re(&mut ab, "a.b*"));
        // L(filter) = ∅: no word, no hit — not even the start.
        assert!(n.reachable_via(&Nfa::empty()).is_empty());
        assert!(n.reachable_via(&Nfa::thompson(&Regex::Empty)).is_empty());
        // L(filter) = {ε}: the ε-closure of the start.
        assert_eq!(n.reachable_via(&Nfa::epsilon()), n.start_set());
        // a filter word the automaton cannot read
        let z = Nfa::thompson(&re(&mut ab, "z"));
        assert!(n.reachable_via(&z).is_empty());
    }

    #[test]
    fn add_nfa_glues_with_offset() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let base = Nfa::from_word(&[a]);
        let mut big = Nfa::empty();
        let off = big.add_nfa(&base);
        big.add_eps(big.start(), base.start() + off);
        big.set_accepting(off + 1, true);
        assert!(big.accepts(&[a]));
    }

    #[test]
    fn scc_helper_identifies_components() {
        // 0 -> 1 -> 2 -> 0 cycle, 3 isolated
        let edges = [vec![1], vec![2], vec![0], vec![]];
        let comp = strongly_connected_components(4, |v, f| {
            for &w in &edges[v] {
                f(w);
            }
        });
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }
}
