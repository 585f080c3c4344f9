//! The prefix rewrite system `→_E` and the `RewriteTo` automata
//! (Lemmas 4.4, 4.5, 4.7).
//!
//! Each word inclusion `u ⊆ v` contributes a rewrite rule `u → v` applied
//! *to prefixes only*: `x·w → y·w` when `x → y ∈ E`. Lemma 4.4 proves
//! `E ⊨ u ⊆ v  iff  u →*_E v` — prefix rewriting is sound and complete for
//! word-constraint implication.
//!
//! Lemma 4.5/4.7 show `RewriteTo(p) = {u | ∃v ∈ L(p): u →*_E v}` is regular,
//! via a PDA that loads the input on its stack and rewrites prefixes. We
//! implement the equivalent *pre\*-saturation* directly on an NFA: starting
//! from an automaton for `L(p)` rooted at a start state `s₀`, add (once per
//! rule) a chain spelling the rule's left-hand side out of `s₀`, and then
//! saturate: whenever the rule's right-hand side can be read from `s₀` to a
//! state `t`, connect the chain's last transition to `t`. The construction
//! is polynomial and yields exactly `pre*(L(p))` under prefix rewriting —
//! the same language as the paper's PDA argument.
//!
//! [`rewrite_closure_nfa`] generalizes the saturation to regex-sided rules.
//! On a set of word constraints it wires each rule exactly as
//! [`rewrite_to_nfa`] does (ε-edges from the left-hand side's exits instead
//! of a last labelled edge), so it accepts `RewriteTo(p)` itself; the
//! implication deciders read it through the plan-scoped memo [`Closures`].

use std::cell::{Cell, RefCell};

use rpq_automata::ops::included_antichain;
use rpq_automata::{Alphabet, Nfa, Regex, StateId, Symbol};

use crate::types::{ClosureRhs, ConstraintKind, ConstraintSet, PathConstraint};

/// A word-level prefix rewrite system extracted from a constraint set.
#[derive(Clone, Debug, Default)]
pub struct RewriteSystem {
    /// Rules `lhs → rhs` (words).
    pub rules: Vec<(Vec<Symbol>, Vec<Symbol>)>,
}

impl RewriteSystem {
    /// Extract the rules from the *word* constraints of `E` (an inclusion
    /// `u ⊆ v` gives `u → v`; an equality gives both directions). Non-word
    /// constraints are ignored — callers that need exactness must check
    /// [`ConstraintSet::all_word_constraints`] first.
    ///
    /// Dedup is hash-based, so extraction is linear in the total rule size
    /// — constraint sets with thousands of (often duplicated) word
    /// constraints no longer pay the quadratic `Vec::contains` scan per
    /// rule (bench `t2_word_implication`, `rewrite_system_build` series).
    pub fn from_constraints(set: &ConstraintSet) -> RewriteSystem {
        let mut rules = Vec::new();
        let mut seen: std::collections::HashSet<(Vec<Symbol>, Vec<Symbol>)> =
            std::collections::HashSet::new();
        for c in set.iter() {
            if let Some((u, v)) = c.as_word_pair() {
                let as_constraint = PathConstraint {
                    lhs: Regex::word(&u),
                    rhs: Regex::word(&v),
                    kind: c.kind,
                };
                for (l, r) in as_constraint.as_inclusions() {
                    let rule = (
                        l.as_word().expect("word constraint"),
                        r.as_word().expect("word constraint"),
                    );
                    if seen.insert(rule.clone()) {
                        rules.push(rule);
                    }
                }
            }
        }
        RewriteSystem { rules }
    }

    /// One-step successors of `w` under prefix rewriting (first-application
    /// order, deduplicated). Allocates once per *distinct* successor; the
    /// duplicate check is a hash probe, not a linear scan of the output.
    pub fn step(&self, w: &[Symbol]) -> Vec<Vec<Symbol>> {
        let mut out: Vec<Vec<Symbol>> = Vec::new();
        let mut seen: std::collections::HashSet<Vec<Symbol>> = std::collections::HashSet::new();
        for (lhs, rhs) in &self.rules {
            if w.len() >= lhs.len() && &w[..lhs.len()] == lhs.as_slice() {
                let mut next = Vec::with_capacity(rhs.len() + w.len() - lhs.len());
                next.extend_from_slice(rhs);
                next.extend_from_slice(&w[lhs.len()..]);
                if seen.insert(next.clone()) {
                    out.push(next);
                }
            }
        }
        out
    }

    /// BFS derivation `u →* v` with an explicit witness chain (a
    /// *certificate* for the implication `E ⊨ u ⊆ v`). Bounded by
    /// `max_visited` distinct words and by an intermediate-word length cap
    /// (word-growing rules make the frontier explode otherwise) — use
    /// [`rewrite_to_word_nfa`] for the unbounded decision (PTIME); this is
    /// the explainability path.
    pub fn derive(
        &self,
        u: &[Symbol],
        v: &[Symbol],
        max_visited: usize,
    ) -> Option<Vec<Vec<Symbol>>> {
        use std::collections::{HashMap, VecDeque};
        if u == v {
            return Some(vec![u.to_vec()]);
        }
        let max_rhs = self.rules.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
        let max_len = u.len().max(v.len()) + 4 * (max_rhs + 1) + 8;
        let mut parent: HashMap<Vec<Symbol>, Vec<Symbol>> = HashMap::new();
        let mut queue: VecDeque<Vec<Symbol>> = VecDeque::new();
        queue.push_back(u.to_vec());
        parent.insert(u.to_vec(), Vec::new()); // sentinel
        let mut visited = 0usize;
        while let Some(w) = queue.pop_front() {
            visited += 1;
            if visited > max_visited {
                return None;
            }
            if w.len() > max_len {
                continue;
            }
            for next in self.step(&w) {
                if parent.contains_key(&next) {
                    continue;
                }
                parent.insert(next.clone(), w.clone());
                if next == v {
                    // reconstruct chain
                    let mut chain = vec![next.clone()];
                    let mut cur = w.clone();
                    loop {
                        chain.push(cur.clone());
                        let p = parent[&cur].clone();
                        if p.is_empty() && cur == u {
                            break;
                        }
                        cur = p;
                    }
                    chain.reverse();
                    return Some(chain);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Total length of all left-hand sides (the paper's `N` ingredient for
    /// the K-sphere radius: the `RewriteTo` NFA has at most
    /// `|target| + Σ|lhs| + 1` states).
    pub fn total_lhs_len(&self) -> usize {
        self.rules.iter().map(|(l, _)| l.len()).sum()
    }

    /// Render the rules.
    pub fn render(&self, alphabet: &Alphabet) -> String {
        self.rules
            .iter()
            .map(|(l, r)| format!("{} -> {}", alphabet.render_word(l), alphabet.render_word(r)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The saturated automaton for `RewriteTo(target)` together with the
/// bookkeeping needed to answer membership and size questions.
#[derive(Clone, Debug)]
pub struct RewriteToAutomaton {
    /// Accepts exactly `{u | ∃v ∈ L(target): u →*_E v}`.
    pub nfa: Nfa,
    /// Saturation rounds until fixpoint (diagnostic).
    pub rounds: usize,
    /// Transitions added by saturation (diagnostic).
    pub added_edges: usize,
    /// The accepting state the exits of the set's `P ⊆ ∅` rules lead to,
    /// looping on every symbol of the set and the target; `None` when the
    /// set has no such rule (and always for [`rewrite_to_nfa`]). Any word
    /// may follow it, so a tester adds loops for its own symbols first.
    pub universal: Option<StateId>,
}

/// Build `RewriteTo(p)` for a regular target by pre\*-saturation
/// (Lemma 4.7). For a single word target use [`rewrite_to_word_nfa`].
pub fn rewrite_to_nfa(target: &Nfa, rules: &RewriteSystem) -> RewriteToAutomaton {
    // The saturation requires a single designated root out of which both the
    // target language and the rule chains are read.
    let mut nfa = Nfa::empty();
    let off = nfa.add_nfa(target);
    let root = nfa.start();
    nfa.add_eps(root, target.start() + off);

    // Per-rule chain states: root --x1--> c1 --x2--> ... --x_{m-1}--> c_{m-1};
    // `tail[i]` is (state, last symbol) so saturation adds `state --xm--> t`.
    enum Tail {
        Edge(StateId, Symbol),
        Epsilon, // lhs = ε: saturation adds ε-edges from root
    }
    let mut tails: Vec<Tail> = Vec::with_capacity(rules.rules.len());
    for (lhs, _) in &rules.rules {
        if lhs.is_empty() {
            tails.push(Tail::Epsilon);
            continue;
        }
        let mut cur = root;
        for &sym in &lhs[..lhs.len() - 1] {
            let next = nfa.add_state(false);
            nfa.add_transition(cur, sym, next);
            cur = next;
        }
        tails.push(Tail::Edge(cur, *lhs.last().expect("non-empty lhs")));
    }

    // Saturate: for each rule, find all states reachable from the root by
    // reading the rule's rhs (a word), and wire the chain tail to them.
    let rhs: Vec<&[Symbol]> = rules.rules.iter().map(|(_, r)| r.as_slice()).collect();
    let mut added_edges = 0usize;
    let rounds = nfa.saturate(root, &rhs, |nfa, i, targets| {
        let mut changed = false;
        for &t in targets {
            let added = match &tails[i] {
                Tail::Edge(state, sym) => nfa.add_transition(*state, *sym, t),
                Tail::Epsilon => nfa.add_eps(root, t),
            };
            if added {
                added_edges += 1;
                changed = true;
            }
        }
        changed
    });

    RewriteToAutomaton {
        nfa,
        rounds,
        added_edges,
        universal: None,
    }
}

/// `RewriteTo(v)` for a single word `v` (Lemma 4.5).
pub fn rewrite_to_word_nfa(v: &[Symbol], rules: &RewriteSystem) -> RewriteToAutomaton {
    rewrite_to_nfa(&Nfa::from_word(v), rules)
}

/// Pre\*-saturation closure of `target` under the *full* constraint set —
/// the Lemma 4.7 construction generalized from word rules to regular-side
/// rules, with the polarity certification demands: the returned automaton
/// accepts only words `u` with `E ⊨ answers(u) ⊆ answers(target)` at the
/// constrained source, so `L(q) ⊆ L(closure)` *soundly* certifies
/// `E ⊨ q ⊆ target`.
///
/// Each inclusion `P ⊆ R` of `set` (equalities contribute both directions)
/// is embedded as a non-accepting fragment reading `L(P)` out of the root;
/// how its exits are wired depends on the shape of `R`:
///
/// * **Single-word `R = {r}`** — answer semantics are right-congruent
///   (`answers(P) ⊆ answers(r)` gives `answers(x·w) ⊆ answers(r·w)` for
///   every `x ∈ L(P)`), so the exits are ε-wired to every state the root
///   reaches by reading `r` — the word saturation of [`rewrite_to_nfa`].
///   Only ε-edges over a fixed state set are added, so this runs to its
///   exact fixpoint. It and [`rewrite_to_nfa`] run on [`Nfa::saturate`],
///   which closes and steps every read of every round in one set of
///   buffers.
/// * **Multi-word `R`** — the constraint only promises an `R`-path
///   spelling *some* word of `L(R)`, so a continuation `w` is certified
///   after `L(P)` only when `y·w` is already certified for **every**
///   `y ∈ L(R)`. (Existential wiring here is unsound: under `{a = b + c}`
///   it would certify `a.x ⊆ b.x`, which the satisfying instance
///   `s -a→ m, s -c→ m, m -x→ t` refutes.) The universal continuation
///   language `K = {w | ∀y ∈ L(R): y·w ∈ L(closure)}` is computed by
///   `universal_continuations` and attached behind the exits as a fresh
///   sub-automaton. Since that adds states, the outer loop re-runs word
///   saturation and re-derives `K` until nothing new is certified or a
///   round cap is hit; capping — like skipping a rule whose construction
///   exceeds its budget — loses only completeness, never soundness.
/// * **`R = ∅`** — `answers(P) = ∅` at a satisfying site, so no `x·w` with
///   `x ∈ L(P)` has an answer, and each is certified whatever the target:
///   the exits are ε-wired to one accepting state
///   ([`RewriteToAutomaton::universal`]) that loops on every symbol of the
///   set and the target. [`Closures::includes`] adds loops for the symbols
///   of the side it tests, so a continuation over a symbol the
///   construction never saw is certified too.
///
/// Completeness holds on the word-constraint fragment (Lemma 4.4); on
/// general regular constraints the closure is a sound under-approximation
/// — exactly the right polarity for certification, which must never
/// accept an unsound rewrite.
pub fn rewrite_closure_nfa(set: &ConstraintSet, target: &Nfa) -> RewriteToAutomaton {
    /// Universal-wiring rounds before giving up on a fixpoint (each round
    /// may add a fresh `K` sub-automaton, so unlike the ε-only word
    /// saturation this loop has no natural termination guarantee).
    const MAX_UNIVERSAL_ROUNDS: usize = 8;

    let mut nfa = Nfa::empty();
    let off = nfa.add_nfa(target);
    let root = nfa.start();
    nfa.add_eps(root, target.start() + off);

    // Embed each rule's lhs as a reading fragment out of the root, and
    // split the rules by rhs shape: single-word rhs saturates by ε-wiring,
    // everything else goes through the universal construction.
    let mut word_exits: Vec<Vec<StateId>> = Vec::new();
    let mut word_rhs: Vec<&[Symbol]> = Vec::new();
    let mut regex_rules: Vec<(Vec<StateId>, &Nfa, &Nfa)> = Vec::new();
    let mut universal: Option<StateId> = None;
    for rule in set.closure_rules() {
        let frag = nfa.add_nfa(&rule.lhs);
        nfa.add_eps(root, rule.lhs.start() + frag);
        let mut exits = Vec::new();
        for s in 0..rule.lhs.num_states() as StateId {
            if rule.lhs.is_accepting(s) {
                nfa.set_accepting(s + frag, false);
                exits.push(s + frag);
            }
        }
        match &rule.rhs {
            ClosureRhs::Word(word) => {
                word_exits.push(exits);
                word_rhs.push(word);
            }
            ClosureRhs::Regex(rhs_nfa) => regex_rules.push((exits, &rule.lhs, rhs_nfa)),
            ClosureRhs::Empty => {
                let u = *universal.get_or_insert_with(|| nfa.add_state(true));
                for e in exits {
                    nfa.add_eps(e, u);
                }
            }
        }
    }
    if let Some(u) = universal {
        for sym in set.symbols().into_iter().chain(target.symbols()) {
            nfa.add_transition(u, sym, u);
        }
    }

    let mut rounds = 0usize;
    let mut added_edges = 0usize;
    let mut universal_rounds = 0usize;
    loop {
        // Word saturation to fixpoint over the current state set.
        rounds += nfa.saturate(root, &word_rhs, |nfa, i, targets| {
            let mut changed = false;
            for &t in targets {
                for &e in &word_exits[i] {
                    if e != t && nfa.add_eps(e, t) {
                        added_edges += 1;
                        changed = true;
                    }
                }
            }
            changed
        });
        // Universal wiring for regex-sided rules (may add states).
        universal_rounds += 1;
        let mut changed = false;
        for (exits, lhs_nfa, rhs_nfa) in &regex_rules {
            let Some(k) = universal_continuations(&nfa, rhs_nfa) else {
                continue; // K = ∅ or over budget: skip the rule (sound)
            };
            if k.is_empty_lang() {
                continue;
            }
            // Skip when L(lhs)·K is already certified, so the loop
            // reaches a fixpoint instead of stacking equal sub-automata.
            if included_antichain(&Nfa::concat(lhs_nfa, &k), &nfa).is_ok() {
                continue;
            }
            let koff = nfa.add_nfa(&k);
            for &e in exits {
                if nfa.add_eps(e, k.start() + koff) {
                    added_edges += 1;
                }
            }
            changed = true;
        }
        if !changed || universal_rounds >= MAX_UNIVERSAL_ROUNDS {
            break;
        }
    }

    RewriteToAutomaton {
        nfa,
        rounds,
        added_edges,
        universal,
    }
}

/// [`rewrite_closure_nfa`] of one set, memoized by target regex for the
/// length of one plan, with the inclusion tests run against it: a
/// rewritten plan decides its claim ([`Closures::implies`]) and certifies
/// its winner against the closures of the same two regexes, and this is
/// where the second reader finds what the first one built.
///
/// Nothing outlives the memo: it borrows its set, is made by whoever plans
/// and is dropped with the plan, so no key is ever client text. It counts
/// its work ([`Closures::builds`], [`Closures::inclusions`]) so a caller
/// can tell what a step read from it and what it built.
#[derive(Debug)]
pub struct Closures<'s> {
    set: &'s ConstraintSet,
    built: RefCell<Vec<(Regex, RewriteToAutomaton)>>,
    inclusions: Cell<usize>,
}

impl<'s> Closures<'s> {
    /// An empty memo over `set`.
    pub fn new(set: &'s ConstraintSet) -> Closures<'s> {
        Closures {
            set,
            built: RefCell::new(Vec::new()),
            inclusions: Cell::new(0),
        }
    }

    /// The constraint set the closures are taken under.
    pub fn set(&self) -> &'s ConstraintSet {
        self.set
    }

    /// Antichain inclusion `L(lhs) ⊆ L(closure(target))`, where the closure
    /// is [`rewrite_closure_nfa`] of `target`'s Thompson automaton, built
    /// on the first test against this regex; its universal state, if it has
    /// one, first learns to loop on `lhs`'s symbols. `Err` carries a word
    /// of `L(lhs)` the closure rejects.
    pub fn includes(&self, lhs: &Nfa, target: &Regex) -> Result<(), Vec<Symbol>> {
        self.inclusions.set(self.inclusions.get() + 1);
        let mut built = self.built.borrow_mut();
        let i = match built.iter().position(|(t, _)| t == target) {
            Some(i) => i,
            None => {
                let closure = rewrite_closure_nfa(self.set, &Nfa::thompson(target));
                built.push((target.clone(), closure));
                built.len() - 1
            }
        };
        let closure = &mut built[i].1;
        if let Some(u) = closure.universal {
            for sym in lhs.symbols() {
                closure.nfa.add_transition(u, sym, u);
            }
        }
        included_antichain(lhs, &closure.nfa)
    }

    /// Decide `E ⊨ c` by the closures: `L(p) ⊆ L(closure(q))` for each
    /// inclusion `p ⊆ q` of `c` — `lhs ⊆ rhs`, then `rhs ⊆ lhs` for an
    /// equality, the two tests certification runs. `Ok` names the method:
    /// `"word-exact"` on an all-word set, where the closure is `RewriteTo`
    /// and the test is Theorem 4.3's exact decision, `"regex-saturation"`
    /// otherwise, where it is sound but not complete. `Err` carries a word
    /// of the failing left side the closure rejects: on an all-word set a
    /// counterexample (Lemma 4.6).
    pub fn implies(&self, c: &PathConstraint) -> Result<&'static str, Vec<Symbol>> {
        self.includes(&Nfa::thompson(&c.lhs), &c.rhs)?;
        if c.kind == ConstraintKind::Equality {
            self.includes(&Nfa::thompson(&c.rhs), &c.lhs)?;
        }
        Ok(if self.set.all_word_constraints() {
            "word-exact"
        } else {
            "regex-saturation"
        })
    }

    /// How many closures this memo has built.
    pub fn builds(&self) -> usize {
        self.built.borrow().len()
    }

    /// How many inclusion tests ran against its closures.
    pub fn inclusions(&self) -> usize {
        self.inclusions.get()
    }
}

/// The universal continuation language `K = {w | ∀y ∈ L(rhs): y·w ∈ L(nfa)}`
/// as a fresh automaton, or `None` when `K` is empty or the construction
/// exceeds its budget — callers skip the rule either way, which
/// under-approximates the closure but never over-accepts.
///
/// `rhs` must be trimmed with a non-empty language. The subset-states of
/// `nfa` reachable from its start via words of `L(rhs)` (the *profiles*)
/// are collected by a product walk; because `rhs` is trimmed, stepping the
/// `nfa` side to ∅ while the `rhs` side is alive means some rhs word has no
/// accepted continuation at all, i.e. `K = ∅`. `K` is then the
/// intersection of the profiles' right languages, built by a second subset
/// construction whose states are *sets of subset-states*: a transition
/// exists only when every member survives it, and a state accepts only
/// when every member does — the ∀ made mechanical.
fn universal_continuations(nfa: &Nfa, rhs: &Nfa) -> Option<Nfa> {
    use std::collections::{BTreeSet, HashMap, VecDeque};
    /// Budget on visited (nfa-subset, rhs-subset) pairs in the profile walk.
    const PAIR_BUDGET: usize = 4096;
    /// Budget on states of the intersection automaton.
    const STATE_BUDGET: usize = 1024;

    let s0 = nfa.start_set();
    let f0 = rhs.start_set();
    let mut profiles: BTreeSet<Vec<StateId>> = BTreeSet::new();
    let mut seen: BTreeSet<(Vec<StateId>, Vec<StateId>)> = BTreeSet::new();
    let mut queue: VecDeque<(Vec<StateId>, Vec<StateId>)> = VecDeque::new();
    seen.insert((s0.clone(), f0.clone()));
    queue.push_back((s0, f0));
    while let Some((s, f)) = queue.pop_front() {
        if rhs.set_accepts(&f) {
            profiles.insert(s.clone());
        }
        let mut syms: Vec<Symbol> = f
            .iter()
            .flat_map(|&q| rhs.transitions(q).iter().map(|&(sym, _)| sym))
            .collect();
        syms.sort_unstable();
        syms.dedup();
        for sym in syms {
            let f2 = rhs.step(&f, sym);
            if f2.is_empty() {
                continue;
            }
            let s2 = nfa.step(&s, sym);
            if s2.is_empty() {
                // rhs is trimmed, so f2 extends to an accepting state:
                // some y ∈ L(rhs) strands the closure entirely.
                return None;
            }
            if seen.len() >= PAIR_BUDGET {
                return None;
            }
            let pair = (s2, f2);
            if seen.insert(pair.clone()) {
                queue.push_back(pair);
            }
        }
    }
    if profiles.is_empty() {
        return None; // unreachable for trimmed non-empty rhs; be safe
    }

    let mut out = Nfa::empty();
    let mut ids: HashMap<BTreeSet<Vec<StateId>>, StateId> = HashMap::new();
    out.set_accepting(out.start(), profiles.iter().all(|s| nfa.set_accepts(s)));
    ids.insert(profiles.clone(), out.start());
    let mut queue: VecDeque<BTreeSet<Vec<StateId>>> = VecDeque::new();
    queue.push_back(profiles);
    while let Some(cur) = queue.pop_front() {
        let from = ids[&cur];
        let mut syms: Vec<Symbol> = cur
            .iter()
            .flat_map(|s| s.iter())
            .flat_map(|&q| nfa.transitions(q).iter().map(|&(sym, _)| sym))
            .collect();
        syms.sort_unstable();
        syms.dedup();
        'symbols: for sym in syms {
            let mut next: BTreeSet<Vec<StateId>> = BTreeSet::new();
            for s in &cur {
                let s2 = nfa.step(s, sym);
                if s2.is_empty() {
                    continue 'symbols; // one member dies: the ∀ fails
                }
                next.insert(s2);
            }
            let to = match ids.get(&next) {
                Some(&t) => t,
                None => {
                    if ids.len() >= STATE_BUDGET {
                        return None;
                    }
                    let t = out.add_state(next.iter().all(|s| nfa.set_accepts(s)));
                    ids.insert(next.clone(), t);
                    queue.push_back(next);
                    t
                }
            };
            out.add_transition(from, sym, to);
        }
    }
    Some(out)
}

/// Decide `u →*_E v` in polynomial time: membership of `u` in the saturated
/// automaton for `RewriteTo(v)` (Theorem 4.3(i) via Lemmas 4.4 + 4.5).
pub fn rewrites_to(rules: &RewriteSystem, u: &[Symbol], v: &[Symbol]) -> bool {
    rewrite_to_word_nfa(v, rules).nfa.accepts(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::parse_regex;

    fn system(ab: &mut Alphabet, lines: &[&str]) -> RewriteSystem {
        let set = ConstraintSet::parse(ab, lines.iter().copied()).unwrap();
        RewriteSystem::from_constraints(&set)
    }

    fn w(ab: &mut Alphabet, s: &str) -> Vec<Symbol> {
        s.chars().map(|c| ab.intern(&c.to_string())).collect()
    }

    #[test]
    fn paper_motivating_example() {
        // u1 ⊆ u2 and u2·u3 ⊆ u4 imply u1·u3·u5 ⊆ u4·u5 (Section 4 intro).
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["u1 <= u2", "u2.u3 <= u4"]);
        let u1 = ab.get("u1").unwrap();
        let u3 = ab.get("u3").unwrap();
        let u4 = ab.get("u4").unwrap();
        let u5 = ab.intern("u5");
        assert!(rewrites_to(&rs, &[u1, u3, u5], &[u4, u5]));
        // and the intermediate step too
        let u2 = ab.get("u2").unwrap();
        assert!(rewrites_to(&rs, &[u1, u3, u5], &[u2, u3, u5]));
        // but not the reverse
        assert!(!rewrites_to(&rs, &[u4, u5], &[u1, u3, u5]));
    }

    #[test]
    fn derivation_witness_matches_decision() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["u1 <= u2", "u2.u3 <= u4"]);
        let u1 = ab.get("u1").unwrap();
        let u3 = ab.get("u3").unwrap();
        let u4 = ab.get("u4").unwrap();
        let u5 = ab.intern("u5");
        let chain = rs.derive(&[u1, u3, u5], &[u4, u5], 10_000).unwrap();
        assert_eq!(chain.len(), 3); // u1u3u5 → u2u3u5 → u4u5
                                    // each step is a legal one-step rewrite
        for pair in chain.windows(2) {
            assert!(rs.step(&pair[0]).contains(&pair[1]));
        }
    }

    #[test]
    fn aa_to_a_rewrites_powers() {
        // E = {aa ⊆ a}: aⁱ →* a for all i ≥ 1, but a ↛ aa.
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a.a <= a"]);
        let a = ab.get("a").unwrap();
        for i in 1..8 {
            let u = vec![a; i];
            assert!(rewrites_to(&rs, &u, &[a]), "a^{i} →* a");
        }
        assert!(!rewrites_to(&rs, &[a], &[a, a]));
        // aa →* aa (reflexive)
        assert!(rewrites_to(&rs, &[a, a], &[a, a]));
    }

    #[test]
    fn equalities_rewrite_both_ways() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a.b = c"]);
        let u_ab = w(&mut ab, "ab");
        let u_c = w(&mut ab, "c");
        assert!(rewrites_to(&rs, &u_ab, &u_c));
        assert!(rewrites_to(&rs, &u_c, &u_ab));
        // and right-congruence: abx ↔ cx
        let u_abx = w(&mut ab, "abx");
        let u_cx = w(&mut ab, "cx");
        assert!(rewrites_to(&rs, &u_abx, &u_cx));
        assert!(rewrites_to(&rs, &u_cx, &u_abx));
    }

    #[test]
    fn epsilon_rules_work() {
        // l = ε: every l·w ↔ w.
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["l = ()"]);
        let l = ab.get("l").unwrap();
        let x = ab.intern("x");
        assert!(rewrites_to(&rs, &[l, x], &[x]));
        assert!(rewrites_to(&rs, &[x], &[l, x]));
        assert!(rewrites_to(&rs, &[l, l, x], &[x]));
        // prefix-only: x·l does not lose its l
        assert!(!rewrites_to(&rs, &[x, l], &[x]));
    }

    #[test]
    fn rewriting_is_prefix_only() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a <= b"]);
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let x = ab.intern("x");
        assert!(rewrites_to(&rs, &[a, x], &[b, x]));
        // inner occurrence untouched
        assert!(!rewrites_to(&rs, &[x, a], &[x, b]));
    }

    #[test]
    fn rewrite_to_regular_target() {
        // RewriteTo(l*) under ll ⊆ l: any lⁱ (i ≥ 0) plus nothing else.
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["l.l <= l"]);
        let l = ab.get("l").unwrap();
        let m = ab.intern("m");
        let target = Nfa::thompson(&parse_regex(&mut ab, "l + ()").unwrap());
        let auto = rewrite_to_nfa(&target, &rs);
        assert!(auto.nfa.accepts(&[]));
        for i in 1..6 {
            assert!(auto.nfa.accepts(&vec![l; i]), "l^{i}");
        }
        assert!(!auto.nfa.accepts(&[m]));
        assert!(!auto.nfa.accepts(&[l, m]));
    }

    #[test]
    fn saturation_terminates_and_reports() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a.a <= a", "b.a <= a.b", "a.b <= b.a"]);
        let target = Nfa::from_word(&w(&mut ab, "a"));
        let auto = rewrite_to_nfa(&target, &rs);
        assert!(auto.rounds >= 1);
        // a b? — ab →(ab→ba) ba →(ba→ab)… and aa→a chains
        let u = w(&mut ab, "aaa");
        assert!(auto.nfa.accepts(&u));
    }

    #[test]
    fn general_closure_agrees_with_word_saturation_on_word_rules() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
        let rs = RewriteSystem::from_constraints(&set);
        let l = ab.get("l").unwrap();
        let m = ab.intern("m");
        let target = Nfa::thompson(&parse_regex(&mut ab, "l + ()").unwrap());
        let word_auto = rewrite_to_nfa(&target, &rs);
        let gen_auto = rewrite_closure_nfa(&set, &target);
        for i in 0..6 {
            let u = vec![l; i];
            assert_eq!(word_auto.nfa.accepts(&u), gen_auto.nfa.accepts(&u), "l^{i}");
            assert!(gen_auto.nfa.accepts(&u), "l^{i} →* l + ε");
        }
        assert!(!gen_auto.nfa.accepts(&[m]));
        assert!(!gen_auto.nfa.accepts(&[l, m]));
    }

    #[test]
    fn general_closure_handles_regex_valued_cache_rules() {
        // E = {l = (a.b)*}: the Example 3 certification both ways —
        // a.(b.a)*.c ⊆ closure(l.a.c) and l.a.c ⊆ closure(a.(b.a)*.c).
        // Word-only saturation cannot see this rule at all.
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
        let q = Nfa::thompson(&parse_regex(&mut ab, "a.(b.a)*.c").unwrap());
        let r = Nfa::thompson(&parse_regex(&mut ab, "l.a.c").unwrap());
        let closure_r = rewrite_closure_nfa(&set, &r);
        let closure_q = rewrite_closure_nfa(&set, &q);
        assert!(
            rpq_automata::ops::included_antichain(&q, &closure_r.nfa).is_ok(),
            "every a.(b.a)*.c word must rewrite into l.a.c"
        );
        assert!(
            rpq_automata::ops::included_antichain(&r, &closure_q.nfa).is_ok(),
            "l.a.c must rewrite into a.(b.a)*.c"
        );
        // and an unrelated query must NOT certify
        let bad = Nfa::thompson(&parse_regex(&mut ab, "c.a").unwrap());
        assert!(rpq_automata::ops::included_antichain(&bad, &closure_r.nfa).is_err());
    }

    #[test]
    fn union_rhs_rules_do_not_certify_per_branch() {
        // E = {a = b + c} only promises an R-path spelling *some* word of
        // b + c after an a-edge: the satisfying instance s -a→ m, s -c→ m,
        // m -x→ t has answers(a.x) = {t} but answers(b.x) = ∅, so the
        // closure of b.x must not accept a.x (existential wiring of the
        // union rhs did exactly that).
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a = b + c"]).unwrap();
        let ax = Nfa::thompson(&parse_regex(&mut ab, "a.x").unwrap());
        let bx = Nfa::thompson(&parse_regex(&mut ab, "b.x").unwrap());
        let closure_bx = rewrite_closure_nfa(&set, &bx);
        assert!(
            rpq_automata::ops::included_antichain(&ax, &closure_bx.nfa).is_err(),
            "a.x ⊆ b.x is not implied by a = b + c"
        );
        // The sound direction still certifies: answers(b) ⊆ answers(b + c)
        // = answers(a), so b.x ⊆ a.x (word-rhs rule b + c → a).
        let closure_ax = rewrite_closure_nfa(&set, &ax);
        assert!(rpq_automata::ops::included_antichain(&bx, &closure_ax.nfa).is_ok());
    }

    #[test]
    fn star_rhs_rules_certify_universally() {
        // E = {a ⊆ b*}: a.x ⊆ b*.x is valid (every m ∈ answers(a) lies in
        // answers(b*)), and the universal construction certifies it since
        // every b^k·x lands in the target. a.x ⊆ b.x remains uncertified —
        // b.b.x strands the continuation.
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a <= b*"]).unwrap();
        let ax = Nfa::thompson(&parse_regex(&mut ab, "a.x").unwrap());
        let bstar_x = Nfa::thompson(&parse_regex(&mut ab, "b*.x").unwrap());
        let bx = Nfa::thompson(&parse_regex(&mut ab, "b.x").unwrap());
        let closure_bstar = rewrite_closure_nfa(&set, &bstar_x);
        assert!(
            rpq_automata::ops::included_antichain(&ax, &closure_bstar.nfa).is_ok(),
            "a.x ⊆ b*.x is implied by a ⊆ b* and must certify"
        );
        let closure_bx = rewrite_closure_nfa(&set, &bx);
        assert!(
            rpq_automata::ops::included_antichain(&ax, &closure_bx.nfa).is_err(),
            "a.x ⊆ b.x is not implied by a ⊆ b*"
        );
    }

    #[test]
    fn empty_rhs_rules_certify_every_continuation() {
        // E = {l = ∅}: answers(l) = ∅ at every satisfying site, so no l·w
        // has an answer and l·w ⊆ t holds for any target t — also for a
        // symbol interned after every symbol of the set and the target,
        // which the memo's universal state learns from the tested side.
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l = []"]).unwrap();
        let target = parse_regex(&mut ab, "x + y").unwrap();
        let closures = Closures::new(&set);
        let lx = Nfa::thompson(&parse_regex(&mut ab, "l.x").unwrap());
        assert!(closures.includes(&lx, &target).is_ok(), "l.x ⊆ x + y");
        let (l, z) = (ab.get("l").unwrap(), ab.intern("z"));
        let mut seen = set.symbols();
        seen.extend(target.symbols());
        assert!(seen.iter().all(|s| s.index() < z.index()));
        let built = rewrite_closure_nfa(&set, &Nfa::thompson(&target));
        assert!(!built.nfa.accepts(&[l, z]), "the construction never saw z");
        let lz = Nfa::from_word(&[l, z]);
        assert!(closures.includes(&lz, &target).is_ok(), "l.z ⊆ x + y");
        // Nothing is certified *into* l: x ⊆ l.y does not follow.
        let x = Nfa::thompson(&parse_regex(&mut ab, "x").unwrap());
        let ly = parse_regex(&mut ab, "l.y").unwrap();
        assert!(closures.includes(&x, &ly).is_err(), "x ⊆ l.y");
    }

    #[test]
    fn general_closure_is_prefix_only() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a <= b"]).unwrap();
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let x = ab.intern("x");
        let target = Nfa::from_word(&[b, x]);
        let auto = rewrite_closure_nfa(&set, &target);
        assert!(auto.nfa.accepts(&[a, x]), "prefix a rewrites to b");
        assert!(auto.nfa.accepts(&[b, x]));
        let target_inner = Nfa::from_word(&[x, b]);
        let auto_inner = rewrite_closure_nfa(&set, &target_inner);
        assert!(
            !auto_inner.nfa.accepts(&[x, a]),
            "inner occurrences must not rewrite"
        );
    }

    #[test]
    fn empty_rule_set_is_identity() {
        let mut ab = Alphabet::new();
        let rs = RewriteSystem::default();
        let u = w(&mut ab, "abc");
        let v = w(&mut ab, "abc");
        assert!(rewrites_to(&rs, &u, &v));
        let v2 = w(&mut ab, "ab");
        assert!(!rewrites_to(&rs, &u, &v2));
    }

    #[test]
    fn step_applies_all_matching_rules() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a <= b", "a <= c", "a.x <= y"]);
        let word = w(&mut ab, "ax");
        let succ = rs.step(&word);
        assert_eq!(succ.len(), 3); // bx, cx, y
    }

    #[test]
    fn from_constraints_dedups_repeated_rules() {
        let mut ab = Alphabet::new();
        // the equality contributes both directions; the inclusions repeat
        // one of them twice more
        let rs = system(&mut ab, &["a.b = c", "a.b <= c", "a.b <= c", "c <= a.b"]);
        assert_eq!(rs.rules.len(), 2);
        // large duplicated sets stay linear: 2,000 copies of 4 rules
        let lines: Vec<String> = (0..2_000)
            .map(|i| format!("x{} <= y{}", i % 4, i % 4))
            .collect();
        let set = ConstraintSet::parse(&mut ab, lines.iter().map(String::as_str)).unwrap();
        let rs = RewriteSystem::from_constraints(&set);
        assert_eq!(rs.rules.len(), 4);
    }

    #[test]
    fn derive_respects_budget() {
        let mut ab = Alphabet::new();
        // growing system: a → aa (never reaches b)
        let rs = system(&mut ab, &["a <= a.a"]);
        let a = ab.get("a").unwrap();
        let b = ab.intern("b");
        assert!(rs.derive(&[a], &[b], 100).is_none());
    }
}
