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
//! On a set of word constraints it wires each rule exactly as the word
//! saturation `rpq_paper::rewrite::rewrite_to_nfa` does (ε-edges from the
//! left-hand side's exits instead of a last labelled edge), so it accepts
//! `RewriteTo(p)` itself; the implication deciders read it through the
//! plan-scoped memo [`Closures`].
//!
//! ## One step, before any closure
//!
//! A claim `p ⊆ q` that is one rule `P ⊆ R` of `E` right-concatenated
//! with a tail `t` — `p = P·t` and `q = R·t` as trees — is one rewrite
//! step `P·t →_E R·t`, and [`Closures::one_step`] proves it without a
//! closure: `P`'s factors are stripped off the front of `p`'s
//! concatenation, `R`'s off `q`'s, and the two rests must be equal
//! regexes. This is Section 3.2's cache substitution `u·t → l·t` under
//! `l = u`, each direction one step. It is sound for every rule, regex-
//! sided and `∅` ones too, because rooted constraints are right-congruent:
//! `P(o) ⊆ R(o)` gives `(P·t)(o) = ∪_{x∈P(o)} t(x) ⊆ (R·t)(o)`. Left
//! context is never matched — `x·P ⊆ x·R` would need `E` at the nodes `x`
//! leads to, which a rooted constraint does not give — and neither is a
//! rule read backwards. The check reads the rules the set compiled once
//! ([`ConstraintSet`] keeps each inclusion's two sides beside its
//! automata) and allocates nothing; whatever it does not match goes to the
//! closure test, so no verdict is lost. Debug builds re-prove every
//! one-step claim of an all-word set, where the closure is exact, by a
//! closure built outside the memo, and assert that the two agree.
//!
//! ## Only the usable rules are embedded
//!
//! A closure embeds only the rules some derivation into its target can
//! use; the rest would add states and saturation rounds but no word. Let
//! `S` start as the target's symbols. A rule whose right side is a single
//! word becomes *usable* once that word is spelled over `S`, and then its
//! left side's symbols join `S`. A rule whose right side is not a single
//! word is always kept, and its left side's symbols join `S` at the start.
//! The fixpoint is the set of rules [`rewrite_closure_nfa`] embeds.
//!
//! Nothing is lost, because every word a closure accepts has a derivation
//! tree over `S` that uses only usable rules. Read such a tree from its
//! leaves, the target's words, which are over `S`. A word-rule step
//! `l·w → r·w` has its later word `r·w` over `S`, so `r` is spelled over
//! `S`: the rule is usable, and `l·w` is over `S` too. A regex-rule step
//! certifies `x·w` because every `y·w` with `y ∈ L(R)` is certified; those
//! are over `S`, so `w` is, and `x` is over the left side's symbols, which
//! joined `S`. An equality contributes both directions as separate rules,
//! so `l = r` is read right to left (`r → l`) as soon as `l` is spelled
//! over `S`, whether or not `r` is.
//!
//! A `P ⊆ ∅` rule breaks the argument: it certifies `x·w` for *every*
//! continuation `w`, over any symbol, so a word rule whose right side
//! begins with a word of `P` is usable whatever its other symbols are. `S`
//! then starts from all of `E`'s symbols, every word rule's right side is
//! spelled over it, and a set with such a rule keeps all its rules.
//!
//! Dropping a rule only ever removes words, so the filter is sound on any
//! set. It is also exact: round by round the filtered and the full
//! construction accept the same words, so they build the same universal
//! continuations. Only the universal construction's pair and state budgets
//! see the automaton rather than its language; where one binds, the two
//! closures may differ, and each is sound.
//!
//! Embedding every rule was measured as waste in the planner's closure
//! memo. Under rules over labels no query spells, a closure grew with
//! `|E|`: 287 states at `|E| = 57` for a target that needs 24 (t3's
//! `served_closure` series). A cold plan that substitutes a cache under
//! `{c0 = f0.f1, c1 = f2.f3, c2 ⊆ f1.f2}` embedded all 5 directed rules
//! where 2 are usable.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};

use rpq_automata::ops::included_antichain;
use rpq_automata::{Nfa, Regex, StateId, Symbol};

use crate::types::{ClosureRhs, ClosureRule, ConstraintKind, ConstraintSet, PathConstraint};

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
    /// set has no such rule (and always for the word saturation). Any word
    /// may follow it, so a tester adds loops for its own symbols first.
    pub universal: Option<StateId>,
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
///   reaches by reading `r` — the word saturation of Lemma 4.5. Only
///   ε-edges over a fixed state set are added, so this runs to its exact
///   fixpoint, on [`Nfa::saturate`], which closes and steps every read of
///   every round in one set of buffers.
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
///
/// Only the rules a derivation into `target` can use are embedded (see the
/// module docs); the accepted language is the one all rules give unless a
/// budget of the universal construction binds.
pub fn rewrite_closure_nfa(set: &ConstraintSet, target: &Nfa) -> RewriteToAutomaton {
    let rules = set.closure_rules();
    saturate_rules(set, target, &usable_rules(rules, target))
}

/// Which of `rules` a derivation into `target` can use: all of them when
/// one has an `∅` right side, otherwise the fixpoint of the module docs.
fn usable_rules(rules: &[ClosureRule], target: &Nfa) -> Vec<bool> {
    if rules.iter().any(|r| matches!(r.rhs, ClosureRhs::Empty)) {
        return vec![true; rules.len()];
    }
    /// Put `s` in `S`, which `spelled` holds by symbol index.
    fn spell(spelled: &mut Vec<bool>, s: Symbol) {
        if spelled.len() <= s.index() {
            spelled.resize(s.index() + 1, false);
        }
        spelled[s.index()] = true;
    }
    let mut spelled = Vec::new();
    for state in 0..target.num_states() as StateId {
        for &(s, _) in target.transitions(state) {
            spell(&mut spelled, s);
        }
    }
    let mut usable = vec![false; rules.len()];
    loop {
        let mut changed = false;
        for (rule, used) in rules.iter().zip(usable.iter_mut()) {
            let reached = match &rule.rhs {
                ClosureRhs::Word(rhs) => rhs.iter().all(|s| spelled.get(s.index()) == Some(&true)),
                _ => true,
            };
            if reached && !*used {
                *used = true;
                changed = true;
                for &s in &rule.lhs_symbols {
                    spell(&mut spelled, s);
                }
            }
        }
        if !changed {
            return usable;
        }
    }
}

/// [`rewrite_closure_nfa`] over the rules of `set` that `keep` marks.
fn saturate_rules(set: &ConstraintSet, target: &Nfa, keep: &[bool]) -> RewriteToAutomaton {
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
    let rules = set.closure_rules().iter().zip(keep);
    for rule in rules.filter(|(_, &k)| k).map(|(rule, _)| rule) {
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
/// its winner by the same method ([`Closures::proves`]), so whatever
/// closure the decision built, the certification reads.
///
/// A claim that is one rule of the set right-concatenated with a tail is
/// proved in one step ([`Closures::one_step`], see the module docs) and
/// builds no closure and runs no inclusion test; every other claim is
/// decided by the closure test.
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

    /// Is `p ⊆ q` one rule `P ⊆ R` of the set right-concatenated with one
    /// tail: `P`'s factors begin `p`'s concatenation, `R`'s begin `q`'s,
    /// and what follows them is the same on both sides? A side that is `∅`
    /// fixes no tail, for `∅·t` is `∅` whatever `t` is. Sound for every
    /// rule by right-congruence (module docs); it matches no left context
    /// and reads no rule backwards. Reads the set's compiled rules and
    /// allocates nothing.
    pub fn one_step(&self, p: &Regex, q: &Regex) -> bool {
        let empty =
            |side: &Regex, claim: &Regex| matches!((side, claim), (Regex::Empty, Regex::Empty));
        self.set.closure_rules().iter().any(|rule| {
            let (big_p, big_r) = &rule.sides;
            match (after(p, big_p), after(q, big_r)) {
                (Some(t), Some(u)) => t == u || empty(big_p, p) || empty(big_r, q),
                _ => false,
            }
        })
    }

    /// Prove `E ⊨ p ⊆ q`: in one step when [`Closures::one_step`] holds,
    /// otherwise by [`Closures::includes`] on `p`'s automaton, which `p_nfa`
    /// is asked for only then. `Ok` names the method: `"one-step"`, or the
    /// closure test's, `"word-exact"` on an all-word set, where the closure
    /// is `RewriteTo` and the test is Theorem 4.3's exact decision, and
    /// `"regex-saturation"` otherwise, where it is sound but not complete.
    /// `Err` carries a word of `L(p)` the closure rejects: on an all-word
    /// set a counterexample (Lemma 4.6).
    ///
    /// This is the one place that chooses between the two; the planner's
    /// decisions ([`Closures::implies`]) and its certification both call it.
    pub fn proves<'n>(
        &self,
        p: &Regex,
        q: &Regex,
        p_nfa: impl FnOnce() -> Cow<'n, Nfa>,
    ) -> Result<&'static str, Vec<Symbol>> {
        if self.one_step(p, q) {
            #[cfg(debug_assertions)]
            self.check_one_step(p, q);
            return Ok("one-step");
        }
        self.includes(&p_nfa(), q)?;
        Ok(if self.set.all_word_constraints() {
            "word-exact"
        } else {
            "regex-saturation"
        })
    }

    /// Decide `E ⊨ c` by [`Closures::proves`] on each inclusion `p ⊆ q` of
    /// `c` — `lhs ⊆ rhs`, then `rhs ⊆ lhs` for an equality, the two proofs
    /// certification runs. `Ok` names the method: `"one-step"` when every
    /// inclusion was one step, otherwise the closure test's. `Err` carries
    /// a word of the failing left side the closure rejects.
    pub fn implies(&self, c: &PathConstraint) -> Result<&'static str, Vec<Symbol>> {
        let thompson = |r: &Regex| Cow::Owned(Nfa::thompson(r));
        let method = self.proves(&c.lhs, &c.rhs, || thompson(&c.lhs))?;
        if c.kind == ConstraintKind::Equality {
            let back = self.proves(&c.rhs, &c.lhs, || thompson(&c.rhs))?;
            if method == "one-step" {
                return Ok(back);
            }
        }
        Ok(method)
    }

    /// The debug builds' cross-check of a one-step proof of `p ⊆ q`: on an
    /// all-word set, where the closure is exact, a closure built outside
    /// the memo — so the counts are the ones release builds read — must
    /// prove it too.
    #[cfg(debug_assertions)]
    fn check_one_step(&self, p: &Regex, q: &Regex) {
        if self.set.all_word_constraints() {
            let closure = rewrite_closure_nfa(self.set, &Nfa::thompson(q));
            assert!(
                included_antichain(&Nfa::thompson(p), &closure.nfa).is_ok(),
                "{p:?} ⊆ {q:?} is proved in one step, but the closure rejects it"
            );
        }
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

/// The factors of `r`'s concatenation after `prefix`'s, when `prefix`'s
/// factors begin it. A regex that is not a concatenation is one factor,
/// and `ε` none.
fn after<'r>(r: &'r Regex, prefix: &Regex) -> Option<&'r [Regex]> {
    fn factors(r: &Regex) -> &[Regex] {
        match r {
            Regex::Concat(parts) => parts,
            Regex::Epsilon => &[],
            other => std::slice::from_ref(other),
        }
    }
    factors(r).strip_prefix(factors(prefix))
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

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};

    fn system(ab: &mut Alphabet, lines: &[&str]) -> RewriteSystem {
        let set = ConstraintSet::parse(ab, lines.iter().copied()).unwrap();
        RewriteSystem::from_constraints(&set)
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

    /// Do `x` and `y` accept the same words of length at most `len` over
    /// `syms`? `Err` carries the first word they disagree on.
    fn agree_upto(x: &Nfa, y: &Nfa, syms: &[Symbol], len: usize) -> Result<(), Vec<Symbol>> {
        let mut stack = vec![(Vec::new(), x.start_set(), y.start_set())];
        while let Some((word, sx, sy)) = stack.pop() {
            if x.set_accepts(&sx) != y.set_accepts(&sy) {
                return Err(word);
            }
            if word.len() == len || (sx.is_empty() && sy.is_empty()) {
                continue;
            }
            for &sym in syms {
                let mut next = word.clone();
                next.push(sym);
                stack.push((next, x.step(&sx, sym), y.step(&sy, sym)));
            }
        }
        Ok(())
    }

    #[test]
    fn usable_rules_keep_the_closure_language() {
        // Random sets over `a`…`e` mixing word rules, regex-sided rules and
        // `P ⊆ ∅` rules, against random targets over two or three of the
        // letters: the closure of the usable rules accepts exactly the
        // words the closure of every rule accepts, up to length 6.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rpq_testkit::random::{random_regex, random_word, RegexGenConfig};

        let ab = Alphabet::from_names(["a", "b", "c", "d", "e"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(0x0517);
        let (mut filtered, mut with_empty) = (0, 0);
        for _ in 0..300 {
            let mut lines = Vec::new();
            for _ in 0..rng.random_range(1..=5) {
                let len = rng.random_range(1..=2);
                let lhs = random_word(&mut rng, &syms, len);
                let rhs = match rng.random_range(0..10) {
                    0..=6 => {
                        let len = rng.random_range(0..=3);
                        Regex::word(&random_word(&mut rng, &syms, len))
                    }
                    7 | 8 => {
                        let mut cfg = RegexGenConfig::new(syms.clone());
                        cfg.max_depth = 2;
                        random_regex(&mut rng, &cfg)
                    }
                    _ => Regex::Empty,
                };
                lines.push(if rng.random_range(0..2) == 0 {
                    PathConstraint::inclusion(Regex::word(&lhs), rhs)
                } else {
                    PathConstraint::equality(Regex::word(&lhs), rhs)
                });
            }
            let set = ConstraintSet::from_constraints(lines);
            let letters = rng.random_range(2..=3);
            let mut cfg = RegexGenConfig::new(syms[..letters].to_vec());
            cfg.max_depth = 3;
            let target = Nfa::thompson(&random_regex(&mut rng, &cfg));
            let rules = set.closure_rules();
            let usable = usable_rules(rules, &target);
            filtered += usize::from(usable.contains(&false));
            with_empty += usize::from(rules.iter().any(|r| matches!(r.rhs, ClosureRhs::Empty)));
            let kept = rewrite_closure_nfa(&set, &target).nfa;
            let all = saturate_rules(&set, &target, &vec![true; rules.len()]).nfa;
            let mut seen = set.symbols();
            seen.extend(target.symbols());
            seen.sort();
            seen.dedup();
            if let Err(w) = agree_upto(&kept, &all, &seen, 6) {
                panic!(
                    "E = {{{}}}, the usable rules' closure {} {} (usable {usable:?})",
                    set.iter()
                        .map(|c| c.display(&ab).to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    if kept.accepts(&w) {
                        "accepts"
                    } else {
                        "rejects"
                    },
                    ab.render_word(&w),
                );
            }
        }
        assert!(
            filtered > 80 && with_empty > 60,
            "of 300 sets, {filtered} filtered, {with_empty} with a `P ⊆ ∅` rule"
        );
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
}
