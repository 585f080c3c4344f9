//! Implication over *deterministic* instances — the Section 5 special case.
//!
//! The paper's conclusion singles out "instances whose nodes have at most
//! one outgoing edge with a given label" as "of practical interest" and
//! conjectures that "this property may simplify some of the problems
//! studied here." This module confirms the conjecture for word
//! constraints: over deterministic instances, implication of a word
//! constraint is decidable by **congruence closure on a partial
//! deterministic automaton** — a simple polynomial-time procedure that is
//! both sound and complete, with a counterexample instance extracted on
//! failure.
//!
//! ## Why determinism changes the answer
//!
//! On a deterministic instance every word `w` denotes at most one object:
//! `w(o, I)` is `∅` or the singleton `{δ*(o, w)}`. Three consequences:
//!
//! 1. An inclusion `u ⊆ v` *upgrades to an equality* whenever `u` is
//!    defined: a nonempty singleton inside a singleton forces equality.
//! 2. Definedness is prefix-closed and propagates across equal words:
//!    if `δ*(o,x) = δ*(o,y)` and `xa` is defined, then so is `ya`, with
//!    equal value (this is exactly functional congruence).
//! 3. Two inclusions into the same word *contract*: from `a ⊆ c` and
//!    `a·x ⊆ c`, a deterministic instance where `a·x` is defined must
//!    satisfy `a·x ⊆ a` — all three words hit the single `c`-object —
//!    while in general (Theorem 4.3) this fails: `c(o)` may contain both
//!    targets. This separation is witnessed by
//!    `tests::separating_example_beats_general_implication`.
//!
//! ## The procedure
//!
//! To decide `E ⊨_det u₀ ⊆ v₀`: build the *freest* deterministic model of
//! `E` in which `u₀` is defined — start from the path of `u₀`, then
//! saturate: for every directed constraint `u ⊆ v` of `E` whose left word
//! is defined, create `v`'s path and merge the two endpoints, propagating
//! merges through the transition function (union–find congruence closure).
//! States are only ever created along constraint words, so the model has
//! at most `|u₀| + Σ_{u⊆v∈E}(|u|+|v|)` states and saturation terminates in
//! polynomial time. The conclusion holds iff `v₀` is defined and lands in
//! `u₀`'s class; otherwise the saturated model itself is a verified
//! counterexample (it is deterministic, satisfies `E`, defines `u₀`, and
//! violates `u₀ ⊆ v₀`).
//!
//! `tests/deterministic_vs_general.rs` cross-checks against Theorem 4.3's
//! general procedure (`E ⊨ c` implies `E ⊨_det c`, never the reverse).

use std::collections::HashMap;

use rpq_automata::{Alphabet, Symbol};
use rpq_constraints::types::{ConstraintKind, ConstraintSet, PathConstraint};
use rpq_graph::{Instance, Oid};

pub use crate::implication::NotWordConstraint;

/// Outcome of a deterministic-implication check.
#[derive(Clone, Debug)]
pub enum DetImplication {
    /// Every deterministic instance satisfying `E` satisfies the conclusion.
    Implied,
    /// A deterministic counterexample instance.
    Refuted(DetWitness),
}

impl DetImplication {
    /// True when implied.
    pub fn is_implied(&self) -> bool {
        matches!(self, DetImplication::Implied)
    }
}

/// A deterministic instance refuting an implication: it satisfies `E`,
/// defines the premise word, and violates the conclusion.
#[derive(Clone, Debug)]
pub struct DetWitness {
    /// The counterexample instance (deterministic by construction).
    pub instance: Instance,
    /// The source object.
    pub source: Oid,
}

/// The freest deterministic model of a word-constraint set in which a given
/// seed word is defined: a partial deterministic automaton over union–find
/// classes. Exposed so examples and benches can inspect the model the
/// decision procedure builds.
#[derive(Clone, Debug)]
pub struct DetModel {
    parent: Vec<u32>,
    trans: Vec<HashMap<Symbol, u32>>,
    start: u32,
}

impl DetModel {
    /// Build and saturate the model of `set` seeded with `def(seed)`.
    ///
    /// [`NotWordConstraint`] unless `set` contains only word constraints —
    /// the same contract as [`crate::implication::word_implies_path`].
    pub fn for_premise(
        set: &ConstraintSet,
        seed: &[Symbol],
    ) -> Result<DetModel, NotWordConstraint> {
        if !set.all_word_constraints() {
            return Err(NotWordConstraint);
        }
        let mut m = DetModel {
            parent: vec![0],
            trans: vec![HashMap::new()],
            start: 0,
        };
        m.force(seed);
        m.saturate(set);
        Ok(m)
    }

    /// Number of union–find classes currently live.
    pub fn num_classes(&mut self) -> usize {
        let n = self.parent.len();
        let mut seen = vec![false; n];
        let mut count = 0;
        for s in 0..n as u32 {
            let r = self.find(s) as usize;
            if !seen[r] {
                seen[r] = true;
                count += 1;
            }
        }
        count
    }

    /// Is `w` defined (does `δ*(start, w)` exist)?
    pub fn defined(&mut self, w: &[Symbol]) -> bool {
        self.walk(w).is_some()
    }

    /// Do `u` and `v` denote the same object (both defined, same class)?
    pub fn same(&mut self, u: &[Symbol], v: &[Symbol]) -> bool {
        match (self.walk(u), self.walk(v)) {
            (Some(x), Some(y)) => self.find(x) == self.find(y),
            _ => false,
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn step(&mut self, s: u32, sym: Symbol) -> Option<u32> {
        let s = self.find(s);
        let t = *self.trans[s as usize].get(&sym)?;
        Some(self.find(t))
    }

    fn walk(&mut self, w: &[Symbol]) -> Option<u32> {
        let mut s = self.find(self.start);
        for &sym in w {
            s = self.step(s, sym)?;
        }
        Some(s)
    }

    /// Walk `w`, creating fresh states along missing edges. Returns the
    /// endpoint and whether anything was created.
    fn force(&mut self, w: &[Symbol]) -> (u32, bool) {
        let mut s = self.find(self.start);
        let mut created = false;
        for &sym in w {
            s = match self.step(s, sym) {
                Some(t) => t,
                None => {
                    let t = self.parent.len() as u32;
                    self.parent.push(t);
                    self.trans.push(HashMap::new());
                    let sc = self.find(s);
                    self.trans[sc as usize].insert(sym, t);
                    created = true;
                    t
                }
            };
        }
        (s, created)
    }

    /// Union–find merge with functional congruence: merging two classes
    /// merges the targets of their shared transition labels, recursively.
    fn merge(&mut self, x: u32, y: u32) -> bool {
        let mut pending = vec![(x, y)];
        let mut changed = false;
        while let Some((x, y)) = pending.pop() {
            let (x, y) = (self.find(x), self.find(y));
            if x == y {
                continue;
            }
            changed = true;
            // Keep the smaller index as root so the start state's class
            // stays rooted at a stable id.
            let (root, other) = if x < y { (x, y) } else { (y, x) };
            self.parent[other as usize] = root;
            let moved = std::mem::take(&mut self.trans[other as usize]);
            for (sym, t) in moved {
                match self.trans[root as usize].get(&sym) {
                    Some(&t2) => pending.push((t, t2)),
                    None => {
                        self.trans[root as usize].insert(sym, t);
                    }
                }
            }
        }
        changed
    }

    /// Fire every directed constraint whose left word is defined, to
    /// fixpoint. Terminates: states are only created along constraint
    /// words (once each) and merges strictly reduce the class count.
    fn saturate(&mut self, set: &ConstraintSet) {
        let mut rules: Vec<(Vec<Symbol>, Vec<Symbol>)> = Vec::new();
        for c in set.iter() {
            // every constraint is one: `for_premise` checked the set
            let Some((u, v)) = c.as_word_pair() else {
                continue;
            };
            rules.push((u.clone(), v.clone()));
            if matches!(c.kind, ConstraintKind::Equality) {
                rules.push((v, u));
            }
        }
        loop {
            let mut changed = false;
            for (u, v) in &rules {
                let Some(su) = self.walk(u) else { continue };
                let (sv, created) = self.force(v);
                changed |= created;
                changed |= self.merge(su, sv);
            }
            if !changed {
                break;
            }
        }
    }

    /// Materialize the model as a labeled-graph [`Instance`] (one node per
    /// live class, one edge per defined transition). The result is
    /// deterministic and satisfies the constraint set it was saturated
    /// with.
    pub fn to_instance(&mut self) -> (Instance, Oid) {
        let n = self.parent.len();
        let mut node_of: HashMap<u32, Oid> = HashMap::new();
        let mut instance = Instance::new();
        for s in 0..n as u32 {
            let r = self.find(s);
            node_of.entry(r).or_insert_with(|| instance.add_node());
        }
        for s in 0..n {
            let r = self.find(s as u32);
            if r != s as u32 {
                continue; // transitions were drained into the root on merge
            }
            let entries: Vec<(Symbol, u32)> =
                self.trans[s].iter().map(|(&sym, &t)| (sym, t)).collect();
            for (sym, t) in entries {
                let tc = self.find(t);
                instance.add_edge(node_of[&r], sym, node_of[&tc]);
            }
        }
        let start = self.find(self.start);
        (instance, node_of[&start])
    }
}

/// Decide `E ⊨_det u ⊆ v` (over deterministic instances). Exact; PTIME.
///
/// [`NotWordConstraint`] unless `set` contains only word constraints.
pub fn det_implies_word(
    set: &ConstraintSet,
    u: &[Symbol],
    v: &[Symbol],
) -> Result<DetImplication, NotWordConstraint> {
    let mut m = DetModel::for_premise(set, u)?;
    Ok(if m.same(u, v) {
        DetImplication::Implied
    } else {
        let (instance, source) = m.to_instance();
        DetImplication::Refuted(DetWitness { instance, source })
    })
}

/// Decide `E ⊨_det u = v`: both inclusion directions, each with its own
/// seeded model (the premise definedness differs per direction).
/// [`NotWordConstraint`] unless `set` contains only word constraints.
pub fn det_implies_word_eq(
    set: &ConstraintSet,
    u: &[Symbol],
    v: &[Symbol],
) -> Result<DetImplication, NotWordConstraint> {
    match det_implies_word(set, u, v)? {
        DetImplication::Implied => det_implies_word(set, v, u),
        refuted => Ok(refuted),
    }
}

/// Decide `E ⊨_det c` for a word constraint `c`.
///
/// [`NotWordConstraint`] unless `set` and `c` are word constraints.
pub fn det_implies_constraint(
    set: &ConstraintSet,
    c: &PathConstraint,
) -> Result<DetImplication, NotWordConstraint> {
    let (u, v) = c.as_word_pair().ok_or(NotWordConstraint)?;
    match c.kind {
        ConstraintKind::Inclusion => det_implies_word(set, &u, &v),
        ConstraintKind::Equality => det_implies_word_eq(set, &u, &v),
    }
}

/// Check that an instance is deterministic: at most one outgoing edge per
/// (node, label). Exposed for tests and the workload generators.
pub fn is_deterministic(instance: &Instance, _alphabet: &Alphabet) -> bool {
    for o in instance.nodes() {
        let mut seen: Vec<Symbol> = Vec::new();
        for &(sym, _) in instance.out_edges(o) {
            if seen.contains(&sym) {
                return false;
            }
            seen.push(sym);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::{word_implies_word, word_implies_word_eq};
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpq_automata::parse_word;

    fn setup(constraints: &[&str]) -> (Alphabet, ConstraintSet) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, constraints.iter().copied()).unwrap();
        (ab, set)
    }

    fn w(ab: &mut Alphabet, s: &str) -> Vec<Symbol> {
        parse_word(ab, s).unwrap()
    }

    #[test]
    fn separating_example_beats_general_implication() {
        // E = {a ⊆ c, a·x ⊆ c}: deterministically, a, a·x, and c all hit
        // the unique c-object, so a·x ⊆ a. In general this fails (c(o) may
        // contain both targets).
        let (mut ab, set) = setup(&["a <= c", "a.x <= c"]);
        let u = w(&mut ab, "a.x");
        let v = w(&mut ab, "a");
        assert!(det_implies_word(&set, &u, &v).unwrap().is_implied());
        assert!(
            !word_implies_word(&set, &u, &v),
            "general implication must NOT hold — this is the separation"
        );
    }

    #[test]
    fn constraints_that_are_not_words_are_an_error() {
        let (mut ab, set) = setup(&["a <= c", "a.x <= c"]);
        let word = rpq_constraints::parse_constraint(&mut ab, "a.x <= a").unwrap();
        assert!(det_implies_constraint(&set, &word).unwrap().is_implied());
        let star = rpq_constraints::parse_constraint(&mut ab, "a.x* <= a").unwrap();
        assert!(matches!(
            det_implies_constraint(&set, &star),
            Err(NotWordConstraint)
        ));
        let (_, regex_set) = setup(&["a* <= c"]);
        assert!(matches!(
            det_implies_constraint(&regex_set, &word),
            Err(NotWordConstraint)
        ));
    }

    #[test]
    fn refuted_with_verified_deterministic_witness() {
        let (mut ab, set) = setup(&["a <= b"]);
        let u = w(&mut ab, "b");
        let v = w(&mut ab, "a");
        match det_implies_word(&set, &u, &v).unwrap() {
            DetImplication::Implied => panic!("b ⊆ a must not follow from a ⊆ b"),
            DetImplication::Refuted(wit) => {
                assert!(is_deterministic(&wit.instance, &ab));
                assert!(set.holds_at(&wit.instance, wit.source));
                // def(b) but b ⊄ a at the source.
                assert!(!wit.instance.word_targets(wit.source, &u).is_empty());
                let bu = wit.instance.word_targets(wit.source, &u);
                let av = wit.instance.word_targets(wit.source, &v);
                assert!(bu.iter().any(|t| !av.contains(t)));
            }
        }
    }

    #[test]
    fn inclusion_upgrades_to_equality_when_defined() {
        // E = {a ⊆ b}: with def(a), a ≡ b, so a·w ⊆ b·w AND b·w ⊆ a·w both
        // hold when seeded from a·w.
        let (mut ab, set) = setup(&["a <= b"]);
        let aw = w(&mut ab, "a.x");
        let bw = w(&mut ab, "b.x");
        assert!(det_implies_word(&set, &aw, &bw).unwrap().is_implied());
        // But seeded from b·x nothing fires: not implied.
        assert!(!det_implies_word(&set, &bw, &aw).unwrap().is_implied());
    }

    #[test]
    fn equality_conclusion_needs_both_directions() {
        let (mut ab, set) = setup(&["a <= b"]);
        let a = w(&mut ab, "a.x");
        let b = w(&mut ab, "b.x");
        assert!(!det_implies_word_eq(&set, &a, &b).unwrap().is_implied());
        let (mut ab2, set2) = setup(&["a = b"]);
        let a2 = w(&mut ab2, "a.x");
        let b2 = w(&mut ab2, "b.x");
        assert!(det_implies_word_eq(&set2, &a2, &b2).unwrap().is_implied());
    }

    #[test]
    fn epsilon_constraints() {
        // Σ*-style returns: {a·b = ε} — from def(ab): ab ~ ε, so abab ~ ab...
        let (mut ab, set) = setup(&["a.b = ()"]);
        let u = w(&mut ab, "a.b.a.b");
        let eps: Vec<Symbol> = vec![];
        assert!(det_implies_word(&set, &u, &eps).unwrap().is_implied());
        let v = w(&mut ab, "a.b");
        assert!(det_implies_word(&set, &u, &v).unwrap().is_implied());
    }

    #[test]
    fn general_implication_is_subsumed() {
        // E ⊨ c ⟹ E ⊨_det c on random word-constraint systems.
        let mut rng = StdRng::seed_from_u64(0xDE7);
        for trial in 0..150 {
            let mut ab = Alphabet::new();
            let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|s| ab.intern(s)).collect();
            let rand_word = |rng: &mut StdRng, ab_len: usize| -> Vec<Symbol> {
                (0..rng.random_range(0..ab_len))
                    .map(|_| syms[rng.random_range(0..syms.len())])
                    .collect()
            };
            let mut set = ConstraintSet::new();
            for _ in 0..rng.random_range(1..4) {
                let u = rand_word(&mut rng, 4);
                let v = rand_word(&mut rng, 4);
                if u.is_empty() && v.is_empty() {
                    continue;
                }
                // Avoid the u ⊆ ε convention wrinkle by using equalities
                // when either side is empty.
                if u.is_empty() || v.is_empty() {
                    set.add(PathConstraint::equality(
                        rpq_automata::Regex::word(&u),
                        rpq_automata::Regex::word(&v),
                    ));
                } else {
                    set.add(PathConstraint::inclusion(
                        rpq_automata::Regex::word(&u),
                        rpq_automata::Regex::word(&v),
                    ));
                }
            }
            let u = rand_word(&mut rng, 5);
            let v = rand_word(&mut rng, 5);
            if word_implies_word(&set, &u, &v) {
                assert!(
                    det_implies_word(&set, &u, &v).unwrap().is_implied(),
                    "trial {trial}: general implied but det refuted"
                );
            }
            if word_implies_word_eq(&set, &u, &v) {
                assert!(det_implies_word_eq(&set, &u, &v).unwrap().is_implied());
            }
        }
    }

    #[test]
    fn refutations_always_carry_valid_witnesses() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..100 {
            let mut ab = Alphabet::new();
            let syms: Vec<Symbol> = ["a", "b"].iter().map(|s| ab.intern(s)).collect();
            let rand_word = |rng: &mut StdRng| -> Vec<Symbol> {
                (0..rng.random_range(1..4))
                    .map(|_| syms[rng.random_range(0..syms.len())])
                    .collect()
            };
            let mut set = ConstraintSet::new();
            for _ in 0..2 {
                set.add(PathConstraint::inclusion(
                    rpq_automata::Regex::word(&rand_word(&mut rng)),
                    rpq_automata::Regex::word(&rand_word(&mut rng)),
                ));
            }
            let u = rand_word(&mut rng);
            let v = rand_word(&mut rng);
            if let DetImplication::Refuted(wit) = det_implies_word(&set, &u, &v).unwrap() {
                assert!(is_deterministic(&wit.instance, &ab));
                assert!(
                    set.holds_at(&wit.instance, wit.source),
                    "witness violates E"
                );
                let ut = wit.instance.word_targets(wit.source, &u);
                let vt = wit.instance.word_targets(wit.source, &v);
                assert!(!ut.is_empty(), "witness must define the premise word");
                assert!(ut.iter().any(|t| !vt.contains(t)));
            }
        }
    }

    #[test]
    fn model_size_is_polynomial() {
        // States ≤ |seed| + Σ(|lhs|+|rhs|) — check on a chain system.
        let (mut ab, set) = setup(&["a.a <= a", "a.b <= c", "c.a <= a"]);
        let seed = w(&mut ab, "a.a.b");
        let mut m = DetModel::for_premise(&set, &seed).unwrap();
        assert!(m.num_classes() <= 3 + 2 + 1 + 2 + 1 + 2 + 1 + 1);
    }

    #[test]
    fn chain_contraction_through_shared_target() {
        // {u ⊆ c, v ⊆ c} with v a prefix extension: def(u) where u extends
        // v contracts u ~ v through the single c-object.
        let (mut ab, set) = setup(&["x.y <= c", "x <= c"]);
        let u = w(&mut ab, "x.y");
        let v = w(&mut ab, "x");
        assert!(det_implies_word(&set, &u, &v).unwrap().is_implied());
        // and then x·y·y ~ x·y by congruence (x ~ x·y, append y)
        let uy = w(&mut ab, "x.y.y");
        assert!(det_implies_word(&set, &uy, &u).unwrap().is_implied());
        assert!(!word_implies_word(&set, &uy, &u));
    }
}
