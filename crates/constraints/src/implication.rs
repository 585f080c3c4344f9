//! Implication by word constraints — Theorem 4.3.
//!
//! * Part (i): implication of a word constraint by word constraints is
//!   decidable in PTIME — `E ⊨ u ⊆ v` iff `u →*_E v` (Lemma 4.4), decided
//!   through the `RewriteTo(v)` automaton (Lemma 4.5).
//! * Part (ii): implication of a *path* constraint by word constraints is
//!   decidable in PSPACE — `E ⊨ p ⊆ q` iff `L(p) ⊆ RewriteTo(q)`
//!   (Lemmas 4.6 + 4.7), an ordinary regular-language inclusion.
//!
//! Both the antichain-based and the naive fully-determinizing inclusion
//! checks are exposed; bench `t3_path_implication` compares them over the
//! same automaton.
//!
//! ## Why the certification closure decides part (ii) exactly
//!
//! Part (ii) reads `RewriteTo(q)` off [`rewrite_closure_nfa`], the closure
//! the optimizer also certifies rewrites against, through a [`Closures`]
//! memo, so a plan that decides `E ⊨ p = q` and then certifies it builds
//! each of the two closures once. On an all-word set the closure *is*
//! `RewriteTo(q)`: every rule `u → v` embeds `u` as a fragment read out of
//! the root and ε-wires its exit to every state the root reaches by reading
//! `v` — the word saturation of Lemma 4.5, with the last `u`-edge replaced
//! by an ε-edge behind it — and no rule has a regex side, so the universal
//! wiring never runs. The saturation is run to its fixpoint, so the closure
//! accepts `pre*(L(q))`, which is `RewriteTo(q)` by Lemma 4.7 and the set
//! of words `u` with `E ⊨ u ⊆ q` by Lemma 4.4 (with the `u ⊆ ε` completion
//! both constructions see in the set). The property test
//! `closure_is_rewrite_to_on_word_sets` holds the two constructions equal.

use rpq_automata::ops::included_naive;
use rpq_automata::{Nfa, Regex, Symbol};

use crate::rewrite::{rewrite_closure_nfa, rewrite_to_word_nfa, Closures, RewriteSystem};
use crate::types::{ConstraintSet, PathConstraint};

/// Outcome of a word-constraint implication check. `Refuted` carries a word
/// `u ∈ L(p)` that does not rewrite into the target — by Lemma 4.4 /
/// Lemma 4.6 completeness, a genuine semantic counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WordImplication {
    /// The implication holds.
    Implied,
    /// A witness word in `L(lhs) \ RewriteTo(rhs)`.
    Refuted(Vec<Symbol>),
}

impl WordImplication {
    /// True when implied.
    pub fn is_implied(&self) -> bool {
        matches!(self, WordImplication::Implied)
    }
}

/// Theorem 4.3(i): does `E ⊨ u ⊆ v` for words `u, v`? PTIME.
pub fn word_implies_word(set: &ConstraintSet, u: &[Symbol], v: &[Symbol]) -> bool {
    let rules = RewriteSystem::from_constraints(set);
    rewrite_to_word_nfa(v, &rules).nfa.accepts(u)
}

/// Theorem 4.3(i) for equalities: `E ⊨ u = v` iff `u →* v` and `v →* u`.
pub fn word_implies_word_eq(set: &ConstraintSet, u: &[Symbol], v: &[Symbol]) -> bool {
    word_implies_word(set, u, v) && word_implies_word(set, v, u)
}

/// Theorem 4.3(ii): does `E ⊨ p ⊆ q`? Decided as `L(p) ⊆ RewriteTo(q)`
/// using the antichain inclusion algorithm, with `RewriteTo(q)` read off
/// the certification closure (exact on word sets; see the module docs).
///
/// **Precondition:** `E` must contain only word constraints (checked;
/// panics otherwise — route general constraints through
/// [`crate::general::check`]).
pub fn word_implies_path(set: &ConstraintSet, p: &Regex, q: &Regex) -> WordImplication {
    assert!(
        set.all_word_constraints(),
        "word_implies_path requires a word-constraint set"
    );
    match Closures::new(set).includes(&Nfa::thompson(p), q) {
        Ok(()) => WordImplication::Implied,
        Err(w) => WordImplication::Refuted(w),
    }
}

/// The same decision through full determinization (the textbook PSPACE
/// procedure) over the same closure automaton; exists for the bench
/// ablation and cross-checking. `sigma` must cover every symbol of `p`,
/// `q`, and `E`.
pub fn word_implies_path_naive(
    set: &ConstraintSet,
    p: &Regex,
    q: &Regex,
    sigma: usize,
) -> WordImplication {
    assert!(set.all_word_constraints());
    let rewrite = rewrite_closure_nfa(set, &Nfa::thompson(q));
    match included_naive(&Nfa::thompson(p), &rewrite.nfa, sigma) {
        Ok(()) => WordImplication::Implied,
        Err(w) => WordImplication::Refuted(w),
    }
}

/// Full path-constraint check against a word-constraint set: inclusion or
/// equality (two inclusions).
pub fn word_implies_constraint(set: &ConstraintSet, c: &PathConstraint) -> WordImplication {
    assert!(
        set.all_word_constraints(),
        "word_implies_constraint requires a word-constraint set"
    );
    match Closures::new(set).implies(c) {
        Ok(_) => WordImplication::Implied,
        Err(w) => WordImplication::Refuted(w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::parse_constraint;
    use rpq_automata::{parse_regex, parse_word, Alphabet};

    fn set(ab: &mut Alphabet, lines: &[&str]) -> ConstraintSet {
        ConstraintSet::parse(ab, lines.iter().copied()).unwrap()
    }

    #[test]
    fn example2_of_section_32() {
        // E = {l·l ⊆ l} ⊨ l* = l + ε   (Example 2, Section 3.2)
        let mut ab = Alphabet::new();
        let e = set(&mut ab, &["l.l <= l"]);
        let p = parse_regex(&mut ab, "l*").unwrap();
        let q = parse_regex(&mut ab, "l + ()").unwrap();
        assert_eq!(word_implies_path(&e, &p, &q), WordImplication::Implied);
        assert_eq!(word_implies_path(&e, &q, &p), WordImplication::Implied);
        // and via the constraint-level API
        let c = parse_constraint(&mut ab, "l* = l + ()").unwrap();
        assert!(word_implies_constraint(&e, &c).is_implied());
    }

    #[test]
    fn without_constraint_l_star_is_not_bounded() {
        let mut ab = Alphabet::new();
        let e = ConstraintSet::new();
        let p = parse_regex(&mut ab, "l*").unwrap();
        let q = parse_regex(&mut ab, "l + ()").unwrap();
        match word_implies_path(&e, &p, &q) {
            WordImplication::Refuted(w) => assert_eq!(w.len(), 2), // ll
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn word_level_decisions() {
        let mut ab = Alphabet::new();
        let e = set(&mut ab, &["a.a <= a"]);
        let u = parse_word(&mut ab, "a.a.a.a").unwrap();
        let v = parse_word(&mut ab, "a").unwrap();
        assert!(word_implies_word(&e, &u, &v));
        assert!(!word_implies_word(&e, &v, &u));
        assert!(!word_implies_word_eq(&e, &u, &v));
        let e2 = set(&mut ab, &["a.a = a"]);
        assert!(word_implies_word_eq(&e2, &u, &v));
    }

    #[test]
    fn naive_and_antichain_agree() {
        let mut ab = Alphabet::new();
        let e = set(&mut ab, &["a.b <= c", "c.c <= c", "b = d"]);
        let sigma = ab.len();
        let cases = [
            ("(a.b)*", "c* + (a.b)*"),
            ("a.b.c", "c.c"),
            ("d", "b"),
            ("a.d", "a.b"),
            ("a.b", "c"),
            ("c", "a.b"),
            ("a*", "a.a*"),
        ];
        for (ps, qs) in cases {
            let p = parse_regex(&mut ab, ps).unwrap();
            let q = parse_regex(&mut ab, qs).unwrap();
            let anti = word_implies_path(&e, &p, &q).is_implied();
            let naive = word_implies_path_naive(&e, &p, &q, sigma).is_implied();
            assert_eq!(anti, naive, "{ps} ⊆ {qs}");
        }
    }

    #[test]
    fn refutation_witness_is_in_lhs() {
        let mut ab = Alphabet::new();
        let e = set(&mut ab, &["a.b <= c"]);
        let p = parse_regex(&mut ab, "a.b + b.a").unwrap();
        let q = parse_regex(&mut ab, "c").unwrap();
        let WordImplication::Refuted(w) = word_implies_path(&e, &p, &q) else {
            panic!("must refute: b.a does not rewrite to c");
        };
        assert!(Nfa::thompson(&p).accepts(&w));
    }

    #[test]
    fn lemma_46_shape_counterexample() {
        // The paper notes p ⊆ q can hold *semantically on one instance*
        // without per-word rewriting (e.g. a ⊆ b+c); implication by an
        // EMPTY set of word constraints must refute it.
        let mut ab = Alphabet::new();
        let e = ConstraintSet::new();
        let p = parse_regex(&mut ab, "a").unwrap();
        let q = parse_regex(&mut ab, "b + c").unwrap();
        assert!(!word_implies_path(&e, &p, &q).is_implied());
    }

    #[test]
    fn cached_query_as_word_rules() {
        // cache edge: l = a.b (word equality). Then l.x ≡ a.b.x.
        let mut ab = Alphabet::new();
        let e = set(&mut ab, &["l = a.b"]);
        let p = parse_regex(&mut ab, "l.x").unwrap();
        let q = parse_regex(&mut ab, "a.b.x").unwrap();
        assert!(word_implies_path(&e, &p, &q).is_implied());
        assert!(word_implies_path(&e, &q, &p).is_implied());
    }

    #[test]
    fn epsilon_target() {
        let mut ab = Alphabet::new();
        // home = ε: home* ≡ ε
        let e = set(&mut ab, &["home = ()"]);
        let p = parse_regex(&mut ab, "home*").unwrap();
        let q = parse_regex(&mut ab, "()").unwrap();
        assert!(word_implies_path(&e, &p, &q).is_implied());
        assert!(word_implies_path(&e, &q, &p).is_implied());
    }

    #[test]
    #[should_panic(expected = "word-constraint set")]
    fn non_word_sets_are_rejected() {
        let mut ab = Alphabet::new();
        let e = set(&mut ab, &["a* <= b"]);
        let p = parse_regex(&mut ab, "a").unwrap();
        let q = parse_regex(&mut ab, "b").unwrap();
        let _ = word_implies_path(&e, &p, &q);
    }
}
