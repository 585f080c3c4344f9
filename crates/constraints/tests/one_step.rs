//! The one-step proof of `Closures`: a claim `P·t ⊆ R·t` that is one rule
//! `P ⊆ R` of `E` right-concatenated with a tail is proved without a
//! closure. Every such claim is proved, no claim that needs left context,
//! two different tails or a rule read backwards is, and on word sets —
//! where the closure is exact — the closure proves every one-step claim
//! too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq_automata::ops::included_antichain;
use rpq_automata::{Alphabet, Nfa, Regex, Symbol};
use rpq_constraints::{rewrite_closure_nfa, Closures, ConstraintSet, PathConstraint};
use rpq_testkit::draw::word_system;
use rpq_testkit::random::{random_regex, RegexGenConfig};

/// `a b c` for the constraints, `x y z` for the contexts and tails the
/// rejections put around a rule, which no constraint mentions.
fn alphabet() -> (Vec<Symbol>, [Symbol; 3]) {
    let ab = Alphabet::from_names(["a", "b", "c", "x", "y", "z"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    (syms[..3].to_vec(), [syms[3], syms[4], syms[5]])
}

/// A random regex over `syms` of depth at most 2.
fn regex(rng: &mut StdRng, syms: &[Symbol]) -> Regex {
    let mut cfg = RegexGenConfig::new(syms.to_vec());
    cfg.max_depth = 2;
    random_regex(rng, &cfg)
}

/// A random side of a regex-sided rule: a word, a regex, `ε` or `∅`.
fn side(rng: &mut StdRng, syms: &[Symbol]) -> Regex {
    match rng.random_range(0..10) {
        0 => Regex::Empty,
        1 => Regex::Epsilon,
        2..=4 => {
            let len = rng.random_range(1..=3);
            let word: Vec<Symbol> = (0..len)
                .map(|_| syms[rng.random_range(0..syms.len())])
                .collect();
            Regex::word(&word)
        }
        _ => regex(rng, syms),
    }
}

/// A random set of one to four constraints with regex, `ε` and `∅` sides.
fn regex_system(rng: &mut StdRng, syms: &[Symbol]) -> ConstraintSet {
    (0..rng.random_range(1..=4))
        .map(|_| {
            let (lhs, rhs) = (side(rng, syms), side(rng, syms));
            if rng.random_range(0..2) == 0 {
                PathConstraint::inclusion(lhs, rhs)
            } else {
                PathConstraint::equality(lhs, rhs)
            }
        })
        .collect()
}

/// Does the closure of `q` accept every word of `p`?
fn closure_proves(set: &ConstraintSet, p: &Regex, q: &Regex) -> bool {
    let closure = rewrite_closure_nfa(set, &Nfa::thompson(q));
    included_antichain(&Nfa::thompson(p), &closure.nfa).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every inclusion `P ⊆ R` of `E` (both directions of an equality, the
    /// `ε ⊆ u` completions, regex-sided and `∅` rules) right-concatenated
    /// with a random tail is proved in one step, by `one_step` and by
    /// `implies`; on a word set the closure proves it too.
    #[test]
    fn every_rule_with_a_tail_is_one_step(seed in 0u64..100_000) {
        let (syms, _) = alphabet();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..=4);
        let words = word_system(&mut rng, &syms, n, 1..=3, 0..=3);
        let regexes = regex_system(&mut rng, &syms);
        for set in [&words, &regexes] {
            let closures = Closures::new(set);
            for c in set.iter() {
                for (big_p, big_r) in c.as_inclusions() {
                    for t in [Regex::Epsilon, regex(&mut rng, &syms), regex(&mut rng, &syms)] {
                        let (p, q) = (big_p.clone().then(t.clone()), big_r.clone().then(t));
                        prop_assert!(closures.one_step(&p, &q), "{p:?} ⊆ {q:?}");
                        let claim = PathConstraint::inclusion(p.clone(), q.clone());
                        prop_assert_eq!(closures.implies(&claim), Ok("one-step"));
                        if set.all_word_constraints() {
                            prop_assert!(closure_proves(set, &p, &q), "{p:?} ⊆ {q:?}");
                        }
                    }
                }
            }
            prop_assert_eq!((closures.builds(), closures.inclusions()), (0, 0));
        }
    }

    /// Under one inclusion `P ⊆ R`, with `x`, `y`, `z` labels `E` does not
    /// mention: `x·P ⊆ x·R` and `x·P·t ⊆ x·R·t` (left context),
    /// `P·y·t ⊆ R·z·t` (two tails) and `R·t ⊆ P·t` (the rule read
    /// backwards) are not one step, while `P·t ⊆ R·t` is.
    #[test]
    fn no_left_context_other_tail_or_backward_rule_is_one_step(seed in 0u64..100_000) {
        let (syms, [x, y, z]) = alphabet();
        let mut rng = StdRng::seed_from_u64(seed);
        let (big_p, big_r) = loop {
            let (l, r) = if rng.random_range(0..2) == 0 {
                let set = word_system(&mut rng, &syms, 1, 1..=3, 1..=3);
                let c = set.iter().next().expect("one constraint").clone();
                (c.lhs, c.rhs)
            } else {
                (side(&mut rng, &syms), side(&mut rng, &syms))
            };
            // `ε` or `∅` on the right makes the backward claim hold by
            // another rule or vacuously; `∅` on the left, vacuously.
            let degenerate = [&l, &r].contains(&&Regex::Empty) || r == Regex::Epsilon;
            if l != r && !degenerate {
                break (l, r);
            }
        };
        let set = ConstraintSet::from_constraints([PathConstraint::inclusion(
            big_p.clone(),
            big_r.clone(),
        )]);
        prop_assert_eq!(set.len(), 1, "no completion");
        let closures = Closures::new(&set);
        let t = regex(&mut rng, &syms);
        let (sx, sy, sz) = (Regex::sym(x), Regex::sym(y), Regex::sym(z));
        let cat = |parts: &[&Regex]| Regex::concat(parts.iter().map(|&r| r.clone()).collect());
        prop_assert!(closures.one_step(&cat(&[&big_p, &t]), &cat(&[&big_r, &t])));
        for (p, q) in [
            (cat(&[&sx, &big_p]), cat(&[&sx, &big_r])),
            (cat(&[&sx, &big_p, &t]), cat(&[&sx, &big_r, &t])),
            (cat(&[&big_p, &sy, &t]), cat(&[&big_r, &sz, &t])),
            (cat(&[&big_r, &t]), cat(&[&big_p, &t])),
        ] {
            prop_assert!(!closures.one_step(&p, &q), "{p:?} ⊆ {q:?} under {big_p:?} ⊆ {big_r:?}");
        }
    }
}
