//! The Section 5 deterministic-instance special case against the general
//! Theorem 4.3 procedures: general implication is *sound* for deterministic
//! instances (every general implication holds deterministically), the
//! converse fails on specific witnesses, and every deterministic refutation
//! carries a machine-checked counterexample.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq::automata::{Alphabet, Regex, Symbol};
use rpq::constraints::{ConstraintSet, PathConstraint};
use rpq::paper::deterministic::{det_implies_word, is_deterministic, DetImplication};
use rpq::paper::implication::word_implies_word;

fn random_word(rng: &mut StdRng, syms: &[Symbol], max_len: usize) -> Vec<Symbol> {
    (0..rng.random_range(1..=max_len))
        .map(|_| syms[rng.random_range(0..syms.len())])
        .collect()
}

fn random_system(rng: &mut StdRng, syms: &[Symbol], n: usize) -> ConstraintSet {
    let mut set = ConstraintSet::new();
    for _ in 0..n {
        let u = random_word(rng, syms, 3);
        let v = random_word(rng, syms, 3);
        if rng.random_range(0..2) == 0 {
            set.add(PathConstraint::inclusion(Regex::word(&u), Regex::word(&v)));
        } else {
            set.add(PathConstraint::equality(Regex::word(&u), Regex::word(&v)));
        }
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn general_implication_holds_deterministically(seed in 0u64..20_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|s| ab.intern(s)).collect();
        let n = rng.random_range(1..4);
        let set = random_system(&mut rng, &syms, n);
        let u = random_word(&mut rng, &syms, 4);
        let v = random_word(&mut rng, &syms, 4);
        if word_implies_word(&set, &u, &v) {
            prop_assert!(
                det_implies_word(&set, &u, &v).unwrap().is_implied(),
                "E ⊨ u ⊆ v generally but not deterministically"
            );
        }
    }

    #[test]
    fn deterministic_refutations_are_machine_checked(seed in 0u64..20_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b"].iter().map(|s| ab.intern(s)).collect();
        let n = rng.random_range(1..3);
        let set = random_system(&mut rng, &syms, n);
        let u = random_word(&mut rng, &syms, 3);
        let v = random_word(&mut rng, &syms, 3);
        if let DetImplication::Refuted(w) = det_implies_word(&set, &u, &v).unwrap() {
            prop_assert!(is_deterministic(&w.instance, &ab));
            prop_assert!(set.holds_at(&w.instance, w.source), "witness violates E");
            let ut = w.instance.word_targets(w.source, &u);
            let vt = w.instance.word_targets(w.source, &v);
            prop_assert!(!ut.is_empty());
            prop_assert!(ut.iter().any(|t| !vt.contains(t)));
            // The witness also refutes the general implication (a
            // deterministic counterexample is in particular an instance).
            prop_assert!(!word_implies_word(&set, &u, &v));
        }
    }
}

#[test]
fn separation_witnesses_from_the_paper_discussion() {
    // Families where determinism strictly strengthens implication: the
    // singleton-target contraction.
    let cases: Vec<(&[&str], &str, &str)> = vec![
        (&["a <= c", "a.x <= c"], "a.x", "a"),
        (&["x.y <= c", "x <= c"], "x.y.y", "x.y"),
    ];
    for (axioms, u_src, v_src) in cases {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, axioms.iter().copied()).unwrap();
        let u = rpq::automata::parse_word(&mut ab, u_src).unwrap();
        let v = rpq::automata::parse_word(&mut ab, v_src).unwrap();
        assert!(
            det_implies_word(&set, &u, &v).unwrap().is_implied(),
            "{u_src} ⊆ {v_src} should hold deterministically"
        );
        assert!(
            !word_implies_word(&set, &u, &v),
            "{u_src} ⊆ {v_src} should NOT hold generally — that's the separation"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn det_implied_constraints_hold_on_random_deterministic_instances(seed in 0u64..20_000) {
        // Semantic end-to-end check: whenever the congruence-closure
        // procedure says E ⊨_det u ⊆ v, every sampled deterministic
        // instance satisfying E satisfies the conclusion.
        use rpq::graph::generators::deterministic_graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b"].iter().map(|s| ab.intern(s)).collect();
        let n = rng.random_range(1..3);
        let set = random_system(&mut rng, &syms, n);
        let u = random_word(&mut rng, &syms, 3);
        let v = random_word(&mut rng, &syms, 3);
        if !det_implies_word(&set, &u, &v).unwrap().is_implied() {
            return Ok(());
        }
        let mut hits = 0;
        for _ in 0..40 {
            let (inst, src) = deterministic_graph(&mut rng, 6, &syms, 80);
            if !set.holds_at(&inst, src) {
                continue;
            }
            hits += 1;
            let ut = inst.word_targets(src, &u);
            let vt = inst.word_targets(src, &v);
            prop_assert!(
                ut.iter().all(|t| vt.contains(t)),
                "det-implied constraint violated on a satisfying instance"
            );
        }
        let _ = hits; // some seeds may produce no satisfying samples; fine
    }
}
