//! The Section 5 deterministic-instance special case against the general
//! Theorem 4.3 procedures: general implication is *sound* for deterministic
//! instances (every general implication holds deterministically), the
//! converse fails on specific witnesses, every deterministic refutation
//! carries a machine-checked counterexample, and every det-implied claim
//! holds on deterministic instances the deterministic chase of
//! `rpq_testkit::satisfy` builds to satisfy `E`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq::automata::{Alphabet, Symbol};
use rpq::constraints::{ConstraintKind, ConstraintSet};
use rpq::paper::deterministic::{det_implies_word, is_deterministic, DetImplication};
use rpq::paper::implication::word_implies_word;
use rpq_testkit::draw::{random_word_up_to, word_system};
use rpq_testkit::generators::deterministic_graph;
use rpq_testkit::satisfy::{chase_deterministic, Scope};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn general_implication_holds_deterministically(seed in 0u64..20_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|s| ab.intern(s)).collect();
        let n = rng.random_range(1..4);
        let set = word_system(&mut rng, &syms, n, 1..=3, 1..=3);
        let u = random_word_up_to(&mut rng, &syms, 4);
        let v = random_word_up_to(&mut rng, &syms, 4);
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
        let set = word_system(&mut rng, &syms, n, 1..=3, 1..=3);
        let u = random_word_up_to(&mut rng, &syms, 3);
        let v = random_word_up_to(&mut rng, &syms, 3);
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

    /// Semantic end-to-end check: whenever the congruence-closure
    /// procedure says `E ⊨_det u ⊆ v`, the conclusion holds on four
    /// deterministic instances per case that the deterministic chase builds
    /// from random deterministic graphs to satisfy `E` at their source.
    /// Every case has such a claim — a rule extended by a suffix, which `E`
    /// implies on every instance — and checks a random claim too when it
    /// is det-implied.
    #[test]
    fn det_implied_constraints_hold_on_random_deterministic_instances(seed in 0u64..20_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b"].iter().map(|s| ab.intern(s)).collect();
        let n = rng.random_range(1..3);
        let set = word_system(&mut rng, &syms, n, 1..=3, 1..=3);
        let u = random_word_up_to(&mut rng, &syms, 3);
        let v = random_word_up_to(&mut rng, &syms, 3);
        let rule = set.iter().nth(rng.random_range(0..set.len())).unwrap();
        let (mut ru, mut rv) = rule.as_word_pair().unwrap();
        if rule.kind == ConstraintKind::Equality && rng.random_bool(0.5) {
            std::mem::swap(&mut ru, &mut rv);
        }
        let w = random_word_up_to(&mut rng, &syms, 2);
        ru.extend(&w);
        rv.extend(&w);
        prop_assert!(det_implies_word(&set, &ru, &rv).unwrap().is_implied());
        let mut claims = vec![(ru, rv)];
        if det_implies_word(&set, &u, &v).unwrap().is_implied() {
            claims.push((u, v));
        }
        for _ in 0..4 {
            let (mut inst, src) = deterministic_graph(&mut rng, 6, &syms, 80);
            let built = chase_deterministic(&mut inst, &set, &Scope::Source(src), 10_000);
            prop_assert!(built.is_ok(), "no instance: {:?}", built);
            prop_assert!(is_deterministic(&inst, &ab));
            prop_assert!(set.holds_at(&inst, src));
            for (u, v) in &claims {
                let ut = inst.word_targets(src, u);
                let vt = inst.word_targets(src, v);
                prop_assert!(
                    ut.iter().all(|t| vt.contains(t)),
                    "det-implied constraint violated on a satisfying instance"
                );
            }
        }
    }
}
