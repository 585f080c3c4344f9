//! Soundness and completeness nets around the Section 4 decision
//! procedures:
//!
//! * rewriting is *sound*: if `E ⊨ u ⊆ v` is derived, then every instance
//!   satisfying `E` semantically satisfies `u ⊆ v` (checked on random
//!   instances filtered to satisfy `E`, and on the canonical Lemma 4.4
//!   instance where the equivalence is exact);
//! * rewriting is *complete* on the canonical instance: non-derivable
//!   constraints are violated there;
//! * the general engine's verdicts are certified (witnesses re-verified);
//! * boundedness results are certified equivalences.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use rpq::automata::random::{random_regex, random_word, RegexGenConfig};
use rpq::automata::{Alphabet, Nfa, Regex, Symbol};
use rpq::constraints::general::Budget;
use rpq::constraints::{
    decide_boundedness, Boundedness, Closures, ConstraintKind, ConstraintSet, PathConstraint,
};
use rpq::core::eval_product;
use rpq::graph::generators::random_graph;
use rpq::paper::implication::word_implies_word_eq;
use rpq::paper::{
    check, lemma44_instance, word_implies_path, word_implies_word, Refutation, Verdict,
    WordImplication,
};

fn word_set(rng: &mut StdRng, syms: &[Symbol], n_rules: usize) -> ConstraintSet {
    let mut cs = Vec::new();
    for _ in 0..n_rules {
        let lu = 1 + (rng.next_u32() as usize % 3);
        let lv = rng.next_u32() as usize % 3;
        let u = random_word(rng, syms, lu);
        let v = random_word(rng, syms, lv);
        cs.push(PathConstraint {
            lhs: rpq::automata::Regex::word(&u),
            rhs: rpq::automata::Regex::word(&v),
            kind: if rng.next_u32().is_multiple_of(2) {
                ConstraintKind::Inclusion
            } else {
                ConstraintKind::Equality
            },
        });
    }
    ConstraintSet::from_constraints(cs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 4.4 exactness on the canonical instance: for words within the
    /// bound, semantic satisfaction there coincides with derivability.
    #[test]
    fn canonical_instance_is_exact(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let set = word_set(&mut rng, &syms, 2);
        let k = 3usize;
        let Ok(ci) = lemma44_instance(&set, &syms, k, &ab) else {
            // size cap or a derived-emptiness set (see CanonicalError) — skip
            return Ok(());
        };
        // sanity: the canonical instance satisfies E (within-bound words)
        for u_len in 0..=k {
            for v_len in 0..=k {
                let u = random_word(&mut rng, &syms, u_len);
                let v = random_word(&mut rng, &syms, v_len);
                let semantic = {
                    let au = eval_product(&Nfa::from_word(&u), &ci.instance, ci.source).answers;
                    let av = eval_product(&Nfa::from_word(&v), &ci.instance, ci.source).answers;
                    au.iter().all(|o| av.binary_search(o).is_ok())
                };
                let derived = word_implies_word(&set, &u, &v);
                prop_assert_eq!(semantic, derived,
                    "u={:?} v={:?}", ab.render_word(&u), ab.render_word(&v));
            }
        }
    }

    /// Soundness on arbitrary instances: derived word implications hold on
    /// every random instance that satisfies `E`.
    #[test]
    fn derived_implications_hold_semantically(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let set = word_set(&mut rng, &syms, 2);
        let u = random_word(&mut rng, &syms, 1 + (seed as usize % 3));
        let v = random_word(&mut rng, &syms, seed as usize % 3);
        if !word_implies_word(&set, &u, &v) {
            return Ok(());
        }
        // find instances satisfying E and check u ⊆ v there
        let mut checked = 0;
        for t in 0..40 {
            let (inst, src) = random_graph(&mut StdRng::seed_from_u64(seed * 100 + t), 4, 8, &syms);
            if !set.holds_at(&inst, src) {
                continue;
            }
            checked += 1;
            let au = eval_product(&Nfa::from_word(&u), &inst, src).answers;
            let av = eval_product(&Nfa::from_word(&v), &inst, src).answers;
            prop_assert!(
                au.iter().all(|o| av.binary_search(o).is_ok()),
                "unsound: E ⊨ {:?} ⊆ {:?} but violated",
                ab.render_word(&u), ab.render_word(&v)
            );
        }
        let _ = checked; // zero satisfying instances is fine
    }

    /// Theorem 4.3(ii) refutations produce genuine members of L(p).
    #[test]
    fn path_refutation_witnesses_are_members(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let set = word_set(&mut rng, &syms, 2);
        let cfg = RegexGenConfig::new(syms);
        let p = random_regex(&mut rng, &cfg);
        let q = random_regex(&mut rng, &cfg);
        match word_implies_path(&set, &p, &q).unwrap() {
            WordImplication::Implied => {}
            WordImplication::Refuted(w) => {
                prop_assert!(Nfa::thompson(&p).accepts(&w));
            }
        }
    }
}

/// General-engine verdicts are certified: every refutation witness
/// satisfies E and violates the constraint; `Implied` never coincides
/// with a random counterexample. One case in four gives the set an `∅`
/// right side and heads the claim with the set's left side, the shape the
/// closure's `P ⊆ ∅` completion proves; at least half of those cases must
/// come out `Implied`, so the property cannot pass vacuously.
#[test]
fn general_verdicts_are_certified() {
    let ab = Alphabet::from_names(["a", "b"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let cfg = RegexGenConfig::new(syms.clone());
    let budget = Budget {
        chase_seeds: 6,
        repairs: 20,
        random_tries: 60,
        ..Budget::default()
    };
    let (mut empty_cases, mut empty_implied) = (0, 0);
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let empty = seed % 4 == 0;
        let set_lhs = random_regex(&mut rng, &cfg);
        let set_rhs = if empty {
            Regex::Empty
        } else {
            random_regex(&mut rng, &cfg)
        };
        let claim_lhs = random_regex(&mut rng, &cfg);
        let claim_lhs = if empty {
            set_lhs.clone().then(claim_lhs)
        } else {
            claim_lhs
        };
        let set = ConstraintSet::from_constraints([PathConstraint {
            lhs: set_lhs,
            rhs: set_rhs,
            kind: ConstraintKind::Inclusion,
        }]);
        let claim = PathConstraint {
            lhs: claim_lhs,
            rhs: random_regex(&mut rng, &cfg),
            kind: ConstraintKind::Inclusion,
        };
        let verdict = check(&set, &claim, &budget);
        if empty {
            empty_cases += 1;
            empty_implied += usize::from(verdict.is_implied());
        }
        match verdict {
            Verdict::Refuted(Refutation::Instance(w)) => {
                assert!(set.holds_at(&w.instance, w.source), "seed {seed}");
                assert!(!claim.holds_at(&w.instance, w.source), "seed {seed}");
            }
            Verdict::Refuted(Refutation::Word(_)) => {
                // only possible for word-constraint routes
                assert!(set.all_word_constraints(), "seed {seed}");
            }
            Verdict::Implied { .. } => {
                // spot-check: no random small instance violates it
                for t in 0..30 {
                    let (inst, src) =
                        random_graph(&mut StdRng::seed_from_u64(seed * 31 + t), 4, 8, &syms);
                    if set.holds_at(&inst, src) {
                        assert!(
                            claim.holds_at(&inst, src),
                            "seed {seed}: Implied contradicted by random instance"
                        );
                    }
                }
            }
            Verdict::Unknown => {}
        }
    }
    assert!(
        2 * empty_implied >= empty_cases,
        "only {empty_implied} of {empty_cases} ∅-side cases were proved"
    );
}

#[test]
fn boundedness_results_are_certified_equivalences() {
    // every Bounded answer already passed two Theorem 4.3 checks inside
    // decide_boundedness; re-verify semantically on Armstrong truncations.
    let cases: &[(&[&str], &str)] = &[
        (&["a.a = a"], "a*"),
        (&["a.a.a = ()"], "a*"),
        (&["a.b = b.a"], "a.b + b.a"),
        (&["b.a = a", "b.b = b"], "b*.a"),
    ];
    for (lines, query) in cases {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let p = rpq::automata::parse_regex(&mut ab, query).unwrap();
        match decide_boundedness(&Closures::new(&set), &p, 64).unwrap() {
            Boundedness::Bounded { equivalent, .. } => {
                // semantic check on the materialized Armstrong sphere
                let syms: Vec<Symbol> = ab.symbols().collect();
                let sphere = rpq::paper::ArmstrongSphere::build(
                    &set,
                    &syms,
                    rpq::paper::suggested_radius(&set) + 2,
                    200_000,
                )
                .unwrap();
                let (inst, src) = sphere.to_instance(&ab);
                let pa = eval_product(&Nfa::thompson(&p), &inst, src).answers;
                let qa = eval_product(&Nfa::thompson(&equivalent), &inst, src).answers;
                assert_eq!(pa, qa, "E={lines:?} p={query}");
            }
            Boundedness::Unbounded => {
                panic!("expected bounded for E={lines:?}, p={query}");
            }
        }
    }
}

#[test]
fn unbounded_queries_really_pump() {
    // For E = {aa = a}, (a+b)* is unbounded: no finite q can be equivalent.
    // Witness semantically: b^k answers are pairwise distinct classes.
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["a.a = a"]).unwrap();
    let b = ab.intern("b");
    let p = rpq::automata::parse_regex(&mut ab, "(a+b)*").unwrap();
    match decide_boundedness(&Closures::new(&set), &p, 64).unwrap() {
        Boundedness::Unbounded => {}
        other => panic!("expected unbounded: {other:?}"),
    }
    for i in 0..=6 {
        for j in 0..=6 {
            assert_eq!(
                word_implies_word_eq(&set, &vec![b; i], &vec![b; j]),
                i == j,
                "b^{i} vs b^{j}"
            );
        }
    }
}

#[test]
fn example1_refutation_is_stable() {
    // The Example 1 literal claim must be refuted with a verified witness
    // (documented discrepancy; `tests/paper_examples.rs` pins the paper's
    // sound direction).
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["(a+b+d+l)*.l = ()"]).unwrap();
    let claim = rpq::constraints::parse_constraint(&mut ab, "(l.a + l.b)*.d = (a+b).d").unwrap();
    match check(&set, &claim, &Budget::default()) {
        Verdict::Refuted(Refutation::Instance(w)) => {
            assert!(set.holds_at(&w.instance, w.source));
            assert!(!claim.holds_at(&w.instance, w.source));
        }
        other => panic!("expected refutation: {other:?}"),
    }
}
