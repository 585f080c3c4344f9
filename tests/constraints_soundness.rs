//! Soundness and completeness nets around the Section 4 decision
//! procedures:
//!
//! * rewriting is *sound*: if `E ⊨ u ⊆ v` is derived, then every instance
//!   satisfying `E` semantically satisfies `u ⊆ v` (checked on instances
//!   the chase of `rpq_testkit::satisfy` builds to satisfy `E`, and on the
//!   canonical Lemma 4.4 instance where the equivalence is exact);
//! * rewriting is *complete* on the canonical instance: non-derivable
//!   constraints are violated there;
//! * the general engine's verdicts are certified (witnesses re-verified);
//! * boundedness results are certified equivalences.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq::automata::{Alphabet, Nfa, Regex, Symbol};
use rpq::constraints::general::Budget;
use rpq::constraints::{
    decide_boundedness, Boundedness, Closures, ConstraintKind, ConstraintSet, PathConstraint,
};
use rpq::core::eval_product;
use rpq::graph::{Instance, Oid};
use rpq::paper::implication::word_implies_word_eq;
use rpq::paper::{
    check, lemma44_instance, word_implies_path, word_implies_word, Refutation, Verdict,
    WordImplication,
};
use rpq_testkit::draw::word_system;
use rpq_testkit::generators::random_graph;
use rpq_testkit::random::{random_regex, random_word, RegexGenConfig};
use rpq_testkit::satisfy::{chase, Scope, Unsatisfied};

/// Two random word constraints over `syms`: left sides of 1–3 letters,
/// right sides of 0–2 (`ε` among them).
fn word_set(rng: &mut StdRng, syms: &[Symbol]) -> ConstraintSet {
    word_system(rng, syms, 2, 1..=3, 0..=2)
}

/// A claim `E` implies: rule `u ⊆ v` (either direction of an equality)
/// extended by a random suffix `w`, since `u(o) ⊆ v(o)` gives
/// `u·w(o) ⊆ v·w(o)`.
fn implied_word_claim(
    rng: &mut StdRng,
    set: &ConstraintSet,
    syms: &[Symbol],
) -> (Vec<Symbol>, Vec<Symbol>) {
    let rule = set.iter().nth(rng.random_range(0..set.len())).unwrap();
    let (mut u, mut v) = rule.as_word_pair().unwrap();
    if rule.kind == ConstraintKind::Equality && rng.random_bool(0.5) {
        std::mem::swap(&mut u, &mut v);
    }
    let len = rng.random_range(0..=2);
    let w = random_word(rng, syms, len);
    u.extend(&w);
    v.extend(&w);
    (u, v)
}

/// Does `u ⊆ v` hold at `(src, inst)`?
fn word_inclusion_holds(inst: &Instance, src: Oid, u: &[Symbol], v: &[Symbol]) -> bool {
    let au = eval_product(&Nfa::from_word(u), inst, src).answers;
    let av = eval_product(&Nfa::from_word(v), inst, src).answers;
    au.iter().all(|o| av.binary_search(o).is_ok())
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
        let set = word_set(&mut rng, &syms);
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
                let semantic = word_inclusion_holds(&ci.instance, ci.source, &u, &v);
                let derived = word_implies_word(&set, &u, &v);
                prop_assert_eq!(semantic, derived,
                    "u={:?} v={:?}", ab.render_word(&u), ab.render_word(&v));
            }
        }
    }

    /// Soundness on constructed instances: derived word implications
    /// hold on four instances per case that the chase builds from random
    /// graphs to satisfy `E` at their source. Every case has a claim `E`
    /// implies (a rule extended by a suffix), which Theorem 4.3 must derive;
    /// a random claim is checked too when it is derived.
    #[test]
    fn derived_implications_hold_semantically(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let set = word_set(&mut rng, &syms);
        let u = random_word(&mut rng, &syms, 1 + (seed as usize % 3));
        let v = random_word(&mut rng, &syms, seed as usize % 3);
        let implied = implied_word_claim(&mut rng, &set, &syms);
        prop_assert!(word_implies_word(&set, &implied.0, &implied.1));
        let mut claims = vec![implied];
        if word_implies_word(&set, &u, &v) {
            claims.push((u, v));
        }
        for t in 0..4 {
            let (mut inst, src) = random_graph(&mut StdRng::seed_from_u64(seed * 100 + t), 4, 8, &syms);
            let built = chase(&mut inst, &set, &Scope::Source(src), 10_000);
            prop_assert!(built.is_ok(), "no instance: {:?}", built);
            prop_assert!(set.holds_at(&inst, src));
            for (u, v) in &claims {
                prop_assert!(
                    word_inclusion_holds(&inst, src, u, v),
                    "unsound: E ⊨ {:?} ⊆ {:?} but violated",
                    ab.render_word(u), ab.render_word(v)
                );
            }
        }
    }

    /// Theorem 4.3(ii) refutations produce genuine members of L(p).
    #[test]
    fn path_refutation_witnesses_are_members(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let set = word_set(&mut rng, &syms);
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
/// satisfies E and violates the constraint, and no `Implied` verdict is
/// contradicted on four instances per case that the chase builds to
/// satisfy `E`. Every case also checks a claim `E` implies — the rule
/// `P ⊆ Q` extended by a suffix `w`, `P·w ⊆ Q·w` — which `check` must not
/// refute. One case in four gives the set an `∅` right side and heads the
/// claim with the set's left side, the shape the closure's `P ⊆ ∅`
/// completion proves; at least half of those cases must come out
/// `Implied`, so the property cannot pass vacuously. Where that left side
/// is nullable no instance satisfies `E`: the chase must say so, and
/// `check` must refute neither claim. At least one case draws such an `E`.
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
    let (mut empty_cases, mut empty_implied, mut unsatisfiable_cases) = (0, 0, 0);
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let empty = seed % 4 == 0;
        let set_lhs = random_regex(&mut rng, &cfg);
        let unsatisfiable = empty && set_lhs.nullable();
        unsatisfiable_cases += usize::from(unsatisfiable);
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
        let suffix = Regex::word(&random_word(&mut rng, &syms, (seed % 3) as usize));
        let implied = PathConstraint::inclusion(
            set_lhs.clone().then(suffix.clone()),
            set_rhs.clone().then(suffix),
        );
        let set = ConstraintSet::from_constraints([PathConstraint::inclusion(set_lhs, set_rhs)]);
        assert!(
            !matches!(check(&set, &implied, &budget), Verdict::Refuted(_)),
            "seed {seed}: an implied claim was refuted"
        );
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
        assert!(
            !(unsatisfiable && matches!(verdict, Verdict::Refuted(_))),
            "seed {seed}: refuted under an unsatisfiable E"
        );
        match &verdict {
            Verdict::Refuted(Refutation::Instance(w)) => {
                assert!(set.holds_at(&w.instance, w.source), "seed {seed}");
                assert!(!claim.holds_at(&w.instance, w.source), "seed {seed}");
            }
            Verdict::Refuted(Refutation::Word(_)) => {
                // only possible for word-constraint routes
                assert!(set.all_word_constraints(), "seed {seed}");
            }
            Verdict::Implied { .. } | Verdict::Unknown => {}
        }
        for t in 0..4 {
            let (mut inst, src) =
                random_graph(&mut StdRng::seed_from_u64(seed * 31 + t), 4, 8, &syms);
            let built = chase(&mut inst, &set, &Scope::Source(src), 10_000);
            if unsatisfiable {
                assert_eq!(built, Err(Unsatisfied::Empty(0)), "seed {seed}");
                continue;
            }
            if let Err(e) = built {
                panic!("seed {seed}: no instance satisfies E: {e:?}");
            }
            assert!(set.holds_at(&inst, src), "seed {seed}");
            assert!(
                implied.holds_at(&inst, src),
                "seed {seed}: P·w ⊆ Q·w violated"
            );
            if verdict.is_implied() {
                assert!(
                    claim.holds_at(&inst, src),
                    "seed {seed}: Implied contradicted by a constructed instance"
                );
            }
        }
    }
    assert!(
        2 * empty_implied >= empty_cases,
        "only {empty_implied} of {empty_cases} ∅-side cases were proved"
    );
    assert!(unsatisfiable_cases > 0, "no case drew an unsatisfiable E");
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
