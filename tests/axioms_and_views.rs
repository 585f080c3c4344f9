//! Cross-engine soundness for the Section 5 extensions:
//!
//! * everything the axiomatic prover proves must never be refuted by the
//!   certified Theorem 4.2 refuter, and for word-constraint inputs it must
//!   be confirmed by the exact Theorem 4.3 procedure;
//! * every view-based rewriting is an equivalence under the constraints
//!   and preserves the answers of a *distributed* run on instances where
//!   the cache constraint actually holds — and saves messages there.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq::automata::{parse_regex, Alphabet, Regex, Symbol};
use rpq::constraints::general::Budget;
use rpq::constraints::{ConstraintSet, PathConstraint};
use rpq::distributed::{run_and_check, Delivery, Simulator};
use rpq::optimizer::rewrite_with_views;
use rpq::paper::axioms::{Prover, ProverConfig};
use rpq::paper::implication::word_implies_word;
use rpq::paper::{check, Verdict};
use rpq_testkit::draw::random_word_up_to;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn axiomatically_provable_word_goals_are_exactly_implied(seed in 0u64..10_000) {
        // On word-constraint systems the exact Theorem 4.3 procedure is
        // complete, so: prover says yes ⟹ word procedure says yes.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|s| ab.intern(s)).collect();
        let mut set = ConstraintSet::new();
        for _ in 0..rng.random_range(1..4) {
            set.add(PathConstraint::inclusion(
                Regex::word(&random_word_up_to(&mut rng, &syms, 3)),
                Regex::word(&random_word_up_to(&mut rng, &syms, 3)),
            ));
        }
        let u = random_word_up_to(&mut rng, &syms, 4);
        let v = random_word_up_to(&mut rng, &syms, 4);
        let prover = Prover::new(&set, ProverConfig { max_depth: 8, ..ProverConfig::default() });
        if let Some(d) = prover.prove_inclusion(&Regex::word(&u), &Regex::word(&v)) {
            prop_assert!(d.verify(&prover), "derivation must replay");
            prop_assert!(
                word_implies_word(&set, &u, &v),
                "prover proved something Theorem 4.3 rejects"
            );
        }
    }

    #[test]
    fn provable_path_goals_are_never_refuted(seed in 0u64..3_000) {
        // Mixed regex axioms: the certified refuter must never contradict
        // the prover.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ab = Alphabet::new();
        let sources = ["l = (a.b)*", "l.l <= l", "m = a.b", "a <= b", "(a+b).c <= d"];
        let picked: Vec<&str> = sources
            .iter()
            .copied()
            .filter(|_| rng.random_range(0..2) == 0)
            .collect();
        let lines = if picked.is_empty() { vec!["a <= b"] } else { picked };
        let set = ConstraintSet::parse(&mut ab, lines).unwrap();
        let goals = ["a.c <= b.c", "l* <= l + ()", "a.(b.a)*.c <= l.a.c", "m.x <= a.b.x"];
        let goal = goals[rng.random_range(0..goals.len())];
        let c = rpq::constraints::parse_constraint(&mut ab, goal).unwrap();
        let prover = Prover::new(&set, ProverConfig::default());
        if prover.prove_constraint(&c).is_some() {
            if let Verdict::Refuted(_) = check(&set, &c, &Budget::default()) { prop_assert!(false, "prover/refuter disagree on {goal}") }
        }
    }
}

#[test]
fn view_rewriting_preserves_distributed_answers_and_saves_messages() {
    // A cached site: the backbone realizes (a.b)*, the l-edges materialize
    // its answers at the source, so `l = (a.b)*` holds there. The verified
    // view rewriting must give the same distributed answers with fewer
    // messages.
    let mut ab = Alphabet::new();
    let a = ab.intern("a");
    let b = ab.intern("b");
    let l = ab.intern("l");
    let c = ab.intern("c");
    let mut inst = rpq::graph::Instance::new();
    let v0 = inst.add_named_node("v0");
    let mut prev = v0;
    let mut evens = vec![v0];
    for i in 1..=10 {
        let v = inst.add_named_node(&format!("v{i}"));
        inst.add_edge(prev, if i % 2 == 1 { a } else { b }, v);
        if i % 2 == 0 {
            evens.push(v);
        }
        prev = v;
    }
    for &e in &evens {
        inst.add_edge(v0, l, e);
        // a c-tail off every (a.b)* endpoint so the query has a suffix
        let t = inst.add_node();
        inst.add_edge(e, c, t);
    }
    let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
    assert!(set.holds_at(&inst, v0), "workload must satisfy the cache");

    let q = parse_regex(&mut ab, "(a.b)*.c").unwrap();
    let rewritings = rewrite_with_views(&set, &q, &ab);
    assert!(!rewritings.is_empty(), "expected a view rewriting");
    let best = rewritings[0].query.clone();

    let plain = run_and_check(&inst, &ab, v0, &q, Delivery::Fifo);
    let src = v0.0;
    let rewritten_q = best.clone();
    let hook = move |site: u32, incoming: &Regex| -> Regex {
        if site == src && incoming == &q {
            rewritten_q.clone()
        } else {
            incoming.clone()
        }
    };
    let q2 = parse_regex(&mut ab, "(a.b)*.c").unwrap();
    let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo).with_rewrite(hook);
    let optimized = sim.run(v0, &q2);
    assert_eq!(optimized.answers, plain.answers);
    assert!(
        optimized.stats.total() < plain.stats.total(),
        "optimized {} vs plain {}",
        optimized.stats.total(),
        plain.stats.total()
    );
}

#[test]
fn axiomatic_derivations_render_for_all_paper_examples() {
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["l.l <= l", "k = (a.b)*"]).unwrap();
    let prover = Prover::new(&set, ProverConfig::default());
    let cases = [("l*", "l + ()"), ("a.(b.a)*.c", "k.a.c")];
    for (p, q) in cases {
        let pr = parse_regex(&mut ab, p).unwrap();
        let qr = parse_regex(&mut ab, q).unwrap();
        let d = prover
            .prove_inclusion(&pr, &qr)
            .unwrap_or_else(|| panic!("no proof for {p} ⊆ {q}"));
        let text = d.render(&ab);
        assert!(text.contains('⊆'));
        assert!(d.verify(&prover));
    }
}
