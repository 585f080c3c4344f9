//! End-to-end reproduction of every figure and worked example in the paper:
//! F1–F5 and X1–X3. Each test is the assertion-backed version of what
//! `paper-figures` prints.

use rpq::automata::{parse_regex, Alphabet, Nfa, Symbol};
use rpq::constraints::general::Budget;
use rpq::constraints::{
    decide_boundedness, parse_constraint, Boundedness, Closures, ConstraintSet,
};
use rpq::core::eval_product;
use rpq::distributed::{Delivery, MessageKind, Simulator};
use rpq::graph::InstanceBuilder;
use rpq::paper::general::{eval_general, eval_general_direct, translate, GeneralPathQuery};
use rpq::paper::{
    check, lemma44_instance, suggested_radius, word_implies_path, ArmstrongSphere, Refutation,
    Verdict,
};
use rpq_testkit::generators::fig2_graph;

// ---------------------------------------------------------------- F1 ----

#[test]
fn fig1_example21_six_classes_and_translation() {
    // Example 2.1: patterns a*b, ba*, c, dd* induce six label classes:
    // [b], [ab], [ba], [c], [d], [h].
    let mut ab = Alphabet::new();
    let mut b = InstanceBuilder::new(&mut ab);
    for (i, l) in ["b", "aab", "baa", "c", "dd", "zzz"].iter().enumerate() {
        b.edge("o", l, &format!("t{i}"));
    }
    // a second level so paths of length 2 exist, as in Figure 1
    b.edge("t0", "baa", "u0");
    b.edge("t1", "c", "u1");
    b.edge("t4", "dd", "u2");
    let (inst, names) = b.finish();
    let o = names["o"];

    let q =
        GeneralPathQuery::parse(r#"("a*b" "ba*") + ("a*b" "c") + ("ba*" "c") + "dd*" ("dd*")*"#)
            .unwrap();
    let mu = translate(&q, &inst, &ab);
    assert_eq!(mu.class_signature.len(), 6, "{:?}", mu.class_repr);

    // Proposition 2.2: q(o, I) = μ(q)(o, μ(I)).
    let via_mu = eval_general(&q, &inst, o, &ab);
    let direct = eval_general_direct(&q, &inst, o, &ab);
    assert_eq!(via_mu, direct);
    // the b-then-ba and aab-then-c and dd-then-dd paths answer
    let names_of: Vec<String> = via_mu.iter().map(|&x| inst.node_name(x)).collect();
    assert!(names_of.contains(&"u0".to_string()));
    assert!(names_of.contains(&"u1".to_string()));
    assert!(names_of.contains(&"u2".to_string()));
}

// ----------------------------------------------------------- F2 / F3 ----

#[test]
fn fig2_fig3_distributed_run_of_ab_star() {
    let mut ab = Alphabet::new();
    let (inst, _d, o1) = fig2_graph(&mut ab);
    let q = parse_regex(&mut ab, "a.b*").unwrap();

    let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo);
    let res = sim.run(o1, &q);

    // answers {o2, o3}, exactly the paper's run
    let names: Vec<String> = res.answers.iter().map(|&o| inst.node_name(o)).collect();
    assert_eq!(names, ["o2", "o3"]);
    assert!(res.termination_detected);

    // the trace exhibits the paper's dedup: a subquery arrives at a site
    // already processing it and is answered done without spawning anything —
    // count done messages exceeding registered tasks' completions
    assert!(
        res.stats.subqueries > res.tasks_registered,
        "the o3→o2 duplicate b* subquery must be deduplicated"
    );
    // answers: o2 (as itself) and o3; each acked
    assert_eq!(res.stats.answers, 2);
    assert_eq!(res.stats.acks, 2);
    // first delivered message is d's initial subquery(ab*) to o1
    match &res.trace[0].message {
        rpq::distributed::Message::Subquery { query, .. } => {
            assert_eq!(format!("{}", query.display(&ab)), "a.b*");
        }
        other => panic!("unexpected first message {other:?}"),
    }
    // kinds present as in Figure 3
    for kind in [
        MessageKind::Subquery,
        MessageKind::Answer,
        MessageKind::Done,
        MessageKind::Ack,
    ] {
        assert!(
            res.trace.iter().any(|e| e.message.kind() == kind),
            "{kind:?} missing from trace"
        );
    }
}

// ---------------------------------------------------------------- F4 ----

#[test]
fn fig4_lemma44_instance_for_aa_in_a() {
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["a.a <= a"]).unwrap();
    let a = ab.get("a").unwrap();
    let ci = lemma44_instance(&set, &[a], 3, &ab).unwrap();

    // classes ε, a, a², a³; obj chain obj(a) ⊇ obj(a²) ⊇ obj(a³)
    assert_eq!(ci.class_reps.len(), 4);
    // aⁱ(o, I) = obj(aⁱ) — the figure's acceptance sets
    let expect_sizes = [1usize, 3, 2, 1]; // ε:1, a:3, a²:2, a³:1
    for (len, &expect) in expect_sizes.iter().enumerate() {
        let word = vec![a; len];
        let ans = eval_product(&Nfa::from_word(&word), &ci.instance, ci.source).answers;
        assert_eq!(ans.len(), expect, "a^{len}");
    }
    // the instance satisfies E
    assert!(set.holds_at(&ci.instance, ci.source));
}

// ---------------------------------------------------------------- F5 ----

#[test]
fn fig5_armstrong_sphere_structure() {
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["a.b.a = b", "b.b = a.a"]).unwrap();
    let syms: Vec<Symbol> = ab.symbols().collect();
    let k = suggested_radius(&set);
    let radius = 9.min(k + 2);
    let sphere = ArmstrongSphere::build(&set, &syms, radius, 200_000).unwrap();

    let m = set.max_word_len();
    assert!(
        sphere.indegree_violations(m).is_empty(),
        "Lemma 4.9(✳): indegree 1 outside the M-sphere"
    );
    assert!(
        sphere
            .reentry_violations(k.min(radius.saturating_sub(1)))
            .is_empty(),
        "Lemma 4.9: no re-entry past K"
    );

    // Proposition 4.8 (truncated): word equality implied ⇔ same class.
    let a = ab.get("a").unwrap();
    let b = ab.get("b").unwrap();
    let u = [a, b, a];
    let v = [b];
    assert_eq!(sphere.class_of_word(&u), sphere.class_of_word(&v));
    assert!(rpq::paper::implication::word_implies_word_eq(&set, &u, &v));
}

// ---------------------------------------------------------------- X1 ----

#[test]
fn x1_example1_literal_fails_sound_direction_holds() {
    // Σ*·l = ε with p = (la+lb)*d. The literal claim p = (a+b)d is refuted
    // (k=0 word `d`; l(o) may be empty); the sound upper bound
    // p ⊆ (ε+a+b)d under Σ*·l ⊆ ε is proved.
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["(a+b+d+l)*.l = ()"]).unwrap();
    let literal = parse_constraint(&mut ab, "(l.a + l.b)*.d = (a+b).d").unwrap();
    match check(&set, &literal, &Budget::default()) {
        Verdict::Refuted(Refutation::Instance(w)) => {
            assert!(set.holds_at(&w.instance, w.source));
            assert!(!literal.holds_at(&w.instance, w.source));
        }
        other => panic!("literal Example 1 claim should be refuted: {other:?}"),
    }

    let incl_set = ConstraintSet::parse(&mut ab, ["(a+b+d+l)*.l <= ()"]).unwrap();
    let sound = parse_constraint(&mut ab, "(l.a + l.b)*.d <= (() + a + b).d").unwrap();
    assert!(check(&incl_set, &sound, &Budget::default()).is_implied());
}

// ---------------------------------------------------------------- X2 ----

#[test]
fn x2_example2_l_star_collapses() {
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
    let p = parse_regex(&mut ab, "l*").unwrap();
    let q = parse_regex(&mut ab, "l + ()").unwrap();
    assert!(word_implies_path(&set, &p, &q).unwrap().is_implied());
    assert!(word_implies_path(&set, &q, &p).unwrap().is_implied());

    // and with the equality version, Theorem 4.10 finds it automatically
    let eq_set = ConstraintSet::parse(&mut ab, ["l.l = l"]).unwrap();
    match decide_boundedness(&Closures::new(&eq_set), &p, 64).unwrap() {
        Boundedness::Bounded { equivalent, .. } => {
            assert!(rpq::automata::ops::regex_equivalent(&equivalent, &q));
        }
        other => panic!("l* must be bounded under ll=l: {other:?}"),
    }
}

// ---------------------------------------------------------------- X3 ----

#[test]
fn x3_example3_cache_substitution() {
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
    let claim = parse_constraint(&mut ab, "a.(b.a)*.c = l.a.c").unwrap();
    assert!(check(&set, &claim, &Budget::default()).is_implied());

    // and the optimizer actually produces l.a.c
    let q = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
    let opt = rpq::optimizer::optimize(&set, &q, &ab);
    assert!(opt.improved());
    let lac = parse_regex(&mut ab, "l.a.c").unwrap();
    assert!(rpq::automata::ops::regex_equivalent(&opt.query, &lac));
}

// ------------------------------------------------- semantic cross-check --

#[test]
fn x3_rewrite_preserves_answers_on_cached_data() {
    // build data where l = (ab)* holds, then check a(ba)*c and l.a.c agree
    let mut ab = Alphabet::new();
    let mut b = InstanceBuilder::new(&mut ab);
    b.edge("s", "a", "n1");
    b.edge("n1", "b", "n2");
    b.edge("n2", "a", "n3");
    b.edge("n3", "b", "n4");
    b.edge("n2", "c", "hit1"); // wrong parity: not reachable via (ab)*a then c
    b.edge("n1", "c", "hit2"); // a then c: in a(ba)*c
    b.edge("n3", "c", "hit3"); // aba…: n3 = (ab)¹a, then c
    let (mut inst, names) = b.finish();
    let s = names["s"];
    let l = ab.intern("l");
    // materialize the cache: (ab)* answers at s are s, n2, n4
    for t in [s, names["n2"], names["n4"]] {
        inst.add_edge(s, l, t);
    }
    let q1 = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
    let q2 = parse_regex(&mut ab, "l.a.c").unwrap();
    let a1 = eval_product(&Nfa::thompson(&q1), &inst, s).answers;
    let a2 = eval_product(&Nfa::thompson(&q2), &inst, s).answers;
    assert_eq!(a1, a2);
    let hit_names: Vec<String> = a1.iter().map(|&o| inst.node_name(o)).collect();
    assert_eq!(hit_names, ["hit2", "hit3"]);
}
