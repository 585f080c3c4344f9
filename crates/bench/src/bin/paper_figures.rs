//! Regenerate every figure and worked example of the paper as text output.
//!
//! ```sh
//! cargo run -p rpq-bench --bin paper-figures            # everything
//! cargo run -p rpq-bench --bin paper-figures f3 x2      # a selection
//! ```
//!
//! Ids: f1 (Example 2.1 / Figure 1 μ-translation), f2f3 (Figures 2–3
//! distributed run), f4 (Lemma 4.4 instance), f5 (Armstrong K-sphere),
//! x1 x2 x3 (the Section 3.2 optimization examples), s5a (Section 5
//! axiomatization: derivation trees), s5d (Section 5 deterministic
//! special case: the separation witness).

use rpq_automata::{parse_regex, Alphabet, Nfa, Symbol};
use rpq_constraints::general::{check, Budget, Refutation, Verdict};
use rpq_constraints::{
    decide_boundedness, lemma44_instance, parse_constraint, suggested_radius, ArmstrongSphere,
    Boundedness, ConstraintSet,
};
use rpq_core::eval_product;
use rpq_core::general::{translate, GeneralPathQuery};
use rpq_distributed::{render_trace, Delivery, Simulator};
use rpq_graph::generators::fig2_graph;
use rpq_graph::InstanceBuilder;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    if want("f1") {
        fig1();
    }
    if want("f2f3") || want("f2") || want("f3") {
        fig2_fig3();
    }
    if want("f4") {
        fig4();
    }
    if want("f5") {
        fig5();
    }
    if want("x1") {
        example1();
    }
    if want("x2") {
        example2();
    }
    if want("x3") {
        example3();
    }
    if want("s5a") {
        section5_axioms();
    }
    if want("s5d") {
        section5_deterministic();
    }
}

fn section5_axioms() {
    use rpq_constraints::axioms::{Prover, ProverConfig};
    header("S5a — Section 5 future work: a sound axiomatization, with derivations");
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
    let prover = Prover::new(&set, ProverConfig::default());
    let p = parse_regex(&mut ab, "l*").unwrap();
    let q = parse_regex(&mut ab, "l + ()").unwrap();
    let d = prover.prove_inclusion(&p, &q).expect("X2 proof");
    println!("{{l·l ⊆ l}} ⊢ l* ⊆ l + ε   (Example 2, proved axiomatically):\n");
    print!("{}", d.render(&ab));
    assert!(d.verify(&prover));
    println!(
        "\nderivation: {} nodes, depth {}; replayed by Derivation::verify",
        d.num_nodes(),
        d.depth()
    );
}

fn section5_deterministic() {
    use rpq_constraints::deterministic::det_implies_word;
    use rpq_constraints::implication::word_implies_word;
    header("S5d — Section 5: instances with ≤1 outgoing edge per label");
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["a <= c", "a.x <= c"]).unwrap();
    let u = rpq_automata::parse_word(&mut ab, "a.x").unwrap();
    let v = rpq_automata::parse_word(&mut ab, "a").unwrap();
    println!("E = {{a ⊆ c, a·x ⊆ c}}, conclusion a·x ⊆ a:");
    println!(
        "  over all instances (Theorem 4.3):   {}",
        word_implies_word(&set, &u, &v)
    );
    println!(
        "  over deterministic instances:        {}",
        det_implies_word(&set, &u, &v).is_implied()
    );
    println!(
        "\nDeterminism contracts words sharing a singleton target — the paper's\n\
         conjecture that this case 'may simplify some of the problems' confirmed:\n\
         the deterministic decision is congruence closure, in PTIME."
    );
}

fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

fn fig1() {
    header("F1 — Example 2.1 / Figure 1: general path queries and the μ translation");
    let mut ab = Alphabet::new();
    let mut b = InstanceBuilder::new(&mut ab);
    for (i, l) in ["b", "aab", "baa", "c", "dd", "zzz"].iter().enumerate() {
        b.edge("o", l, &format!("t{i}"));
    }
    b.edge("t0", "baa", "u0");
    b.edge("t1", "c", "u1");
    b.edge("t4", "dd", "u2");
    let (inst, names) = b.finish();
    let q =
        GeneralPathQuery::parse(r#"("a*b" "ba*") + ("a*b" "c") + ("ba*" "c") + "dd*" ("dd*")*"#)
            .unwrap();
    println!("q = (\"a*b\" \"ba*\") + (\"a*b\" \"c\") + (\"ba*\" \"c\") + (\"dd*\")+");
    let mu = translate(&q, &inst, &ab);
    println!("\nlabel equivalence classes (paper: [b], [ab], [ba], [c], [d], [h]):");
    for (c, sig) in mu.class_signature.iter().enumerate() {
        println!(
            "  class {c}: representative {:?}, satisfies patterns {:?}",
            mu.class_repr[c], sig
        );
    }
    println!("\nμ(q) = {}", mu.mu_query.display(&mu.class_alphabet));
    let answers = rpq_core::general::eval_general(&q, &inst, names["o"], &ab);
    println!(
        "q(o, I) = μ(q)(o, μ(I)) = {:?}   (Proposition 2.2)",
        answers
            .iter()
            .map(|&x| inst.node_name(x))
            .collect::<Vec<_>>()
    );
}

fn fig2_fig3() {
    header("F2/F3 — Figures 2–3: distributed evaluation of ab* with termination detection");
    let mut ab = Alphabet::new();
    let (inst, _d, o1) = fig2_graph(&mut ab);
    println!("graph I: o1 -a→ o2, o2 -b→ o3, o3 -b→ o2; client d asks ab* at o1\n");
    let q = parse_regex(&mut ab, "a.b*").unwrap();
    let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo);
    let client = sim.client;
    let res = sim.run(o1, &q);
    print!("{}", render_trace(&res.trace, &ab, &inst, client));
    println!(
        "\nanswers: {:?}   termination detected: {}",
        res.answers
            .iter()
            .map(|&o| inst.node_name(o))
            .collect::<Vec<_>>(),
        res.termination_detected
    );
    println!(
        "messages: {} subquery, {} answer, {} done, {} akn ({} bytes total)",
        res.stats.subqueries, res.stats.answers, res.stats.dones, res.stats.acks, res.stats.bytes
    );
    println!(
        "note o2's duplicate b* subquery (from o3) answered done immediately — the paper's dedup"
    );
}

fn fig4() {
    header("F4 — Figure 4: the Lemma 4.4 instance for E = {a² ⊆ a}, k = 3");
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["a.a <= a"]).unwrap();
    let a = ab.get("a").unwrap();
    let ci = lemma44_instance(&set, &[a], 3, &ab).unwrap();
    println!(
        "classes (vertices): {:?}",
        ci.class_reps
            .iter()
            .map(|r| ab.render_word(r))
            .collect::<Vec<_>>()
    );
    for (c, obj) in ci.obj.iter().enumerate() {
        println!(
            "  obj({}) = {:?}",
            ab.render_word(&ci.class_reps[c]),
            obj.iter()
                .map(|&o| ci.instance.node_name(o))
                .collect::<Vec<_>>()
        );
    }
    println!("\nedges (all labeled a):");
    for (x, _l, y) in ci.instance.edges() {
        println!(
            "  {} → {}",
            ci.instance.node_name(x),
            ci.instance.node_name(y)
        );
    }
    println!(
        "\nanswer sets (paper: ε→{{o_ε}}, a→{{o_a,o_a²,o_a³}}, a²→{{o_a²,o_a³}}, a³→{{o_a³}}):"
    );
    for len in 0..=3usize {
        let ans = eval_product(&Nfa::from_word(&vec![a; len]), &ci.instance, ci.source).answers;
        println!(
            "  a^{len}(o, I) = {:?}",
            ans.iter()
                .map(|&o| ci.instance.node_name(o))
                .collect::<Vec<_>>()
        );
    }
}

fn fig5() {
    header("F5 — Figure 5: the Armstrong instance and its K-sphere (Lemma 4.9)");
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["a.b.a = b", "b.b = a.a"]).unwrap();
    let syms: Vec<Symbol> = ab.symbols().collect();
    let k = suggested_radius(&set);
    let radius = 9;
    let sphere = ArmstrongSphere::build(&set, &syms, radius, 200_000).unwrap();
    println!(
        "E = {{aba = b, bb = aa}};  M = {}, suggested K = {k}",
        set.max_word_len()
    );
    println!(
        "sphere of radius {radius}: {} congruence classes",
        sphere.num_nodes()
    );
    let m = set.max_word_len();
    println!(
        "Lemma 4.9 checks: indegree-1 violations outside the M-sphere: {};  re-entry edges past K: {}",
        sphere.indegree_violations(m).len(),
        sphere
            .reentry_violations(k.min(radius.saturating_sub(1)))
            .len()
    );
    println!("\nclasses near the source:");
    for n in 0..sphere.num_nodes().min(10) {
        let succ: Vec<String> = sphere.edges[n]
            .iter()
            .map(|&(s, m)| format!("-{}→ {}", ab.name(s), ab.render_word(&sphere.reps[m])))
            .collect();
        println!(
            "  [{}] depth {}: {}",
            ab.render_word(&sphere.reps[n]),
            sphere.depth[n],
            succ.join("  ")
        );
    }
}

fn example1() {
    header("X1 — Section 3.2 Example 1: Σ*·l = ε and p = (la+lb)*d");
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["(a+b+d+l)*.l = ()"]).unwrap();
    let literal = parse_constraint(&mut ab, "(l.a + l.b)*.d = (a+b).d").unwrap();
    println!("paper claim: p ≡ (a+b)d.  Checking literally…");
    match check(&set, &literal, &Budget::default()) {
        Verdict::Refuted(Refutation::Instance(w)) => {
            println!(
                "REFUTED: the k=0 word `d` breaks it. Witness instance ({} nodes):",
                w.instance.num_nodes()
            );
            for (x, l, y) in w.instance.edges() {
                println!(
                    "  {} -{}→ {}",
                    w.instance.node_name(x),
                    ab.name(l),
                    w.instance.node_name(y)
                );
            }
        }
        other => println!("unexpected: {other:?}"),
    }
    let incl = ConstraintSet::parse(&mut ab, ["(a+b+d+l)*.l <= ()"]).unwrap();
    let sound = parse_constraint(&mut ab, "(l.a + l.b)*.d <= (() + a + b).d").unwrap();
    match check(&incl, &sound, &Budget::default()) {
        Verdict::Implied { method } => println!(
            "\nsound form PROVED ({method}): under Σ*·l ⊆ ε, (la+lb)*d ⊆ (ε+a+b)d — \
             the nonrecursive upper envelope the example is after"
        ),
        other => println!("unexpected: {other:?}"),
    }
}

fn example2() {
    header("X2 — Section 3.2 Example 2: {ll ⊆ l} ⊨ l* = l + ε");
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
    let claim = parse_constraint(&mut ab, "l* = l + ()").unwrap();
    match check(&set, &claim, &Budget::default()) {
        Verdict::Implied { method } => println!("PROVED ({method}): l* collapses to l + ε"),
        other => println!("unexpected: {other:?}"),
    }
    // and Theorem 4.10 discovers the equivalent automatically
    let eq = ConstraintSet::parse(&mut ab, ["l.l = l"]).unwrap();
    let p = parse_regex(&mut ab, "l*").unwrap();
    if let Ok(Boundedness::Bounded { equivalent, .. }) = decide_boundedness(&eq, &p, &ab) {
        println!(
            "Theorem 4.10 (with the equality version): l* ≡ {}   — certified nonrecursive",
            equivalent.display(&ab)
        );
    }
}

fn example3() {
    header("X3 — Section 3.2 Example 3: cached (ab)* labeled l; a(ba)*c = l·a·c");
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
    let claim = parse_constraint(&mut ab, "a.(b.a)*.c = l.a.c").unwrap();
    match check(&set, &claim, &Budget::default()) {
        Verdict::Implied { method } => println!("PROVED ({method})"),
        other => println!("unexpected: {other:?}"),
    }
    let q = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
    let opt = rpq_optimizer::optimize(&set, &q, &ab);
    println!(
        "optimizer: {} → {}   (rule {:?}; recursion removed: {})",
        q.display(&ab),
        opt.query.display(&ab),
        opt.applied,
        !opt.after.recursive
    );
}
