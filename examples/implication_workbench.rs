//! A workbench for the Section 4 implication machinery: word constraints
//! (PTIME), path-by-word constraints (PSPACE), general constraints
//! (Theorem 4.2's budgeted engine), with derivation certificates and
//! counterexample witnesses.
//!
//! ```sh
//! cargo run --example implication_workbench
//! ```

use rpq::automata::{parse_regex, parse_word, Alphabet};
use rpq::constraints::general::Budget;
use rpq::constraints::rewrite::RewriteSystem;
use rpq::constraints::{parse_constraint, ConstraintSet};
use rpq::paper::rewrite::derive;
use rpq::paper::{check, Refutation, Verdict, WordImplication};

fn main() {
    // --- word constraints: PTIME with certificates --------------------------
    let mut ab = Alphabet::new();
    let e = ConstraintSet::parse(&mut ab, ["u1 <= u2", "u2.u3 <= u4"]).unwrap();
    let rules = RewriteSystem::from_constraints(&e);
    let u = parse_word(&mut ab, "u1.u3.u5").unwrap();
    let v = parse_word(&mut ab, "u4.u5").unwrap();
    println!("E = {{u1 ⊆ u2, u2.u3 ⊆ u4}}");
    match derive(&rules, &u, &v, 100_000) {
        Some(chain) => {
            println!("E ⊨ u1.u3.u5 ⊆ u4.u5, derivation certificate:");
            for step in &chain {
                println!("    {}", ab.render_word(step));
            }
        }
        None => println!("no derivation"),
    }

    // --- path constraint implied by word constraints (Theorem 4.3 ii) ------
    let e2 = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
    let p = parse_regex(&mut ab, "l*").unwrap();
    let q = parse_regex(&mut ab, "l + ()").unwrap();
    println!("\nE = {{l.l ⊆ l}}: is l* = l + ε implied?");
    for (x, y, name) in [(&p, &q, "l* ⊆ l+ε"), (&q, &p, "l+ε ⊆ l*")] {
        match rpq::paper::word_implies_path(&e2, x, y).unwrap() {
            WordImplication::Implied => println!("    {name}: IMPLIED"),
            WordImplication::Refuted(w) => {
                println!("    {name}: refuted by {}", ab.render_word(&w))
            }
        }
    }

    // --- the general engine on the paper's three §3.2 examples --------------
    println!("\nTheorem 4.2 engine on the Section 3.2 examples:");
    let budget = Budget::default();

    // Example 1 — as literally stated (fails), and the sound direction.
    let mut ab1 = Alphabet::new();
    let e_x1 = ConstraintSet::parse(&mut ab1, ["(a+b+d+l)*.l = ()"]).unwrap();
    let literal = parse_constraint(&mut ab1, "(l.a + l.b)*.d = (a+b).d").unwrap();
    match check(&e_x1, &literal, &budget) {
        Verdict::Refuted(Refutation::Instance(w)) => println!(
            "  X1 literal claim REFUTED by a {}-node witness instance (see tests/paper_examples.rs)",
            w.instance.num_nodes()
        ),
        other => println!("  X1 literal: {other:?}"),
    }
    let e_x1b = ConstraintSet::parse(&mut ab1, ["(a+b+d+l)*.l <= ()"]).unwrap();
    let sound = parse_constraint(&mut ab1, "(l.a + l.b)*.d <= (() + a + b).d").unwrap();
    match check(&e_x1b, &sound, &budget) {
        Verdict::Implied { method } => {
            println!("  X1 sound direction PROVED ({method})")
        }
        other => println!("  X1 sound direction: {other:?}"),
    }

    // Example 2.
    let mut ab2 = Alphabet::new();
    let e_x2 = ConstraintSet::parse(&mut ab2, ["l.l <= l"]).unwrap();
    let x2 = parse_constraint(&mut ab2, "l* = l + ()").unwrap();
    match check(&e_x2, &x2, &budget) {
        Verdict::Implied { method } => println!("  X2 {{ll ⊆ l}} ⊨ l* = l+ε PROVED ({method})"),
        other => println!("  X2: {other:?}"),
    }

    // Example 3.
    let mut ab3 = Alphabet::new();
    let e_x3 = ConstraintSet::parse(&mut ab3, ["l = (a.b)*"]).unwrap();
    let x3 = parse_constraint(&mut ab3, "a.(b.a)*.c = l.a.c").unwrap();
    match check(&e_x3, &x3, &budget) {
        Verdict::Implied { method } => {
            println!("  X3 {{l = (ab)*}} ⊨ a(ba)*c = l.a.c PROVED ({method})")
        }
        other => println!("  X3: {other:?}"),
    }
    // --- the FO² view (Section 4's logic connection) -----------------------
    // Word-constraint implication is expressible with two variables; the
    // encoder + bounded countermodel search cross-check the PTIME route.
    use rpq::paper::{bounded_countermodel, refutation_sentence};
    println!("\n— the FO² connection (Section 4) —");
    let mut ab = Alphabet::new();
    let e = ConstraintSet::parse(&mut ab, ["a <= b"]).unwrap();
    let u = parse_word(&mut ab, "b").unwrap();
    let v = parse_word(&mut ab, "a").unwrap();
    let labels: Vec<_> = ab.symbols().collect();
    let sentence = refutation_sentence(&e, &u, &v).unwrap();
    println!(
        "refutation sentence for {{a ⊆ b}} ⊨? b ⊆ a uses {} quantifiers (2 variables)",
        sentence.quantifier_count()
    );
    match bounded_countermodel(&e, &u, &v, &labels, 2).unwrap() {
        Some((inst, _)) => println!(
            "FO² countermodel found: {} nodes / {} edges — the implication FAILS,\n\
             agreeing with the PTIME rewrite procedure",
            inst.num_nodes(),
            inst.num_edges()
        ),
        None => println!("no countermodel ≤ 2 nodes"),
    }
}
