//! Axiomatic proofs of path-constraint implication, with derivation trees.
//!
//! Section 5 of the paper asks for "a sound and (if possible) complete
//! axiomatization for path constraint implication … such an axiomatization
//! may yield rewrite rules of practical use." This example runs the sound
//! inference system of `rpq::paper::axioms` on the paper's worked
//! examples and prints the proofs it finds.
//!
//! ```sh
//! cargo run --example axiomatic_proofs
//! ```

use rpq::automata::{parse_regex, Alphabet};
use rpq::constraints::ConstraintSet;
use rpq::paper::axioms::{Prover, ProverConfig};

fn main() {
    // --- Example 2 of Section 3.2: {ll ⊆ l} ⊨ l* = l + ε ------------------
    let mut ab = Alphabet::new();
    let e2 = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
    let prover = Prover::new(&e2, ProverConfig::default());
    let l_star = parse_regex(&mut ab, "l*").unwrap();
    let l_eps = parse_regex(&mut ab, "l + ()").unwrap();

    println!("=== Example 2: {{l·l ⊆ l}} ⊢ l* ⊆ l + ε ===");
    let d = prover
        .prove_inclusion(&l_star, &l_eps)
        .expect("the star-induction proof");
    print!("{}", d.render(&ab));
    assert!(d.verify(&prover));
    println!(
        "(proof: {} nodes, depth {}; the reverse inclusion is a language fact)\n",
        d.num_nodes(),
        d.depth()
    );

    // --- Example 3: the cached query {l = (ab)*} ⊨ a(ba)*c = l·a·c --------
    let mut ab = Alphabet::new();
    let e3 = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
    let prover = Prover::new(&e3, ProverConfig::default());
    let p = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
    let q = parse_regex(&mut ab, "l.a.c").unwrap();

    println!("=== Example 3: {{l = (ab)*}} ⊢ a(ba)*c = l·a·c ===");
    for (x, y, dir) in [(&p, &q, "⊆"), (&q, &p, "⊇")] {
        let d = prover.prove_inclusion(x, y).expect("cache proof");
        println!("--- direction {dir} ---");
        print!("{}", d.render(&ab));
        assert!(d.verify(&prover));
    }
    println!();

    // --- The corrected Example 1: Σ*l ⊆ ε gives a nonrecursive envelope ---
    let mut ab = Alphabet::new();
    let e1 = ConstraintSet::parse(&mut ab, ["(l+a+b+d)*.l <= ()"]).unwrap();
    let prover = Prover::new(&e1, ProverConfig::default());
    let p = parse_regex(&mut ab, "(l.a + l.b)*.d").unwrap();
    let q = parse_regex(&mut ab, "(() + a + b).d").unwrap();

    println!("=== Example 1 (corrected): {{Σ*·l ⊆ ε}} ⊢ (la+lb)*d ⊆ (ε+a+b)d ===");
    let d = prover.prove_inclusion(&p, &q).expect("envelope proof");
    print!("{}", d.render(&ab));
    assert!(d.verify(&prover));

    // --- and a goal the system must NOT prove -----------------------------
    let mut ab = Alphabet::new();
    let e = ConstraintSet::parse(&mut ab, ["a <= b"]).unwrap();
    let prover = Prover::new(&e, ProverConfig::default());
    let b = parse_regex(&mut ab, "b").unwrap();
    let a = parse_regex(&mut ab, "a").unwrap();
    assert!(prover.prove_inclusion(&b, &a).is_none());
    println!("\n{{a ⊆ b}} ⊬ b ⊆ a   (sound: no proof found, and indeed refutable)");
}
