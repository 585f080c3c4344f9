//! Theorem 4.10: deciding whether a recursive path query collapses to a
//! nonrecursive one under word equalities, and constructing the certified
//! equivalent.
//!
//! ```sh
//! cargo run --example boundedness
//! ```

use rpq::automata::{parse_regex, Alphabet};
use rpq::constraints::{
    decide_boundedness, Boundedness, Closures, ConstraintSet, GeneralBoundedness,
};
use rpq::paper::{bounded_under_path_constraints, suggested_radius};

fn main() {
    let cases: &[(&[&str], &str)] = &[
        (&["a.a = a"], "a*"),
        (&["a.a.a = ()"], "a*"),
        (&["a.a = a"], "(a+b)*"),
        (&["a.b = b.a"], "(a.b)* + (b.a)*"),
        (&["home = ()"], "(sec.home)*.sec"),
        (&[], "a*"),
    ];

    for (lines, query) in cases {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let p = parse_regex(&mut ab, query).unwrap();
        println!("E = {lines:?}");
        println!("p = {}", p.display(&ab));
        println!("  Lemma 4.9 radius K = {}", suggested_radius(&set));
        match decide_boundedness(&Closures::new(&set), &p, 64) {
            Ok(Boundedness::Bounded { equivalent, words }) => {
                println!(
                    "  BOUNDED:  E ⊨ p = {}   ({} words, certified both ways by Theorem 4.3)",
                    equivalent.display(&ab),
                    words.len()
                );
            }
            Ok(Boundedness::Unbounded) => {
                println!("  UNBOUNDED: L(p) reaches infinitely many classes past the fold");
            }
            Err(e) => println!("  error: {e}"),
        }
        println!();
    }
    // --- beyond Theorem 4.10: the open problem -----------------------------
    // "It remains open whether boundedness of a path query assuming a set
    // of full path constraints is decidable." The budgeted semi-decision:
    println!("— boundedness under FULL path constraints (open problem; semi-decision) —");
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["a* <= a + ()"]).unwrap();
    let p = parse_regex(&mut ab, "a*").unwrap();
    match bounded_under_path_constraints(&set, &p, 4, 24) {
        GeneralBoundedness::Bounded { equivalent, proof } => println!(
            "E = {{a* ⊆ a + ε}}, p = a*:  BOUNDED, p ≡ {}  (certified by {proof})",
            equivalent.display(&ab)
        ),
        other => println!("unexpected: {other:?}"),
    }
}
