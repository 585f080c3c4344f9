//! The Section 5 special case: sites with at most one outgoing edge per
//! label. On such *deterministic* instances every word denotes at most one
//! object, implication strengthens, and the decision procedure collapses
//! to congruence closure.
//!
//! ```sh
//! cargo run --example deterministic_sites
//! ```

use rpq::automata::{parse_word, Alphabet};
use rpq::constraints::ConstraintSet;
use rpq::paper::deterministic::{det_implies_word, DetImplication, DetModel};
use rpq::paper::implication::word_implies_word;

fn main() {
    // A site where both the page `a` and the page `a.x` are declared to be
    // covered by the cached link `c`.
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["a <= c", "a.x <= c"]).unwrap();
    let ax = parse_word(&mut ab, "a.x").unwrap();
    let a = parse_word(&mut ab, "a").unwrap();

    println!("E = {{ a ⊆ c,  a·x ⊆ c }}");
    println!("question: does E imply  a·x ⊆ a ?\n");

    // General instances: no — c(o) may contain both targets.
    let general = word_implies_word(&set, &ax, &a);
    println!("over ALL instances (Theorem 4.3):        {general}");
    assert!(!general);

    // Deterministic instances: yes — a, a·x and c all hit the single
    // c-object, so they coincide (the singleton-target contraction).
    let det = det_implies_word(&set, &ax, &a).unwrap();
    println!(
        "over DETERMINISTIC instances (Section 5): {}",
        det.is_implied()
    );
    assert!(det.is_implied());

    // Show the canonical deterministic model the procedure builds.
    let mut model = DetModel::for_premise(&set, &ax).unwrap();
    println!(
        "\ncanonical deterministic model: {} object classes;",
        model.num_classes()
    );
    for (u, v) in [("a", "c"), ("a", "a.x"), ("a.x", "c")] {
        let uw = parse_word(&mut ab, u).unwrap();
        let vw = parse_word(&mut ab, v).unwrap();
        println!("  {u} ≡ {v}?  {}", model.same(&uw, &vw));
    }

    // And a refuted implication comes with a concrete deterministic site.
    let b_only = ConstraintSet::parse(&mut ab, ["a <= b"]).unwrap();
    let b = parse_word(&mut ab, "b").unwrap();
    match det_implies_word(&b_only, &b, &a).unwrap() {
        DetImplication::Implied => unreachable!("b ⊆ a does not follow from a ⊆ b"),
        DetImplication::Refuted(w) => {
            println!(
                "\n{{a ⊆ b}} ⊭_det b ⊆ a — counterexample site with {} objects, {} links:",
                w.instance.num_nodes(),
                w.instance.num_edges()
            );
            for (from, label, to) in w.instance.edges() {
                println!(
                    "  {} -{}-> {}",
                    w.instance.node_name(from),
                    ab.name(label),
                    w.instance.node_name(to)
                );
            }
            assert!(b_only.holds_at(&w.instance, w.source));
        }
    }

    println!(
        "\nTakeaway: determinism upgrades inclusions to equalities (when the left\n\
         word is defined) and contracts words sharing a singleton target — the\n\
         paper's conjecture that this case 'may simplify some of the problems'\n\
         holds: the decision procedure is plain congruence closure, in PTIME."
    );
}
