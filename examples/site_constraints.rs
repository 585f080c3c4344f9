//! The introduction's motivating constraints, end to end: structural
//! knowledge about a university web site expressed as path constraints,
//! checked against the data, and used to answer implication questions.
//!
//! ```sh
//! cargo run --example site_constraints
//! ```

use rpq::automata::{parse_regex, Alphabet, Nfa};
use rpq::constraints::{parse_constraint, ConstraintSet};
use rpq::core::eval_product;
use rpq::graph::InstanceBuilder;
use rpq::paper::word_implies_constraint;

fn main() {
    let mut ab = Alphabet::new();

    // --- a little Stanford-like site ---------------------------------------
    let mut b = InstanceBuilder::new(&mut ab);
    b.edge("Stanford", "CS-Department", "cs");
    b.edge("cs", "DB-group", "db");
    b.edge("db", "Ullman", "ullman");
    b.edge("ullman", "Classes", "ullman-classes");
    b.edge("ullman-classes", "cs345", "cs345-page");
    b.edge("cs", "Courses", "courses");
    b.edge("courses", "cs345", "cs345-page"); // same page — the constraint
    b.edge("cs345-page", "Syllabus", "syllabus");
    let (inst, names) = b.finish();
    let stanford = names["Stanford"];

    // --- the paper's example constraint ------------------------------------
    // CS-Department DB-group Ullman Classes cs345 = CS-Department Courses cs345
    let c1 = parse_constraint(
        &mut ab,
        "CS-Department.DB-group.Ullman.Classes.cs345 = CS-Department.Courses.cs345",
    )
    .unwrap();
    println!("constraint: {}", c1.display(&ab));
    println!("holds at Stanford: {}\n", c1.holds_at(&inst, stanford));
    assert!(c1.holds_at(&inst, stanford));

    // --- right congruence: implication of extended paths -------------------
    let e = ConstraintSet::from_constraints([c1]);
    let follow_up = parse_constraint(
        &mut ab,
        "CS-Department.DB-group.Ullman.Classes.cs345.Syllabus = CS-Department.Courses.cs345.Syllabus",
    )
    .unwrap();
    println!("does E imply {} ?", follow_up.display(&ab));
    let verdict = word_implies_constraint(&e, &follow_up).unwrap();
    println!("Theorem 4.3(i) PTIME answer: {verdict:?}\n");
    assert!(verdict.is_implied());

    // the long and the short navigation really retrieve the same page
    let long = parse_regex(
        &mut ab,
        "CS-Department.DB-group.Ullman.Classes.cs345.Syllabus",
    )
    .unwrap();
    let short = parse_regex(&mut ab, "CS-Department.Courses.cs345.Syllabus").unwrap();
    let a1 = eval_product(&Nfa::thompson(&long), &inst, stanford).answers;
    let a2 = eval_product(&Nfa::thompson(&short), &inst, stanford).answers;
    assert_eq!(a1, a2);
    println!(
        "both navigations reach: {:?}",
        a1.iter().map(|&o| inst.node_name(o)).collect::<Vec<_>>()
    );

    // --- but not everything is implied --------------------------------------
    let bogus = parse_constraint(
        &mut ab,
        "CS-Department.Courses.cs345 = CS-Department.DB-group",
    )
    .unwrap();
    let v = word_implies_constraint(&e, &bogus).unwrap();
    println!("\nnon-implication detected with witness: {v:?}");
    assert!(!v.is_implied());
}
