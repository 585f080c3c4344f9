//! The served planner's rewrites on data that satisfies the constraints
//! they assume (§3.2): `rpq_testkit::driver` builds each instance to
//! satisfy `E`, serves a text through `Server::with_constraints(E)`, and
//! holds the answers against the original query's. A floor of rewritten
//! cases per family keeps it from passing on plans that never rewrite.

use std::time::Instant;

use rpq_testkit::driver::{run, FAMILIES};

/// Cases drawn per family.
const CASES_PER_FAMILY: usize = 200;

/// Rewritten cases each family must reach.
const FLOORS: [(&str, usize); 3] = [("cache", 90), ("bound", 60), ("word-eq", 90)];

#[test]
fn served_answers_equal_the_original_query_on_instances_that_satisfy_e() {
    let start = Instant::now();
    let tally = run(CASES_PER_FAMILY).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("{:?} in {:?}", tally.families, start.elapsed());
    assert_eq!(tally.families.len(), FAMILIES.len());
    for (family, floor) in FLOORS {
        let rewritten = tally.rewritten(family);
        assert!(
            rewritten >= floor,
            "{family}: {rewritten} of {CASES_PER_FAMILY} cases rewritten, floor {floor}"
        );
    }
}
