//! Quickstart: build a small semistructured database, run path queries with
//! every engine, and use a path constraint to simplify a recursive query.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rpq::automata::{parse_regex, Alphabet};
use rpq::constraints::ConstraintSet;
use rpq::core::{DerivativeEngine, Engine, ProductEngine, Query, QuotientDfaEngine};
use rpq::datalog::translate::{run as run_datalog, translate_quotient};
use rpq::graph::{CsrGraph, InstanceBuilder};
use rpq::optimizer::optimize;

fn main() {
    // --- a tiny "department web site" -------------------------------------
    let mut ab = Alphabet::new();
    let mut b = InstanceBuilder::new(&mut ab);
    b.edge("dept", "group", "db-group");
    b.edge("dept", "group", "systems-group");
    b.edge("db-group", "member", "alice");
    b.edge("systems-group", "member", "bob");
    b.edge("alice", "paper", "paper1");
    b.edge("bob", "paper", "paper2");
    b.edge("paper1", "cites", "paper2");
    b.edge("paper2", "cites", "paper1");
    let (inst, names) = b.finish();
    let dept = names["dept"];

    // Instance is the build form; freeze it into the label-indexed
    // query-time snapshot (forward + reverse CSR, per-label statistics).
    let graph = CsrGraph::from(&inst);
    println!(
        "snapshot: {} nodes, {} edges, {} labels",
        graph.num_nodes(),
        graph.num_edges(),
        graph.stats().num_labels()
    );

    // --- a path query: papers transitively cited from department members --
    let q = Query::parse(&mut ab, "group.member.paper.cites*").unwrap();
    println!("query: {}", q.regex().display(&ab));

    let product = ProductEngine.eval(&q, &graph, dept);
    println!(
        "product-automaton engine: {:?}  (pairs visited: {}, edges scanned: {})",
        product
            .answers
            .iter()
            .map(|&o| inst.node_name(o))
            .collect::<Vec<_>>(),
        product.stats.pairs_visited,
        product.stats.edges_scanned
    );

    // every engine agrees (Section 2.2's algorithms), through one trait
    let quotient = QuotientDfaEngine.eval(&q, &graph, dept);
    let derivative = DerivativeEngine.eval(&q, &graph, dept);
    assert_eq!(product.answers, quotient.answers);
    assert_eq!(product.answers, derivative.answers);

    // …including the Datalog translation (Section 2.3)
    let tq = translate_quotient(q.regex(), &ab).unwrap();
    assert!(tq.program.is_linear() && tq.program.is_monadic());
    let (datalog_answers, stats) = run_datalog(&tq, &inst, dept);
    assert_eq!(product.answers, datalog_answers);
    println!(
        "datalog (linear, monadic, {} IDB predicates): fixpoint in {} rounds",
        tq.idb_count, stats.rounds
    );

    // --- constraint-based optimization (Sections 3.2 / 4) -----------------
    // Suppose the site guarantees that following `cites` twice never leaves
    // the set reached by following it once: cites.cites = cites.
    let e = ConstraintSet::parse(&mut ab, ["cites.cites = cites"]).unwrap();
    let recursive = parse_regex(&mut ab, "cites*").unwrap();
    let opt = optimize(&e, &recursive, &ab);
    println!(
        "under {{cites.cites = cites}}:  {}  ≡  {}   (recursion removed: {})",
        recursive.display(&ab),
        opt.query.display(&ab),
        opt.improved()
    );
    assert!(opt.improved());
    assert!(!opt.after.recursive);
}
