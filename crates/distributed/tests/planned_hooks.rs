//! The distributed simulator accepting the optimizer's machinery: one
//! `PlannedEngine` as the memoized per-site rewrite hook, and a
//! `PlannedEngine` wrapping the simulator through the unified `Engine`
//! trait.

use rpq_automata::{Alphabet, Nfa, Regex};
use rpq_constraints::ConstraintSet;
use rpq_core::{eval_product_csr, Engine, EvalRequest, ProductEngine, Query};
use rpq_distributed::{Delivery, Simulator, SimulatorEngine};
use rpq_graph::{CsrGraph, Instance, Oid};
use rpq_optimizer::PlannedEngine;

/// The shared T5 cached workload (`rpq_bench::distributed_workload`): an
/// a·b backbone with trap branches, the cache label `l` wired from `v0`
/// to every (a.b)*-reachable node, so `l = (a.b)*` holds at `v0`.
fn cached_workload(depth: usize) -> (Alphabet, ConstraintSet, Instance, Oid) {
    let w = rpq_bench::distributed_workload(depth);
    assert!(w.constraints.holds_at(&w.instance, w.source));
    (w.alphabet, w.constraints, w.instance, w.source)
}

#[test]
fn one_planned_engine_serves_every_simulator_run() {
    let (mut ab, set, inst, v0) = cached_workload(6);
    let graph = CsrGraph::from(&inst);
    let query = rpq_automata::parse_regex(&mut ab, "(a.b)*").unwrap();
    let expected = eval_product_csr(&Nfa::thompson(&query), &graph, v0).answers;

    let planned = PlannedEngine::new(ProductEngine, set, ab.clone());
    let hook = |_site, q: &Regex| planned.rewrite(q, &graph);

    // The memoized hook must preserve answers and reduce protocol traffic
    // versus the unoptimized run.
    let plain = Simulator::from_csr(&graph, &ab, Delivery::Fifo).run(v0, &query);
    let optimized = Simulator::from_csr(&graph, &ab, Delivery::Fifo)
        .with_rewrite(hook)
        .run(v0, &query);
    assert_eq!(optimized.answers, expected);
    assert!(
        optimized.stats.total() < plain.stats.total(),
        "rewrite must cut messages: {} vs {}",
        optimized.stats.total(),
        plain.stats.total()
    );
    let plans = planned.plans_cached();
    assert!(plans > 0, "sites hit the shared memo");

    // A second network, under random delivery, rides the same memo.
    let delivery = Delivery::Random {
        seed: 7,
        max_latency: 5,
    };
    let again = Simulator::from_csr(&graph, &ab, delivery)
        .with_rewrite(hook)
        .run(v0, &query);
    assert_eq!(again.answers, expected);
    assert_eq!(
        planned.plans_cached(),
        plans,
        "the second run re-used the plans the first populated"
    );
}

#[test]
fn planned_engine_wraps_the_simulator() {
    let (mut ab, set, inst, v0) = cached_workload(5);
    let graph = CsrGraph::from(&inst);
    let query = Query::parse(&mut ab, "(a.b)*").unwrap();
    let expected = ProductEngine.eval(&query, &graph, v0).answers;

    let planned = PlannedEngine::new(SimulatorEngine::default(), set, ab.clone());
    let got = planned.eval(&query, &graph, v0);
    assert_eq!(got.answers, expected, "planned({})", planned.name());
}

#[test]
fn analysis_facts_flow_through_the_distributed_wrapper() {
    let (mut ab, set, inst, v0) = cached_workload(4);
    let graph = CsrGraph::from(&inst);
    let planned = PlannedEngine::new(SimulatorEngine::default(), set, ab.clone());
    let query = Query::parse(&mut ab, "(a.b)*").unwrap();

    // The cache substitution fires and certifies against the constraint
    // closure: the stats every distributed entry point reports carry the
    // verdict, and the plan that served them records its finite winner.
    let res = planned.eval(&query, &graph, v0);
    assert_eq!(res.stats.rewrites_certified, 1);
    assert_eq!(res.stats.rewrites_rejected, 0);
    let record = &planned.plan(&query, &graph).record;
    assert!(record.finite_language);
    assert!(
        record.winner.is_some(),
        "the record keeps the certified winner"
    );

    // A query forced through a zero-edge label short-circuits before any
    // site runs: no edges scanned for any source.
    let ghost = Query::parse(&mut ab, "a.ghost").unwrap();
    let sources: Vec<Oid> = graph.nodes().collect();
    let resp = planned.run(&ghost, &graph, &EvalRequest::sources(sources.clone()));
    let batch = resp.batch().expect("batch payload");
    assert_eq!(batch.per_source().unwrap().len(), sources.len());
    assert!(batch.union().is_empty());
    assert_eq!(resp.stats.edges_scanned, 0);
    let record = &planned.plan(&ghost, &graph).record;
    assert_eq!(record.pruned_symbols.len(), 1);
}
