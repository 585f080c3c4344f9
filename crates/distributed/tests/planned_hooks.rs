//! The distributed runners accepting the optimizer's thread-safe machinery:
//! one memoizing `RewriteCache` shared as the per-site hook by the
//! deterministic simulator *and* every thread of the concurrent runner, and
//! a `PlannedEngine` wrapping the simulator, the threaded runner, and the
//! partitioned batch driver through the unified `Engine` trait.

use rpq_automata::{Alphabet, Nfa, Regex};
use rpq_constraints::general::Budget;
use rpq_constraints::ConstraintSet;
use rpq_core::{eval_product_csr, Engine, EvalRequest, ProductEngine, Query};
use rpq_distributed::{
    run_threaded_csr, run_threaded_csr_with_rewrite, Delivery, PartitionedBatchEngine, Simulator,
    SimulatorEngine, ThreadedEngine,
};
use rpq_graph::{CsrGraph, Instance, Oid};
use rpq_optimizer::{PlannedEngine, RewriteCache};

/// The shared T5 cached workload (`rpq_bench::distributed_workload`): an
/// a·b backbone with trap branches, the cache label `l` wired from `v0`
/// to every (a.b)*-reachable node, so `l = (a.b)*` holds at `v0`.
fn cached_workload(depth: usize) -> (Alphabet, ConstraintSet, Instance, Oid) {
    let w = rpq_bench::distributed_workload(depth);
    assert!(w.constraints.holds_at(&w.instance, w.source));
    (w.alphabet, w.constraints, w.instance, w.source)
}

#[test]
fn one_rewrite_cache_serves_simulator_and_threaded_runner() {
    let (mut ab, set, inst, v0) = cached_workload(6);
    let graph = CsrGraph::from(&inst);
    let query = rpq_automata::parse_regex(&mut ab, "(a.b)*").unwrap();
    let expected = eval_product_csr(&Nfa::thompson(&query), &graph, v0).answers;

    let cache = RewriteCache::new(&set, &ab, Budget::default()).with_stats(graph.stats().clone());

    // Deterministic simulator: the memoized hook must preserve answers and
    // reduce protocol traffic versus the unoptimized run.
    let plain = Simulator::from_csr(&graph, &ab, Delivery::Fifo).run(v0, &query);
    let mut sim = Simulator::from_csr(&graph, &ab, Delivery::Fifo)
        .with_rewrite(|_site, q: &Regex| cache.rewrite(q));
    let optimized = sim.run(v0, &query);
    assert_eq!(optimized.answers, expected);
    assert!(
        optimized.stats.total() < plain.stats.total(),
        "rewrite must cut messages: {} vs {}",
        optimized.stats.total(),
        plain.stats.total()
    );
    assert!(!cache.is_empty(), "sites hit the shared cache");
    let after_sim = cache.len();

    // Threaded runner: *the same cache instance* is the hook for every
    // site thread — this is what the Mutex-backed memo buys.
    let threaded =
        run_threaded_csr_with_rewrite(&graph, v0, &query, &|_site, q: &Regex| cache.rewrite(q));
    assert_eq!(threaded.answers, expected);
    assert_eq!(
        cache.len(),
        after_sim,
        "the threaded run re-used the memo entries the simulator populated"
    );

    // hook-free runner still agrees
    assert_eq!(run_threaded_csr(&graph, v0, &query).answers, expected);
}

#[test]
fn planned_engine_wraps_all_distributed_runners() {
    let (mut ab, set, inst, v0) = cached_workload(5);
    let graph = CsrGraph::from(&inst);
    let query = Query::parse(&mut ab, "(a.b)*").unwrap();
    let expected = ProductEngine.eval(&query, &graph, v0).answers;

    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(PlannedEngine::new(
            SimulatorEngine::default(),
            set.clone(),
            ab.clone(),
        )),
        Box::new(PlannedEngine::new(ThreadedEngine, set.clone(), ab.clone())),
        Box::new(PlannedEngine::new(
            PartitionedBatchEngine::new(3),
            set.clone(),
            ab.clone(),
        )),
    ];
    for engine in &engines {
        let got = engine.eval(&query, &graph, v0);
        assert_eq!(got.answers, expected, "planned({})", engine.name());
    }
}

#[test]
fn analysis_facts_flow_through_the_distributed_wrappers() {
    let (mut ab, set, inst, v0) = cached_workload(4);
    let graph = CsrGraph::from(&inst);
    let planned = PlannedEngine::new(PartitionedBatchEngine::new(2), set, ab.clone());
    let query = Query::parse(&mut ab, "(a.b)*").unwrap();

    // The cache substitution fires, certifies against the constraint
    // closure, and its finite winner is recorded in the stats every
    // distributed entry point reports.
    let res = planned.eval(&query, &graph, v0);
    assert_eq!(res.stats.rewrites_certified, 1);
    assert_eq!(res.stats.rewrites_rejected, 0);
    assert!(res.stats.finite_language);
    assert!(res.stats.analysis_ns > 0);

    // A query forced through a zero-edge label short-circuits before any
    // worker thread spawns: no edges scanned across the whole fan-out.
    let ghost = Query::parse(&mut ab, "a.ghost").unwrap();
    let sources: Vec<Oid> = graph.nodes().collect();
    let resp = planned.run(&ghost, &graph, &EvalRequest::sources(sources.clone()));
    let batch = resp.batch().expect("batch payload");
    assert_eq!(batch.per_source().unwrap().len(), sources.len());
    assert!(batch.union().is_empty());
    assert_eq!(resp.stats.edges_scanned, 0);
    assert_eq!(resp.stats.symbols_pruned, 1);
}

#[test]
fn partitioned_batch_workers_share_one_plan() {
    let (mut ab, set, inst, v0) = cached_workload(5);
    let graph = CsrGraph::from(&inst);
    let query = Query::parse(&mut ab, "(a.b)*").unwrap();
    let planned = PlannedEngine::new(PartitionedBatchEngine::new(4), set, ab.clone());

    // every node is a source: plan once, then the inner engine's batch
    // strategy fans the planned query out — every worker shares the single
    // memoized plan
    let sources: Vec<Oid> = graph.nodes().collect();
    let plan = planned.plan(&query, &graph);
    let resp = planned
        .inner()
        .run(&plan.query, &graph, &EvalRequest::sources(sources.clone()));
    let batch = resp.batch().expect("batch payload");
    assert_eq!(
        planned.plans_cached(),
        1,
        "one rewrite + compile served all {} workers",
        4
    );
    let per = batch
        .per_source()
        .expect("partitioned engine reports per-source");
    assert_eq!(
        per[v0.index()],
        ProductEngine.eval(&query, &graph, v0).answers
    );
    for (i, &s) in sources.iter().enumerate() {
        // spot-check against the unwrapped engine on the rewritten query's
        // equivalence guarantee: answers must match the *original* query
        // wherever the constraints hold (they hold at v0; elsewhere the
        // plain product engine on the original query is the oracle only if
        // the rewrite did not change semantics at that source, so compare
        // against the planned single-source path instead).
        let single = planned.eval(&query, &graph, s);
        assert_eq!(per[i], single.answers, "source {i}");
    }
}
