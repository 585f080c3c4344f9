//! Machine-readable bench baseline for the CI perf trajectory.
//!
//! Runs two series once per configuration and reports, per series point:
//! name, `n` (batch size / fanout), median wall-clock nanoseconds over the
//! repetitions, and the `edges_scanned` work counter:
//!
//! * **T1 multi-source** — the per-source product loop and the
//!   partitioned threaded driver;
//! * **T12 direction choice** — the forced-forward pair search against the
//!   `PlannedEngine`'s statistics-chosen backward search on the
//!   direction-skewed workload;
//! * **T13 incremental update** — absorbing a small edge batch through the
//!   `DeltaGraph` overlay against the full `CsrGraph` rebuild, plus
//!   evaluation over the live overlay and the fold that compacts it
//!   (asserting the overlay is ≥ 5× and the fold ≥ 3× cheaper than the
//!   rebuild, and that the `PlannedEngine` plan memo survives the delta
//!   epoch and the compaction);
//! * **T14 static analysis** — the `PlannedEngine`'s statically-empty
//!   fast path against the plain product engine on an
//!   alphabet-unsatisfiable query (asserting the planned side reports
//!   `edges_scanned == 0`), plus plan-time-certified rewrites on the
//!   cached-site workload against the unrewritten evaluation.
//! * **T15 hot path** — the direction-optimizing hybrid product BFS
//!   against the forced-sparse baseline on the high-fanout pull workload
//!   (asserting strictly fewer edge scans), warm pooled scratch against a
//!   cold arena per evaluation (asserting `scratch_reused > 0`; the
//!   cold-vs-warm median gap is the recorded series), and the per-target
//!   backward loop on the multi-target workload.
//!
//! * **T16 serving** — end-to-end mixed read/write serving through the
//!   `rpq-server` session layer: N concurrent submissions against
//!   epoch-pinned snapshots racing two writer commits, plus the server's
//!   aggregated per-class p50/p99 latency (asserting the admission cap
//!   rejects above capacity and a budgeted query terminates early with
//!   `edges_scanned <= budget`).
//! * **T17 conjunctive join planning** — the cost-based atom order with
//!   semijoin propagation against the worst static order and the naive
//!   independent-atom evaluator on the hot/rare skew workload (asserting
//!   the planned order scans strictly fewer edges than both, with
//!   identical binding sets).
//! * **T18 intra-query parallelism** — the frontier-parallel product
//!   search by degree of parallelism (asserting identical answers and
//!   identical `edges_scanned` at every DoP; the wall-clock speedup gate
//!   lives in the t18 bench, which can check core count).
//!
//! ```text
//! bench_baseline [--json PATH] [--repeats N]
//! ```
//!
//! Without `--json` the tables go to stdout; with it, the T1 document is
//! written to `PATH` and the T12–T18 documents to siblings
//! `BENCH_t12.json` … `BENCH_t18.json` (CI uploads all eight as the
//! bench-regression artifacts).

use std::time::Instant;

use rpq_automata::parse_regex;
use rpq_bench::{
    crpq_workload, direction_workload, distributed_workload, eval_workload, incremental_workload,
    multi_source_workload, multi_target_workload, pull_workload, skewed_workload,
};
use rpq_core::{
    eval_product_csr, search_nodes, search_pair, Engine, EvalScratch, EvalStats, FrontierMode,
    ProductEngine, Query, ScratchPool, SearchOpts,
};
use rpq_core::{EvalControl, EvalRequest, Termination};
use rpq_distributed::PartitionedBatchEngine;
use rpq_graph::{CsrGraph, DeltaGraph};
use rpq_optimizer::{
    execute_join, execute_naive, parse_crpq, plan_join, Direction, HeadBindings, PlannedEngine,
    PlannerConfig,
};
use rpq_server::{Catalog, QueryClass, Server, ServerConfig, SubmitError};

struct SeriesPoint {
    name: &'static str,
    n: usize,
    median_ns: u128,
    edges_scanned: usize,
}

/// Median wall-clock nanoseconds of `repeats` runs of `f`, plus the stats
/// of the last run (the workloads are deterministic, so any run's counters
/// are the series' counters).
fn measure(repeats: usize, mut f: impl FnMut() -> EvalStats) -> (u128, EvalStats) {
    let mut times: Vec<u128> = Vec::with_capacity(repeats);
    let mut stats = EvalStats::default();
    for _ in 0..repeats {
        let start = Instant::now();
        stats = f();
        times.push(start.elapsed().as_nanos());
    }
    times.sort_unstable();
    (times[times.len() / 2], stats)
}

fn main() {
    let backward = SearchOpts {
        reverse_adj: true,
        ..SearchOpts::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut repeats = 15usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json_path = Some(
                    args.get(i + 1)
                        .unwrap_or_else(|| {
                            eprintln!("--json requires a path");
                            std::process::exit(2);
                        })
                        .clone(),
                );
                i += 2;
            }
            "--repeats" => {
                repeats = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--repeats requires a number >= 1");
                        std::process::exit(2);
                    });
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_baseline [--json PATH] [--repeats N]");
                std::process::exit(2);
            }
        }
    }

    let mut points: Vec<SeriesPoint> = Vec::new();
    for &nsrc in &[16usize, 64] {
        let w = multi_source_workload(64, 32, nsrc);
        let query = Query::new(w.query.clone(), &w.alphabet);
        let graph = CsrGraph::from(&w.instance);

        let (t, stats) = measure(repeats, || {
            let mut total = EvalStats::default();
            for &s in &w.sources {
                total.merge(&ProductEngine.eval(&query, &graph, s).stats);
            }
            total
        });
        points.push(SeriesPoint {
            name: "multi_per_source_loop",
            n: nsrc,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });

        let engine = PartitionedBatchEngine::new(4);
        let (t, stats) = measure(repeats, || {
            engine.eval_batch(&query, &graph, &w.sources).stats
        });
        points.push(SeriesPoint {
            name: "multi_batch_partitioned",
            n: nsrc,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
    }

    // T12 direction-choice series: forced-forward vs planned(backward)
    // pair reachability on the direction-skewed workload. The assertion
    // mirrors the t12 bench's acceptance criterion, so a planning
    // regression fails this job rather than shifting the baseline.
    let mut t12_points: Vec<SeriesPoint> = Vec::new();
    for &fanout in &[64usize, 256] {
        let w = direction_workload(fanout);
        let query = Query::new(w.query.clone(), &w.alphabet);
        let graph = CsrGraph::from(&w.instance);
        let planned = PlannedEngine::unconstrained(ProductEngine, w.alphabet.clone());
        assert_eq!(
            planned.plan(&query, &graph).direction,
            Direction::Backward,
            "planner must choose backward at fanout {fanout}"
        );

        let (t, stats) = measure(repeats, || {
            search_pair(
                query.nfa(),
                &query.nfa().reverse(),
                &graph,
                w.source,
                w.target,
                Direction::Forward,
                &SearchOpts::default(),
                &mut EvalScratch::new(),
            )
            .0
            .stats
        });
        t12_points.push(SeriesPoint {
            name: "pair_forced_forward",
            n: fanout,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
        let forced_edges = stats.edges_scanned;

        let (t, stats) = measure(repeats, || {
            planned.eval_pair(&query, &graph, w.source, w.target).stats
        });
        t12_points.push(SeriesPoint {
            name: "pair_planned_backward",
            n: fanout,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
        assert!(
            stats.edges_scanned < forced_edges,
            "planned direction must scan strictly fewer edges than \
             forced-forward (planned {} vs forward {forced_edges} at fanout {fanout})",
            stats.edges_scanned
        );
    }

    // T13 incremental-update series: absorbing a small edge batch through
    // the DeltaGraph overlay vs the full CsrGraph rebuild, plus evaluation
    // over the live overlay. The assertions mirror the t13 bench's
    // acceptance criteria (overlay >= 5x and fold >= 3x cheaper than the
    // rebuild; plan-cache hits across the delta epoch and across
    // compact()), so a snapshot or memo regression fails this job rather
    // than shifting the baseline.
    let mut t13_points: Vec<SeriesPoint> = Vec::new();
    for &nodes in &[1024usize, 4096] {
        let w = incremental_workload(nodes, 16);
        let query = Query::new(w.query.clone(), &w.alphabet);
        let inverse = w.delta.inverse();

        let mut dg = DeltaGraph::from_instance(&w.instance);
        let mut overlay_min = u128::MAX;
        let (overlay_ns, _) = measure(repeats, || {
            let start = Instant::now();
            dg.apply_delta(&w.delta);
            dg.apply_delta(&inverse);
            overlay_min = overlay_min.min(start.elapsed().as_nanos());
            EvalStats::default()
        });
        t13_points.push(SeriesPoint {
            name: "snapshot_delta_overlay",
            n: nodes,
            median_ns: overlay_ns,
            edges_scanned: w.delta.len(),
        });

        let (rebuild_ns, _) = measure(repeats, || {
            std::hint::black_box(CsrGraph::from(&w.instance));
            EvalStats::default()
        });
        t13_points.push(SeriesPoint {
            name: "snapshot_full_rebuild",
            n: nodes,
            median_ns: rebuild_ns,
            edges_scanned: w.instance.num_edges(),
        });
        // Gate the rebuild's median against the overlay's *minimum*:
        // scheduler noise can only inflate the microsecond-scale overlay
        // samples, so the minimum keeps this assertion deterministic on
        // loaded CI runners (the true gap is orders of magnitude).
        assert!(
            rebuild_ns >= 5 * overlay_min.max(1),
            "overlay snapshot must be >= 5x cheaper than a full rebuild              (overlay {overlay_min}ns vs rebuild {rebuild_ns}ns at {nodes} nodes)"
        );

        // plan memo survives the delta epoch
        let planned = PlannedEngine::unconstrained(ProductEngine, w.alphabet.clone());
        planned.plan(&query, &dg);
        dg.apply_delta(&w.delta);
        let res = planned.eval_view(&query, &dg, w.source);
        assert_eq!(
            (res.stats.plan_cache_hits, res.stats.plan_cache_misses),
            (1, 0),
            "PlannedEngine must report a plan-cache hit across the delta epoch"
        );

        let (t, stats) = measure(repeats, || {
            eval_product_csr(query.nfa(), &dg, w.source).stats
        });
        t13_points.push(SeriesPoint {
            name: "eval_over_delta",
            n: nodes,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });

        // Folding the batch into the base (what a compacting commit pays)
        // against `CsrGraph::from` over the same edges — the rebuild
        // compaction used to be. Each fold starts from a clone of the
        // overlaid graph (its 24-entry log); the gate reads the rebuild's
        // median against the fold's minimum, as above.
        let mut mutated = w.instance.clone();
        for &(f, l, t) in &w.delta.dels {
            mutated.remove_edge(f, l, t);
        }
        for &(f, l, t) in &w.delta.adds {
            mutated.add_edge(f, l, t);
        }
        let (rebuild_ns, _) = measure(repeats, || {
            std::hint::black_box(CsrGraph::from(&mutated));
            EvalStats::default()
        });
        let mut fold_min = u128::MAX;
        let (fold_ns, _) = measure(repeats, || {
            let start = Instant::now();
            let mut d = dg.clone();
            d.compact();
            std::hint::black_box(d);
            fold_min = fold_min.min(start.elapsed().as_nanos());
            EvalStats::default()
        });
        t13_points.push(SeriesPoint {
            name: "compact_small_overlay",
            n: nodes,
            median_ns: fold_ns,
            edges_scanned: dg.num_edges(),
        });
        assert!(
            rebuild_ns >= 3 * fold_min.max(1),
            "folding the batch must be >= 3x cheaper than rebuilding the same \
             edges (fold {fold_min}ns vs rebuild {rebuild_ns}ns at {nodes} nodes)"
        );

        // plan memo survives the compaction
        dg.compact();
        let res = planned.eval_view(&query, &dg, w.source);
        assert_eq!(
            (res.stats.plan_cache_hits, res.stats.plan_cache_misses),
            (1, 0),
            "PlannedEngine must report a plan-cache hit across compact()"
        );
    }

    // T14 static-analysis series: the statically-empty fast path vs the
    // plain engine discovering emptiness by traversal, and the certified
    // constraint rewrite vs the unrewritten query. The empty-side
    // assertion mirrors the t14 bench's acceptance criterion
    // (`edges_scanned == 0`), so an analysis regression fails this job
    // rather than shifting the baseline.
    let mut t14_points: Vec<SeriesPoint> = Vec::new();
    for &depth in &[64usize, 256] {
        let mut w = skewed_workload(depth, 32);
        let ghost_q = parse_regex(&mut w.alphabet, "ghost.cold*").unwrap();
        let ghost_query = Query::new(ghost_q, &w.alphabet);
        let graph = CsrGraph::from(&w.instance);
        let planned = PlannedEngine::unconstrained(ProductEngine, w.alphabet.clone());

        let (t, stats) = measure(repeats, || {
            planned.eval(&ghost_query, &graph, w.source).stats
        });
        t14_points.push(SeriesPoint {
            name: "analysis_empty_planned",
            n: depth,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
        assert_eq!(
            stats.edges_scanned, 0,
            "statically empty query must not scan edges at depth {depth}"
        );

        let (t, stats) = measure(repeats, || {
            ProductEngine.eval(&ghost_query, &graph, w.source).stats
        });
        t14_points.push(SeriesPoint {
            name: "analysis_empty_plain",
            n: depth,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
    }
    for &depth in &[32usize, 128] {
        let w = distributed_workload(depth);
        let query = Query::new(w.query.clone(), &w.alphabet);
        let graph = CsrGraph::from(&w.instance);
        let planned = PlannedEngine::new(ProductEngine, w.constraints.clone(), w.alphabet.clone());
        let plan = planned.plan(&query, &graph);
        assert_eq!(
            plan.facts.rewrites_certified, 1,
            "cache-substitution rewrite must certify at depth {depth}"
        );

        let (t, stats) = measure(repeats, || planned.eval(&query, &graph, w.source).stats);
        t14_points.push(SeriesPoint {
            name: "analysis_certified_rewrite",
            n: depth,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });

        let (t, stats) = measure(repeats, || {
            ProductEngine.eval(&query, &graph, w.source).stats
        });
        t14_points.push(SeriesPoint {
            name: "analysis_plain_query",
            n: depth,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
    }

    // T15 hot-path series: hybrid vs forced-sparse on the pull workload,
    // warm pooled scratch vs cold allocation, and the per-target backward
    // loop on the multi-target workload. The assertions mirror the
    // t15 bench's acceptance criteria, so a hot-path regression fails this
    // job rather than shifting the baseline.
    let mut t15_points: Vec<SeriesPoint> = Vec::new();
    for &hubs in &[48usize, 96] {
        let w = pull_workload(hubs);
        let graph = CsrGraph::from(&w.instance);
        let nfa = rpq_automata::Nfa::thompson(&w.query);

        let mut scratch = EvalScratch::new();
        let (t, stats) = measure(repeats, || {
            search_nodes(
                &nfa,
                &graph,
                w.source,
                &SearchOpts {
                    mode: FrontierMode::ForcedSparse,
                    ..SearchOpts::default()
                },
                &mut scratch,
            )
            .0
            .stats
        });
        t15_points.push(SeriesPoint {
            name: "hot_pull_sparse",
            n: hubs,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
        let sparse_edges = stats.edges_scanned;

        let (t, stats) = measure(repeats, || {
            search_nodes(&nfa, &graph, w.source, &SearchOpts::default(), &mut scratch)
                .0
                .stats
        });
        t15_points.push(SeriesPoint {
            name: "hot_pull_hybrid",
            n: hubs,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
        assert!(
            stats.pull_levels >= 1 && stats.edges_scanned < sparse_edges,
            "hybrid must pull and scan strictly fewer edges than forced-sparse \
             (hybrid {} vs sparse {sparse_edges} at {hubs} hubs)",
            stats.edges_scanned
        );
    }
    {
        let w = eval_workload(11, 400);
        let graph = CsrGraph::from(&w.instance);
        let nfa = rpq_automata::Nfa::thompson(&w.queries[3].1); // `broad`
        let pool = ScratchPool::new();
        drop(pool.checkout()); // warm the pool before measuring

        let (t, stats) = measure(repeats, || {
            let mut scratch = pool.checkout();
            search_nodes(&nfa, &graph, w.source, &SearchOpts::default(), &mut scratch)
                .0
                .stats
        });
        t15_points.push(SeriesPoint {
            name: "hot_warm_scratch",
            n: 400,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
        assert!(
            stats.scratch_reused > 0,
            "warm pooled evaluation must report scratch reuse"
        );
        assert_eq!(pool.allocs(), 1, "warm series must not grow the pool");

        let (t, stats) = measure(repeats, || {
            let mut scratch = EvalScratch::new();
            search_nodes(&nfa, &graph, w.source, &SearchOpts::default(), &mut scratch)
                .0
                .stats
        });
        t15_points.push(SeriesPoint {
            name: "hot_cold_alloc",
            n: 400,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
    }
    for &targets_n in &[16usize, 64] {
        let w = multi_target_workload(64, 16, targets_n);
        let graph = CsrGraph::from(&w.instance);
        let reversed = rpq_automata::Nfa::thompson(&w.query).reverse();

        let (t, stats) = measure(repeats, || {
            let mut total = EvalStats::default();
            for &target in &w.targets {
                total.merge(
                    &search_nodes(
                        &reversed,
                        &graph,
                        target,
                        &backward,
                        &mut EvalScratch::new(),
                    )
                    .0
                    .stats,
                );
            }
            total
        });
        t15_points.push(SeriesPoint {
            name: "hot_looped_eval_to",
            n: targets_n,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
    }

    // T16 serving series: N concurrent sessions submit through the shared
    // planner while the writer commits a delta batch and its inverse; one
    // measured unit is submissions + commits + joins. The p50/p99 points
    // come from the server's own per-class latency aggregation. The
    // assertions mirror the t16 bench's acceptance criteria (admission
    // cap enforced, budgeted queries terminate early within budget), so a
    // serving regression fails this job rather than shifting the
    // baseline.
    let mut t16_points: Vec<SeriesPoint> = Vec::new();
    for &readers in &[4usize, 8] {
        let w = incremental_workload(1024, 16);
        let catalog = std::sync::Arc::new(Catalog::from_instance(&w.instance));
        let server = Server::new(catalog.clone(), w.alphabet.clone()).with_config(ServerConfig {
            max_concurrent: readers,
            ..ServerConfig::default()
        });
        let query = Query::new(w.query.clone(), &w.alphabet);
        let inverse = w.delta.inverse();

        let (t, stats) = measure(repeats, || {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    server
                        .session()
                        .submit(&query, EvalRequest::source(w.source))
                        .expect("under cap")
                })
                .collect();
            catalog.commit(&w.delta);
            catalog.commit(&inverse);
            let mut total = EvalStats::default();
            for h in handles {
                total.merge(&h.join().stats);
            }
            total
        });
        t16_points.push(SeriesPoint {
            name: "serve_mixed_read_write",
            n: readers,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });

        let snap = server.metrics().class(QueryClass::Single);
        assert!(
            snap.queries >= readers,
            "the serving series must record per-class metrics"
        );
        assert!(snap.p50_latency_ns <= snap.p99_latency_ns);
        t16_points.push(SeriesPoint {
            name: "serve_p50_latency",
            n: readers,
            median_ns: snap.p50_latency_ns as u128,
            edges_scanned: snap.edges_scanned,
        });
        t16_points.push(SeriesPoint {
            name: "serve_p99_latency",
            n: readers,
            median_ns: snap.p99_latency_ns as u128,
            edges_scanned: snap.edges_scanned,
        });

        // Admission: with every slot held, the next submission rejects.
        let session = server.session();
        let held: Vec<_> = (0..readers)
            .map(|_| {
                session
                    .submit(&query, EvalRequest::source(w.source))
                    .expect("fills a slot")
            })
            .collect();
        assert!(
            matches!(
                session.submit(&query, EvalRequest::source(w.source)),
                Err(SubmitError::Rejected { .. })
            ),
            "admission must reject above the cap at readers={readers}"
        );
        for h in held {
            let _ = h.join();
        }

        // Budgets: a tiny explicit budget terminates the broad closure
        // early, never scanning past the budget.
        let broad = {
            let mut ab = w.alphabet.clone();
            Query::parse(&mut ab, "(l0+l1+l2)*").unwrap()
        };
        let resp = session
            .submit(&broad, EvalRequest::source(w.source).with_budget(8))
            .expect("under cap")
            .join();
        assert_eq!(
            resp.termination,
            Termination::BudgetExhausted,
            "the broad closure must exhaust an 8-edge budget"
        );
        assert!(
            resp.stats.edges_scanned <= 8,
            "scanned {} > budget 8",
            resp.stats.edges_scanned
        );
    }

    // T17 conjunctive-join series: the cost-based atom order (rare
    // bottleneck first, hot atom backward from the bound join variable)
    // against the worst static order and the naive independent-atom
    // evaluator. The assertions mirror the t17 bench's acceptance
    // criteria, so a join-planning regression fails this job rather than
    // shifting the baseline.
    let mut t17_points: Vec<SeriesPoint> = Vec::new();
    for &n_src in &[64usize, 256] {
        let w = crpq_workload(n_src, 16);
        let mut ab = w.alphabet.clone();
        let crpq = parse_crpq(&mut ab, w.text).expect("workload text parses");
        let graph = CsrGraph::from(&w.instance);
        let plan = plan_join(
            &crpq,
            graph.stats(),
            &PlannerConfig::default(),
            false,
            false,
        );
        let run = |order: &[usize]| {
            let mut scratch = EvalScratch::new();
            execute_join(
                &crpq,
                order,
                &graph,
                HeadBindings::default(),
                FrontierMode::Hybrid,
                &EvalControl::UNLIMITED,
                &mut scratch,
            )
        };

        let (t, stats) = measure(repeats, || run(&plan.order).stats);
        t17_points.push(SeriesPoint {
            name: "crpq_planned_order",
            n: n_src,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
        let planned_edges = stats.edges_scanned;
        let planned_pairs = run(&plan.order).pairs;
        assert_eq!(
            planned_pairs.len(),
            w.answers,
            "every source must reach the sink at n_src={n_src}"
        );

        let worst_order = [vec![0usize, 1], vec![1, 0]]
            .into_iter()
            .max_by_key(|o| run(o).stats.edges_scanned)
            .unwrap();
        let (t, stats) = measure(repeats, || run(&worst_order).stats);
        t17_points.push(SeriesPoint {
            name: "crpq_worst_static_order",
            n: n_src,
            median_ns: t,
            edges_scanned: stats.edges_scanned,
        });
        assert_eq!(
            run(&worst_order).pairs,
            planned_pairs,
            "atom order must never change semantics at n_src={n_src}"
        );
        assert!(
            planned_edges * 2 < stats.edges_scanned,
            "planned order must scan strictly fewer edges than the worst \
             static order (planned {planned_edges} vs worst {} at n_src={n_src})",
            stats.edges_scanned
        );

        let (t, _) = measure(repeats, || {
            let (pairs, edges) = execute_naive(&crpq, &graph, HeadBindings::default());
            EvalStats {
                edges_scanned: edges,
                answers: pairs.len(),
                ..Default::default()
            }
        });
        let (naive_pairs, naive_edges) = execute_naive(&crpq, &graph, HeadBindings::default());
        t17_points.push(SeriesPoint {
            name: "crpq_naive_independent",
            n: n_src,
            median_ns: t,
            edges_scanned: naive_edges,
        });
        assert_eq!(naive_pairs, planned_pairs);
        assert!(
            planned_edges < naive_edges,
            "semijoin propagation must scan fewer edges than independent \
             atom evaluation (planned {planned_edges} vs naive {naive_edges} \
             at n_src={n_src})"
        );
    }

    // T18 intra-query parallelism series: the frontier-parallel product
    // search by degree of parallelism, against the sequential search on a
    // broad-closure web workload.
    // The assertions mirror the t18 bench's acceptance criteria (identical
    // answers and identical edges_scanned at every DoP — set-identical
    // levels price identically), so a parallel-soundness regression fails
    // this job rather than shifting the baseline. Timing claims live in
    // the t18 bench gate, not here: this job may run on loaded or
    // single-core runners, where only the work counters are stable.
    let mut t18_points: Vec<SeriesPoint> = Vec::new();
    {
        let w = eval_workload(13, 4_000);
        let graph = CsrGraph::from(&w.instance);
        let broad = rpq_automata::Nfa::thompson(&w.queries[3].1);
        let pool = ScratchPool::with_capacity(8);
        let mut scratch = EvalScratch::new();
        let seq = search_nodes(
            &broad,
            &graph,
            w.source,
            &SearchOpts::default(),
            &mut scratch,
        )
        .0;
        for &dop in &[1usize, 2, 4] {
            let (t, stats) = measure(repeats, || {
                search_nodes(
                    &broad,
                    &graph,
                    w.source,
                    &SearchOpts {
                        dop,
                        pool: Some(&pool),
                        ..SearchOpts::default()
                    },
                    &mut scratch,
                )
                .0
                .stats
            });
            t18_points.push(SeriesPoint {
                name: match dop {
                    1 => "par_product_dop1",
                    2 => "par_product_dop2",
                    _ => "par_product_dop4",
                },
                n: dop,
                median_ns: t,
                edges_scanned: stats.edges_scanned,
            });
            assert_eq!(
                stats.edges_scanned, seq.stats.edges_scanned,
                "parallel product search must price exactly like sequential at dop={dop}"
            );
            let (par, _) = search_nodes(
                &broad,
                &graph,
                w.source,
                &SearchOpts {
                    dop,
                    pool: Some(&pool),
                    ..SearchOpts::default()
                },
                &mut scratch,
            );
            assert_eq!(
                par.answers, seq.answers,
                "parallel product search diverged at dop={dop}"
            );
        }
    }

    for (title, pts) in [
        ("t1_multi_source", &points),
        ("t12_direction_choice", &t12_points),
        ("t13_incremental_update", &t13_points),
        ("t14_static_analysis", &t14_points),
        ("t15_hot_path", &t15_points),
        ("t16_serving", &t16_points),
        ("t17_crpq", &t17_points),
        ("t18_parallel", &t18_points),
    ] {
        println!("\n[{title}]");
        println!(
            "{:<28} {:>6} {:>14} {:>14}",
            "series", "n", "median_ns", "edges_scanned"
        );
        for p in pts {
            println!(
                "{:<28} {:>6} {:>14} {:>14}",
                p.name, p.n, p.median_ns, p.edges_scanned
            );
        }
    }

    if let Some(path) = json_path {
        write_doc(&path, "t1_multi_source", repeats, &points);
        // The T12 series lands next to the T1 artifact regardless of how
        // that file is named.
        let sibling = |name: &str| match std::path::Path::new(&path).parent() {
            Some(dir) if !dir.as_os_str().is_empty() => {
                dir.join(name).to_string_lossy().into_owned()
            }
            _ => name.to_owned(),
        };
        write_doc(
            &sibling("BENCH_t12.json"),
            "t12_direction_choice",
            repeats,
            &t12_points,
        );
        write_doc(
            &sibling("BENCH_t13.json"),
            "t13_incremental_update",
            repeats,
            &t13_points,
        );
        write_doc(
            &sibling("BENCH_t14.json"),
            "t14_static_analysis",
            repeats,
            &t14_points,
        );
        write_doc(
            &sibling("BENCH_t15.json"),
            "t15_hot_path",
            repeats,
            &t15_points,
        );
        write_doc(
            &sibling("BENCH_t16.json"),
            "t16_serving",
            repeats,
            &t16_points,
        );
        write_doc(&sibling("BENCH_t17.json"), "t17_crpq", repeats, &t17_points);
        write_doc(
            &sibling("BENCH_t18.json"),
            "t18_parallel",
            repeats,
            &t18_points,
        );
    }
}

/// Write one `{bench, repeats, series: [...]}` JSON document. Series names
/// are static identifiers, so plain formatting is valid JSON without an
/// escaping pass.
fn write_doc(path: &str, bench: &str, repeats: usize, points: &[SeriesPoint]) {
    let series: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"n\": {}, \"median_ns\": {}, \"edges_scanned\": {}}}",
                p.name, p.n, p.median_ns, p.edges_scanned
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"repeats\": {repeats},\n  \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    );
    std::fs::write(path, doc).unwrap_or_else(|e| {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {path}");
}
