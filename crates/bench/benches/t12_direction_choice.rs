//! T12 — direction-aware planned evaluation (reverse-CSR payoff). On the
//! direction-skewed pair workload (plentiful first label group, one cold
//! edge into the target) the `PlannedEngine` must *choose* backward from
//! the label statistics and scan strictly — and at fanout ≥ 16, an order
//! of magnitude — fewer edges than a forced-forward pair search. The
//! assertions run at registration time, so `--test` mode (the CI bench
//! smoke) enforces the acceptance criterion without paying measurement
//! time; the measured series compare forced-forward and planned(backward)
//! wall clocks.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::direction_workload;
use rpq_core::{search_pair, Engine, EvalRequest, EvalScratch, ProductEngine, Query, SearchOpts};
use rpq_graph::CsrGraph;
use rpq_optimizer::{Direction, PlannedEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t12_direction_choice");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(200));

    for &fanout in &[16usize, 64, 256] {
        let w = direction_workload(fanout);
        let query = Query::new(w.query.clone(), &w.alphabet);
        let graph = CsrGraph::from(&w.instance);
        let planned = PlannedEngine::unconstrained(ProductEngine, w.alphabet.clone());

        // Acceptance: the planner picks backward from the statistics, and
        // the planned pair search scans strictly (10x) fewer edges than a
        // forced-forward one.
        let plan = planned.plan(&query, &graph);
        assert_eq!(
            plan.record.direction,
            Direction::Backward,
            "planner must choose backward at fanout {fanout}: {plan:?}"
        );
        let pair = EvalRequest::pair(w.source, w.target);
        let to_target = EvalRequest::target(w.target);
        let chosen = planned.run_view(&query, &graph, &pair);
        let forced = search_pair(
            query.nfa(),
            query.reversed(),
            &graph,
            w.source,
            w.target,
            Direction::Forward,
            &SearchOpts::default(),
            &mut EvalScratch::new(),
        )
        .0;
        assert!(chosen.reachable() == Some(true) && forced.reachable);
        assert!(
            chosen.stats.edges_scanned * 10 < forced.stats.edges_scanned,
            "planned backward must scan 10x fewer edges at fanout {fanout}: {} vs {}",
            chosen.stats.edges_scanned,
            forced.stats.edges_scanned
        );
        // the target-bound scenario rides the same reverse adjacency
        let to = ProductEngine.run(&query, &graph, &to_target);
        assert_eq!(to.nodes(), Some(&[w.source][..]));

        group.bench_with_input(
            BenchmarkId::new("pair_forced_forward", fanout),
            &fanout,
            |b, _| {
                b.iter(|| {
                    black_box(
                        search_pair(
                            query.nfa(),
                            query.reversed(),
                            &graph,
                            w.source,
                            w.target,
                            Direction::Forward,
                            &SearchOpts::default(),
                            &mut EvalScratch::new(),
                        )
                        .0
                        .reachable,
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pair_planned_backward", fanout),
            &fanout,
            |b, _| b.iter(|| black_box(planned.run_view(&query, &graph, &pair).reachable())),
        );
        group.bench_with_input(
            BenchmarkId::new("target_bound_backward", fanout),
            &fanout,
            |b, _| {
                b.iter(|| black_box(ProductEngine.run(&query, &graph, &to_target).stats.answers))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
