//! T5 — distributed evaluation and the Section 3.2 payoff: message counts
//! with and without constraint-based subquery rewriting on cached sites.
//! Expected shape: both runs produce identical answers; the optimized run
//! sends a near-constant number of messages per answer while the plain run
//! pays for the whole backbone + trap exploration (the message-count series
//! is printed once per size on stderr).

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::distributed_workload;
use rpq_core::ProductEngine;
use rpq_distributed::{Delivery, Simulator};
use rpq_graph::CsrGraph;
use rpq_optimizer::PlannedEngine;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t5_distributed");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(150));

    for &depth in &[10usize, 40, 120] {
        let w = distributed_workload(depth);
        let graph = CsrGraph::from(&w.instance);

        // print the message-count series once (the paper-shaped result)
        {
            let plain =
                Simulator::new(&w.instance, &w.alphabet, Delivery::Fifo).run(w.source, &w.query);
            let planned =
                PlannedEngine::new(ProductEngine, w.constraints.clone(), w.alphabet.clone());
            let src = w.source.0;
            let optimized = Simulator::new(&w.instance, &w.alphabet, Delivery::Fifo)
                .with_rewrite(|site, q| {
                    if site == src {
                        planned.rewrite(q, &graph)
                    } else {
                        q.clone()
                    }
                })
                .run(w.source, &w.query);
            assert_eq!(plain.answers, optimized.answers);
            eprintln!(
                "t5 depth={depth}: plain {} msgs / {} B   optimized {} msgs / {} B",
                plain.stats.total(),
                plain.stats.bytes,
                optimized.stats.total(),
                optimized.stats.bytes
            );
        }

        group.bench_with_input(BenchmarkId::new("plain", depth), &depth, |b, _| {
            b.iter(|| {
                let mut sim = Simulator::new(&w.instance, &w.alphabet, Delivery::Fifo);
                black_box(sim.run(w.source, &w.query).stats.total())
            })
        });
        group.bench_with_input(BenchmarkId::new("optimized", depth), &depth, |b, _| {
            b.iter(|| {
                let planned =
                    PlannedEngine::new(ProductEngine, w.constraints.clone(), w.alphabet.clone());
                let src = w.source.0;
                let mut sim = Simulator::new(&w.instance, &w.alphabet, Delivery::Fifo)
                    .with_rewrite(|site, q| {
                        if site == src {
                            planned.rewrite(q, &graph)
                        } else {
                            q.clone()
                        }
                    });
                black_box(sim.run(w.source, &w.query).stats.total())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
