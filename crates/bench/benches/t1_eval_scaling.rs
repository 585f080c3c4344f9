//! T1 — RPQ evaluation scaling (paper claims: PTIME combined complexity,
//! NLOGSPACE/NC data complexity — Section 2.2; Datalog connection —
//! Section 2.3). Expected shape: all engines scale near-linearly in graph
//! size; the product-NFA engine wins; the Datalog engines pay a constant
//! factor; semi-naive beats naive.
//!
//! Engines evaluate over a pre-built `CsrGraph` snapshot (the query-time
//! form); a `product_scan` series keeps the seed's scan-and-filter loop
//! (over the mutable `Instance`) as the baseline, and the `skew_*` series
//! isolates the label-index payoff on a label-skewed workload: one hot
//! label with high fanout, a query that follows the cold label.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::{eval_workload, multi_source_workload, skewed_workload};
use rpq_core::{eval_product_scan, Engine, EvalRequest, ProductEngine, Query};
use rpq_datalog::engine::{eval_naive, eval_seminaive};
use rpq_datalog::translate::{load_csr, translate_quotient};
use rpq_graph::CsrGraph;
use rpq_paper::{DerivativeEngine, QuotientDfaEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t1_eval_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(200));

    for &nodes in &[500usize, 2_000, 8_000] {
        let w = eval_workload(7, nodes);
        // the "broad" query (l0+l1+l2)* reaches every node, so the work
        // scales with the data — the data-complexity claim under test
        let (_, regex) = &w.queries[3];
        let query = Query::new(regex.clone(), &w.alphabet);
        let graph = CsrGraph::from(&w.instance);

        group.bench_with_input(BenchmarkId::new("product_nfa", nodes), &nodes, |b, _| {
            b.iter(|| black_box(ProductEngine.eval(&query, &graph, w.source).answers.len()))
        });
        group.bench_with_input(BenchmarkId::new("product_scan", nodes), &nodes, |b, _| {
            b.iter(|| {
                black_box(
                    eval_product_scan(query.nfa(), &w.instance, w.source)
                        .answers
                        .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("quotient_dfa", nodes), &nodes, |b, _| {
            b.iter(|| {
                black_box(
                    QuotientDfaEngine
                        .eval(&query, &graph, w.source)
                        .answers
                        .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("derivative", nodes), &nodes, |b, _| {
            b.iter(|| {
                black_box(
                    DerivativeEngine
                        .eval(&query, &graph, w.source)
                        .answers
                        .len(),
                )
            })
        });
        if nodes <= 2_000 {
            // translation hoisted out of the timed loop (it is query
            // compilation, not evaluation); the EDB load stays inside
            // because the fixpoint consumes the database destructively
            let tq = translate_quotient(regex, &w.alphabet).unwrap();
            group.bench_with_input(
                BenchmarkId::new("datalog_seminaive", nodes),
                &nodes,
                |b, _| {
                    b.iter(|| {
                        let mut db = load_csr(&tq, &graph, w.source);
                        black_box(eval_seminaive(&tq.program, &mut db).idb_tuples)
                    })
                },
            );
            if nodes <= 500 {
                group.bench_with_input(BenchmarkId::new("datalog_naive", nodes), &nodes, |b, _| {
                    b.iter(|| {
                        let mut db = load_csr(&tq, &graph, w.source);
                        black_box(eval_naive(&tq.program, &mut db).idb_tuples)
                    })
                });
            }
        }
    }

    // Label-skew series: scan-and-filter pays the hot fanout at every spine
    // step; the label index touches only the cold edges it follows. The
    // asserted edges_scanned gap makes the speedup's cause visible.
    for &fanout in &[16usize, 64, 256] {
        let w = skewed_workload(64, fanout);
        let query = Query::new(w.query.clone(), &w.alphabet);
        let graph = CsrGraph::from(&w.instance);
        let indexed = ProductEngine.eval(&query, &graph, w.source);
        let scanned = eval_product_scan(query.nfa(), &w.instance, w.source);
        assert_eq!(indexed.answers, scanned.answers);
        assert!(
            indexed.stats.edges_scanned < scanned.stats.edges_scanned,
            "label index must scan fewer edges on skew"
        );
        group.bench_with_input(
            BenchmarkId::new("skew_scan_filter", fanout),
            &fanout,
            |b, _| {
                b.iter(|| {
                    black_box(
                        eval_product_scan(query.nfa(), &w.instance, w.source)
                            .answers
                            .len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("skew_label_indexed", fanout),
            &fanout,
            |b, _| b.iter(|| black_box(ProductEngine.eval(&query, &graph, w.source).answers.len())),
        );
    }

    // Multi-source series: N sources funnel into one shared spine
    // (skew graph with `hot_fanout` noise edges per node). A `Sources`
    // request is one product BFS per source, so it must answer — and scan
    // — exactly like the hand-written loop.
    for &nsrc in &[16usize, 64] {
        let w = multi_source_workload(64, 32, nsrc);
        let query = Query::new(w.query.clone(), &w.alphabet);
        let graph = CsrGraph::from(&w.instance);

        let all_sources = EvalRequest::sources(w.sources.clone());
        let resp = ProductEngine.run(&query, &graph, &all_sources);
        let batch = resp.batch().expect("batch payload");
        let mut loop_edges = 0usize;
        for (i, &s) in w.sources.iter().enumerate() {
            let single = ProductEngine.eval(&query, &graph, s);
            loop_edges += single.stats.edges_scanned;
            assert_eq!(
                batch.per_source().unwrap()[i],
                single.answers,
                "batch/per-source disagreement at source {i}"
            );
        }
        assert_eq!(
            resp.stats.edges_scanned, loop_edges,
            "a Sources request is the per-source loop at N={nsrc}"
        );

        group.bench_with_input(
            BenchmarkId::new("multi_per_source_loop", nsrc),
            &nsrc,
            |b, _| {
                b.iter(|| {
                    let mut total = 0usize;
                    for &s in &w.sources {
                        total += ProductEngine.eval(&query, &graph, s).answers.len();
                    }
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
