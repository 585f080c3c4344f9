//! T15 — the serving hot path: the product BFS, one push sweep per level,
//! and zero-allocation scratch reuse. Two claims, asserted at registration
//! time so `--test` mode (the CI bench smoke) enforces the acceptance
//! criteria without paying measurement time:
//!
//! * **A search pays for its region** — `rows_resolved` counts label-index
//!   lookups per (state, labeled transition). A closure local to a region a
//!   hundredth of the graph resolves exactly one row per (reached pair,
//!   labeled transition): nothing is priced, and no row is resolved twice.
//! * **Warm scratch allocates nothing** — a second evaluation through a
//!   [`ScratchPool`] reports `scratch_reused > 0` (its tables already
//!   cover `|Q|·|V|`) and returns identical answers; the measured series
//!   compare the warm pooled path against a cold arena per evaluation.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::Nfa;
use rpq_bench::eval_workload;
use rpq_core::{search_nodes, EvalScratch, ScratchPool, SearchOpts};
use rpq_graph::CsrGraph;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t15_hot_path");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(200));

    // Acceptance 1: a closure that stays inside one region of a graph a
    // hundred times its reach pays for its region only: one row per
    // (reached pair, labeled transition) — the closure `(a+b)*` moves by
    // two symbols from one state, reached once at every node.
    {
        let mut alphabet = rpq_automata::Alphabet::new();
        let (a, b) = (alphabet.intern("a"), alphabet.intern("b"));
        let (regions, size) = (100u32, 64u32);
        let mut instance = rpq_graph::Instance::new();
        for _ in 0..regions * size {
            instance.add_node();
        }
        for r in 0..regions {
            let node = |j: u32| rpq_graph::Oid(r * size + j % size);
            for j in 0..size {
                instance.add_edge(node(j), a, node(j * 5 + 1));
                instance.add_edge(node(j), b, node(j * 11 + 3));
            }
        }
        let graph = CsrGraph::from(&instance);
        let query = rpq_automata::parse_regex(&mut alphabet, "(a+b)*").unwrap();
        let nfa = Nfa::thompson(&query);
        let seed = rpq_graph::Oid(17 * size);
        let opts = SearchOpts::default();
        let local = search_nodes(&nfa, &graph, seed, &opts, &mut EvalScratch::new()).0;
        assert_eq!(
            local.answers.len(),
            size as usize,
            "the region is connected"
        );
        assert_eq!(
            local.stats.rows_resolved,
            2 * local.answers.len(),
            "a region-local closure resolved a row twice"
        );
    }

    // Acceptance 2: warm pooled evaluation reports scratch reuse with
    // identical answers. Measured: warm pooled arena vs cold allocation.
    for &nodes in &[200usize, 800] {
        let w = eval_workload(11, nodes);
        let graph = CsrGraph::from(&w.instance);
        let nfa = Nfa::thompson(&w.queries[3].1); // `broad`, traverses everything
        let pool = ScratchPool::new();
        let cold = {
            let mut scratch = pool.checkout();
            search_nodes(&nfa, &graph, w.source, &SearchOpts::default(), &mut scratch).0
        };
        let warm = {
            let mut scratch = pool.checkout();
            search_nodes(&nfa, &graph, w.source, &SearchOpts::default(), &mut scratch).0
        };
        assert_eq!(cold.answers, warm.answers, "warm scratch diverged");
        assert!(
            warm.stats.scratch_reused > 0,
            "warm evaluation did not reuse the pooled arena at {nodes} nodes"
        );
        assert_eq!(pool.allocs(), 1, "pool allocated twice at {nodes} nodes");
        assert!(pool.reuses() >= 1);

        group.bench_with_input(BenchmarkId::new("warm_scratch", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut scratch = pool.checkout();
                black_box(
                    search_nodes(
                        &nfa,
                        &graph,
                        black_box(w.source),
                        &SearchOpts::default(),
                        &mut scratch,
                    )
                    .0
                    .answers
                    .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("cold_alloc", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut scratch = EvalScratch::new();
                black_box(
                    search_nodes(
                        &nfa,
                        &graph,
                        black_box(w.source),
                        &SearchOpts::default(),
                        &mut scratch,
                    )
                    .0
                    .answers
                    .len(),
                )
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
