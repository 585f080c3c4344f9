//! T15 — the serving hot path: direction-optimizing hybrid product BFS and
//! zero-allocation scratch reuse. Three claims, asserted at registration
//! time so `--test` mode (the CI bench smoke) enforces the acceptance
//! criteria without paying measurement time:
//!
//! * **Hybrid never loses, and wins on high fanout** — on every workload
//!   the hybrid BFS scans no more edges than the forced-sparse baseline,
//!   and on the complete-digraph pull workload it runs at least one pull
//!   level and scans *strictly* fewer edges (the sparse sweep re-scans all
//!   `hubs²` edges at the saturated level to discover nothing).
//! * **The switch is paid for where it can fire** — `rows_resolved`
//!   counts label-index lookups per (state, labeled transition), pricing
//!   and the pull bound's reverse rows included. A closure local to a
//!   region a hundredth of the graph never nears the sweep floor: it
//!   resolves exactly one row per (reached pair, labeled transition) and
//!   no reverse row. The saturating
//!   workload still pushes its first level and pulls its second, and pays
//!   one price and one reverse row per hub for it.
//! * **Warm scratch allocates nothing** — a second evaluation through a
//!   [`ScratchPool`] reports `scratch_reused > 0` (its tables already
//!   cover `|Q|·|V|`) and returns identical answers; the measured series
//!   compare the warm pooled path against a cold arena per evaluation.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::Nfa;
use rpq_bench::{eval_workload, pull_workload, skewed_workload};
use rpq_core::{search_nodes, EvalScratch, FrontierMode, ScratchPool, SearchOpts};
use rpq_graph::CsrGraph;

fn bench(c: &mut Criterion) {
    // Forced-sparse (always push) is the baseline the hybrid is gated
    // against.
    let sparse_opts = SearchOpts {
        mode: FrontierMode::ForcedSparse,
        ..SearchOpts::default()
    };
    let mut group = c.benchmark_group("t15_hot_path");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(200));

    // Acceptance 1a: hybrid scans no more edges than forced-sparse on
    // every workload shape (web-like, label-skewed, saturating).
    {
        let w = eval_workload(7, 400);
        let graph = CsrGraph::from(&w.instance);
        let mut scratch = EvalScratch::new();
        for (name, q) in &w.queries {
            let nfa = Nfa::thompson(q);
            let sparse = search_nodes(&nfa, &graph, w.source, &sparse_opts, &mut scratch).0;
            let hybrid =
                search_nodes(&nfa, &graph, w.source, &SearchOpts::default(), &mut scratch).0;
            assert_eq!(sparse.answers, hybrid.answers, "{name} diverged");
            assert!(
                hybrid.stats.edges_scanned <= sparse.stats.edges_scanned,
                "{name}: hybrid {} > sparse {}",
                hybrid.stats.edges_scanned,
                sparse.stats.edges_scanned
            );
        }
        let w = skewed_workload(128, 32);
        let graph = CsrGraph::from(&w.instance);
        let nfa = Nfa::thompson(&w.query);
        let sparse = search_nodes(&nfa, &graph, w.source, &sparse_opts, &mut scratch).0;
        let hybrid = search_nodes(&nfa, &graph, w.source, &SearchOpts::default(), &mut scratch).0;
        assert_eq!(sparse.answers, hybrid.answers, "skewed diverged");
        assert!(hybrid.stats.edges_scanned <= sparse.stats.edges_scanned);
    }

    // Acceptance 1b: on the high-fanout pull series the hybrid runs pull
    // levels and scans strictly fewer edges. Measured: hybrid vs sparse.
    for &hubs in &[48usize, 96] {
        let w = pull_workload(hubs);
        let graph = CsrGraph::from(&w.instance);
        let nfa = Nfa::thompson(&w.query);
        let mut scratch = EvalScratch::new();
        let sparse = search_nodes(&nfa, &graph, w.source, &sparse_opts, &mut scratch).0;
        let hybrid = search_nodes(&nfa, &graph, w.source, &SearchOpts::default(), &mut scratch).0;
        assert_eq!(sparse.answers, hybrid.answers, "pull workload diverged");
        assert!(
            hybrid.stats.edges_scanned < sparse.stats.edges_scanned,
            "hybrid {} must strictly beat sparse {} at {hubs} hubs",
            hybrid.stats.edges_scanned,
            sparse.stats.edges_scanned
        );
        // The fan is pushed (one row, never priced: the root's degree is
        // below the sweep floor); the saturated level is priced (a row per
        // hub), found dearer than the floor, and only then is the pull
        // bound settled (a reverse row per hub) — and the level pulled.
        assert_eq!(
            (hybrid.stats.push_levels, hybrid.stats.pull_levels),
            (1, 1),
            "hybrid switched on other levels at {hubs} hubs"
        );
        assert_eq!(hybrid.stats.edges_scanned, hubs);
        assert_eq!(hybrid.stats.rows_resolved, 1 + 2 * hubs);
        assert_eq!(sparse.stats.rows_resolved, 1 + hubs);

        group.bench_with_input(BenchmarkId::new("pull_hybrid", hubs), &hubs, |b, _| {
            let mut scratch = EvalScratch::new();
            b.iter(|| {
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
        group.bench_with_input(BenchmarkId::new("pull_sparse", hubs), &hubs, |b, _| {
            let mut scratch = EvalScratch::new();
            b.iter(|| {
                black_box(
                    search_nodes(
                        &nfa,
                        &graph,
                        black_box(w.source),
                        &sparse_opts,
                        &mut scratch,
                    )
                    .0
                    .answers
                    .len(),
                )
            })
        });
    }

    // Acceptance 1c: a closure that stays inside one region of a graph a
    // hundred times its reach pays nothing for the direction optimizer:
    // one row per (reached pair, labeled transition) — the closure
    // `(a+b)*` moves by two symbols from one state, reached once at every
    // node — and no reverse row.
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
        assert_eq!(local.stats.pull_levels, 0);
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
