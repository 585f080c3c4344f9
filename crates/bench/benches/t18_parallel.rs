//! T18 — intra-query parallelism: the frontier-parallel hybrid product
//! BFS against the sequential search. Three claims, asserted at
//! registration time so `--test` mode (the CI bench smoke) enforces the
//! acceptance criteria without paying measurement time:
//!
//! * **Parallelism never changes answers** — at every DoP and every
//!   frontier mode the parallel kernels return bit-for-bit the sequential
//!   answer sets, with identical `edges_scanned` (set-identical levels
//!   price identically, so the work counters are deterministic too).
//! * **DoP = 1 is the PR 7 hot path** — the parallel entry at `dop = 1`
//!   delegates to the unchanged sequential kernel: identical answers,
//!   identical work counters, and min-of-N wall clock within noise of the
//!   direct sequential call (a generous 2× bound on an identical code
//!   path; the real gap is one function call).
//! * **Hybrid stays ≤ sparse under parallelism** — the parallel hybrid
//!   run never scans more edges than the parallel forced-sparse run; the
//!   exact shrinking pull-bound accounting (summed per-worker debits)
//!   preserves the PR 7 pricing under partitioned sweeps.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::Nfa;
use rpq_bench::eval_workload;
use rpq_core::{search_nodes, EvalScratch, FrontierMode, ScratchPool, SearchOpts};
use rpq_graph::CsrGraph;

/// Minimum wall clock of `n` runs of `f` (the robust statistic for a
/// speedup gate: load spikes only ever inflate samples).
fn min_time_of(n: usize, mut f: impl FnMut()) -> Duration {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("n >= 1")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t18_parallel");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(200));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ScratchPool::with_capacity(8);
    let at_dop = |dop: usize| SearchOpts {
        dop,
        pool: Some(&pool),
        ..SearchOpts::default()
    };

    // Acceptance 1 + 3: agreement across DoP and mode, hybrid <= sparse
    // under parallelism. The web workload's broad closure saturates the
    // graph, so levels are large enough to cross PAR_LEVEL_THRESHOLD and
    // genuinely fan out.
    let w = eval_workload(13, 8_000);
    let graph = CsrGraph::from(&w.instance);
    let broad = Nfa::thompson(&w.queries[3].1); // `(l0+l1+l2)*`
    {
        let mut scratch = EvalScratch::new();
        for (name, q) in &w.queries {
            let nfa = Nfa::thompson(q);
            for mode in [
                FrontierMode::ForcedSparse,
                FrontierMode::ForcedDense,
                FrontierMode::Hybrid,
            ] {
                let seq = search_nodes(
                    &nfa,
                    &graph,
                    w.source,
                    &SearchOpts {
                        mode,
                        ..SearchOpts::default()
                    },
                    &mut scratch,
                )
                .0;
                for dop in [1usize, 2, 4] {
                    let (par, _) = search_nodes(
                        &nfa,
                        &graph,
                        w.source,
                        &SearchOpts {
                            mode,
                            ..at_dop(dop)
                        },
                        &mut scratch,
                    );
                    assert_eq!(
                        par.answers, seq.answers,
                        "{name} diverged ({mode:?} dop={dop})"
                    );
                    assert_eq!(
                        par.stats.edges_scanned, seq.stats.edges_scanned,
                        "{name} priced differently ({mode:?} dop={dop})"
                    );
                }
            }
        }
        // hybrid <= sparse with the level sweeps actually partitioned
        let (sparse, _) = search_nodes(
            &broad,
            &graph,
            w.source,
            &SearchOpts {
                mode: FrontierMode::ForcedSparse,
                ..at_dop(4)
            },
            &mut scratch,
        );
        let (hybrid, _) = search_nodes(&broad, &graph, w.source, &at_dop(4), &mut scratch);
        assert_eq!(
            sparse.answers, hybrid.answers,
            "hybrid diverged under parallelism"
        );
        assert!(
            hybrid.stats.edges_scanned <= sparse.stats.edges_scanned,
            "parallel hybrid {} > parallel sparse {}",
            hybrid.stats.edges_scanned,
            sparse.stats.edges_scanned
        );
    }

    // Acceptance 2: DoP = 1 is the sequential hot path. Counters are
    // asserted exactly; wall clock gets a generous identical-code-path
    // noise bound on the min of nine runs.
    {
        let mut scratch = EvalScratch::new();
        let seq_time = min_time_of(9, || {
            black_box(
                search_nodes(
                    &broad,
                    &graph,
                    w.source,
                    &SearchOpts::default(),
                    &mut scratch,
                )
                .0
                .answers
                .len(),
            );
        });
        let mut scratch2 = EvalScratch::new();
        let dop1_time = min_time_of(9, || {
            black_box(
                search_nodes(&broad, &graph, w.source, &at_dop(1), &mut scratch2)
                    .0
                    .answers
                    .len(),
            );
        });
        assert!(
            dop1_time <= seq_time * 2 + Duration::from_micros(200),
            "dop=1 ({dop1_time:?}) not within noise of the sequential hot path ({seq_time:?})"
        );
    }

    // Measured series: the frontier-parallel single-source kernel by DoP.
    for &dop in &[1usize, 2, 4] {
        if dop > 1 && dop > cores {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::new("product_frontier", dop),
            &dop,
            |b, &dop| {
                let mut scratch = EvalScratch::new();
                b.iter(|| {
                    black_box(
                        search_nodes(
                            &broad,
                            &graph,
                            black_box(w.source),
                            &at_dop(dop),
                            &mut scratch,
                        )
                        .0
                        .answers
                        .len(),
                    )
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
