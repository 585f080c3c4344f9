//! T17 — conjunctive RPQs: the cost-based join planner and semijoin
//! propagation against static orders and the naive independent-atom
//! evaluator. Six claims, asserted at registration time so `--test`
//! mode (the CI bench smoke) enforces the acceptance criteria without
//! paying measurement time:
//!
//! * **The cost-based order wins** — on the hot/rare skew workload the
//!   planner picks the rare bottleneck atom first and runs the hot atom
//!   backward from its bindings; the planned order scans *strictly*
//!   fewer edges than the worst static order (which evaluates the hot
//!   fan-out unbound), with identical binding sets.
//! * **Semijoin propagation beats independent evaluation** — the
//!   executor's bound-side atom evaluation scans fewer total edges than
//!   [`rpq_optimizer::execute_naive`] (every atom both-sides-free, then
//!   hash-joined), again with identical bindings.
//! * **The text front end serves CRPQs end-to-end** — `ans(x, z) :- …`
//!   submitted through [`rpq_server::Session::submit_text`] comes back
//!   under [`rpq_server::QueryClass::Conjunctive`] with per-atom
//!   telemetry and the exact binding set.
//! * **A join allocates per step, not per row** — the worst static order
//!   of the skew workload builds a first relation of 4 096 rows; a warm
//!   `execute_join` asks the allocator for fewer than one buffer per 16 of
//!   them (counted by this binary's `#[global_allocator]`: 44; a `Vec`
//!   per row, as before PR 25, took 5 676).
//! * **The served chain binds what the oracle binds** — `bench_e2e`'s
//!   `kernel-scan` CRPQ, `ans(x,z) :- x -[p.p]-> y, y -[q+t]-> w, w -[p]->
//!   z` from 6 bound sources over a 4 096-node region of permutation
//!   labels ([`rpq_bench::served_chain_workload`]), returns
//!   `execute_naive`'s pairs for each of 30 source sets, and a warm op
//!   asks for fewer than one buffer per 8 of the bindings it joins (64 for
//!   681).
//! * **A statically empty atom empties the join without a scan** — on the
//!   skew workload, `ans(x, w) :- x -[hot]-> y, y -[rare]-> z, z -[ghost]->
//!   w`, whose `ghost` has no edge, returns no binding, scans 0 edges and
//!   records all three atoms with no direction, because the atom's plan
//!   decides it empty ([`rpq_optimizer::JoinPlan::atoms`]);
//!   `execute_naive` scans the hot fan-out to bind the same nothing.
//!
//! Measured series: planned-order vs worst-static-order `execute_join`
//! wall time over growing hot fan-outs, the per-atom edge split printed
//! after each size; and the served chain, one source set per op in turn,
//! printed as ns per op and ns per binding (the atom bindings the join
//! reads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::{crpq_workload, served_chain_workload};
use rpq_core::{EvalControl, EvalScratch, Termination};
use rpq_graph::{CsrGraph, Oid};
use rpq_optimizer::{
    execute_join, execute_naive, parse_crpq, plan_join, Direction, HeadBindings, JoinPlan,
    PlannerConfig,
};
use rpq_server::{Catalog, QueryClass, Server};

/// The system allocator, counting every buffer handed out — each
/// allocation and each reallocation — for the allocation gate.
struct Counting;

static BUFFERS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments, unchanged, to `System` and
// returns what `System` returns, so each keeps `System`'s guarantees; the
// counter is a statistic and publishes no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BUFFERS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BUFFERS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn bench(c: &mut Criterion) {
    // Acceptance 4 first, while this is the only thread that allocates: a
    // warm join builds a relation of thousands of rows from a handful of
    // buffers.
    {
        let w = crpq_workload(256, 16);
        let mut ab = w.alphabet.clone();
        let crpq = parse_crpq(&mut ab, w.text).expect("workload text parses");
        let graph = CsrGraph::from(&w.instance);
        let config = PlannerConfig::default();
        let plan = JoinPlan {
            order: vec![0, 1], // the hot atom first, unbound: every hot edge a row
            ..plan_join(&crpq, graph.stats(), &config, false, false)
        };
        let mut scratch = EvalScratch::new();
        let mut run = || {
            execute_join(
                &crpq,
                &plan,
                &graph,
                HeadBindings::default(),
                &EvalControl::UNLIMITED,
                &mut scratch,
            )
        };
        black_box(run());
        let before = BUFFERS.load(Ordering::Relaxed);
        let res = run();
        let buffers = BUFFERS.load(Ordering::Relaxed) - before;
        assert_eq!(res.pairs.len(), w.answers);
        // The first atom's bindings are the first relation's rows.
        let rows = res.stats.atoms[0].bindings;
        assert!(
            rows >= 1_000,
            "the gate needs a big relation, got {rows} rows"
        );
        println!("t17 join allocations: {buffers} buffers for {rows} rows");
        assert!(
            buffers * 16 < rows,
            "execute_join asked for {buffers} buffers to build {rows} rows — a \
             join step must allocate per step, not per row"
        );
    }

    let mut group = c.benchmark_group("t17_crpq");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(200));

    // Acceptance 1: the planner orders the rare atom first, binds the hot
    // atom backward, and the planned order scans strictly fewer edges
    // than the worst static order — same bindings.
    {
        let w = crpq_workload(64, 16);
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
        assert_eq!(plan.order, vec![1, 0], "rare bottleneck atom must go first");

        let run = |order: &[usize]| {
            let mut scratch = EvalScratch::new();
            execute_join(
                &crpq,
                &JoinPlan {
                    order: order.to_vec(),
                    ..plan.clone()
                },
                &graph,
                HeadBindings::default(),
                &EvalControl::UNLIMITED,
                &mut scratch,
            )
        };
        let planned = run(&plan.order);
        assert_eq!(
            planned.stats.atoms[1].direction,
            Some(Direction::Backward),
            "the hot atom must run backward from the bound join variable"
        );
        assert_eq!(planned.termination, Termination::Complete);
        assert_eq!(
            planned.pairs.len(),
            w.answers,
            "every source reaches the sink"
        );
        let worst = [vec![0, 1], vec![1, 0]]
            .into_iter()
            .map(|o| run(&o))
            .max_by_key(|r| r.stats.edges_scanned)
            .unwrap();
        assert_eq!(worst.pairs, planned.pairs, "order never changes semantics");
        assert!(
            planned.stats.edges_scanned * 2 < worst.stats.edges_scanned,
            "planned order scanned {} edges, worst static order {} — the \
             cost-based plan must win decisively on the skew workload",
            planned.stats.edges_scanned,
            worst.stats.edges_scanned
        );
    }

    // Acceptance 2: semijoin propagation (bound-side evaluation in plan
    // order) scans fewer edges than evaluating every atom independently
    // and joining after the fact.
    {
        let w = crpq_workload(64, 16);
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
        let mut scratch = EvalScratch::new();
        let semi = execute_join(
            &crpq,
            &plan,
            &graph,
            HeadBindings::default(),
            &EvalControl::UNLIMITED,
            &mut scratch,
        );
        let (naive_pairs, naive_edges) = execute_naive(&crpq, &graph, HeadBindings::default());
        assert_eq!(semi.pairs, naive_pairs, "semijoin never changes semantics");
        assert!(
            semi.stats.edges_scanned < naive_edges,
            "semijoin scanned {} edges, naive independent evaluation {}",
            semi.stats.edges_scanned,
            naive_edges
        );
    }

    // Acceptance 6: an atom over a label with no edges is statically
    // empty, so the join answers without an edge.
    {
        let w = crpq_workload(64, 16);
        let mut ab = w.alphabet.clone();
        let text = "ans(x, w) :- x -[hot]-> y, y -[rare]-> z, z -[ghost]-> w";
        let crpq = parse_crpq(&mut ab, text).expect("parses");
        let graph = CsrGraph::from(&w.instance);
        let plan = plan_join(
            &crpq,
            graph.stats(),
            &PlannerConfig::default(),
            false,
            false,
        );
        assert!(plan.atoms[2].record.statically_empty, "ghost has no edge");
        let res = execute_join(
            &crpq,
            &plan,
            &graph,
            HeadBindings::default(),
            &EvalControl::UNLIMITED,
            &mut EvalScratch::new(),
        );
        let (naive, naive_edges) = execute_naive(&crpq, &graph, HeadBindings::default());
        assert!(res.pairs.is_empty() && naive.is_empty());
        assert_eq!(res.termination, Termination::Complete);
        assert_eq!(
            res.stats.edges_scanned, 0,
            "a statically empty atom must empty the join without a scan"
        );
        assert_eq!(res.stats.atoms.len(), 3, "one record per atom");
        assert!(
            res.stats.atoms.iter().all(|a| a.direction.is_none()),
            "no atom ran: {:?}",
            res.stats.atoms
        );
        println!("t17 empty atom: 0 edges scanned, execute_naive {naive_edges}");
    }

    // Acceptance 3: the text front end serves the CRPQ end-to-end under
    // the Conjunctive class with per-atom telemetry.
    {
        let w = crpq_workload(16, 8);
        let catalog = Arc::new(Catalog::from_instance(&w.instance));
        let server = Server::new(catalog, w.alphabet.clone());
        let session = server.session();
        let handle = session
            .submit_text(
                w.text,
                rpq_core::SourceSpec::Conjunctive {
                    sources: None,
                    targets: None,
                },
            )
            .expect("under cap");
        assert_eq!(handle.class(), QueryClass::Conjunctive);
        let resp = handle.join();
        assert_eq!(resp.termination, Termination::Complete);
        assert_eq!(resp.bindings().expect("binding answers").len(), w.answers);
        assert_eq!(
            resp.stats.atoms.len(),
            2,
            "per-atom telemetry must cover both atoms"
        );
        let snap = server.metrics().class(QueryClass::Conjunctive);
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.atoms_evaluated, 2);
    }

    // Measured: planned vs worst static order over growing hot fan-outs.
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
        let worst = JoinPlan {
            order: vec![0, 1],
            ..plan.clone()
        };

        for (name, plan) in [("planned", &plan), ("worst_static", &worst)] {
            group.bench_with_input(BenchmarkId::new(name, n_src), plan, |b, plan| {
                let mut scratch = EvalScratch::new();
                b.iter(|| {
                    let res = execute_join(
                        &crpq,
                        plan,
                        &graph,
                        HeadBindings::default(),
                        &EvalControl::UNLIMITED,
                        &mut scratch,
                    );
                    black_box(res.pairs.len())
                })
            });
        }

        let mut scratch = EvalScratch::new();
        let res = execute_join(
            &crpq,
            &plan,
            &graph,
            HeadBindings::default(),
            &EvalControl::UNLIMITED,
            &mut scratch,
        );
        let split: Vec<String> = res
            .stats
            .atoms
            .iter()
            .map(|a| {
                format!(
                    "atom {} → {} edges, {} bindings",
                    a.atom, a.edges_scanned, a.bindings
                )
            })
            .collect();
        println!(
            "t17 n_src={n_src}: planned {} edges total ({}), hot fan {} edges",
            res.stats.edges_scanned,
            split.join("; "),
            w.hot_edges
        );
    }

    // Measured: the served chain, `bench_e2e`'s `kernel-scan` CRPQ from 6
    // bound sources, one source set per op in turn — ns per op and per
    // binding (the atoms' bindings the join reads). Acceptance 5 first:
    // every set binds what the naive oracle binds, and a warm op allocates
    // per step, not per row.
    {
        let w = served_chain_workload(1, 4096, 30, 6);
        let mut ab = w.alphabet.clone();
        let crpq = parse_crpq(&mut ab, w.text).expect("workload text parses");
        let graph = CsrGraph::from(&w.instance);
        let plan = plan_join(&crpq, graph.stats(), &PlannerConfig::default(), true, false);
        let run = |sources: &[Oid], scratch: &mut EvalScratch| {
            let heads = HeadBindings {
                sources: Some(sources),
                targets: None,
            };
            execute_join(
                &crpq,
                &plan,
                &graph,
                heads,
                &EvalControl::UNLIMITED,
                scratch,
            )
        };
        let (naive, _) = execute_naive(&crpq, &graph, HeadBindings::default());
        let mut scratch = EvalScratch::new();
        let (mut bindings, mut edges) = (0, 0);
        for sources in &w.source_sets {
            let res = run(sources, &mut scratch);
            let want: Vec<(Oid, Oid)> = naive
                .iter()
                .copied()
                .filter(|(x, _)| sources.contains(x))
                .collect();
            assert_eq!(
                res.pairs, want,
                "the served chain binds what the oracle binds"
            );
            bindings += res.stats.atoms.iter().map(|a| a.bindings).sum::<usize>();
            edges += res.stats.edges_scanned;
        }
        let before = BUFFERS.load(Ordering::Relaxed);
        let res = run(&w.source_sets[0], &mut scratch);
        let buffers = BUFFERS.load(Ordering::Relaxed) - before;
        let rows: usize = res.stats.atoms.iter().map(|a| a.bindings).sum();
        println!("t17 served_chain allocations: {buffers} buffers for {rows} bindings");
        assert!(
            buffers * 8 < rows,
            "the served chain asked for {buffers} buffers to join {rows} bindings — a \
             join step must allocate per step, not per row"
        );

        let (mut spent, mut ops) = (Duration::ZERO, 0u32);
        group.bench_function("served_chain", |b| {
            let mut sets = w.source_sets.iter().cycle();
            b.iter(|| {
                let sources = sets.next().expect("cycle of a non-empty list");
                let start = Instant::now();
                let res = run(sources, &mut scratch);
                spent += start.elapsed();
                ops += 1;
                black_box(res.pairs.len())
            })
        });
        if ops > 0 {
            let per_op = spent.as_nanos() as f64 / f64::from(ops);
            let sets = w.source_sets.len();
            let per_binding = per_op * sets as f64 / bindings as f64;
            println!(
                "t17 served_chain: {per_op:.0} ns per op, {per_binding:.1} ns per binding \
                 ({} bindings and {} edges per op)",
                bindings / sets,
                edges / sets
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
