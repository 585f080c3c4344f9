//! Parallel-evaluation agreement: intra-query parallelism is an
//! *optimization*, never a semantics change. The frontier-parallel product
//! BFS, the multi-seed request arms and pair-set loop that carry a worker
//! grant, and the CRPQ executor must return exactly the sequential answers
//! — across every
//! frontier mode, forward and backward, on the immutable `CsrGraph`
//! snapshot and on a post-delta `DeltaGraph` epoch, at every degree of
//! parallelism. Budget and cancellation under parallelism must yield sound
//! *subsets* with `edges_scanned <= budget`, and the sorted outputs must
//! be bit-for-bit deterministic across repeated parallel runs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;

use rpq::automata::random::{random_regex, RegexGenConfig};
use rpq::automata::{Alphabet, Regex, Symbol};
use rpq::core::{
    eval_oracle, run_request, search_nodes, search_pairs, Direction, EvalControl, EvalScratch,
    FrontierMode, Query, ScratchPool, SearchOpts, SourceSpec, Termination,
};
use rpq::graph::generators::random_graph;
use rpq::graph::{CsrGraph, DeltaGraph, GraphView, Instance, Oid};
use rpq::optimizer::{execute_join, execute_join_parallel, plan_join, HeadBindings, PlannerConfig};

const MODES: [FrontierMode; 4] = [
    FrontierMode::ForcedSparse,
    FrontierMode::ForcedDense,
    FrontierMode::Hybrid,
    FrontierMode::HybridTuned { pull_discount: 64 },
];

/// Degrees of parallelism to exercise: the sequential delegate, one extra
/// worker, and a small pool.
const DOPS: [usize; 3] = [1, 2, 4];

fn random_setup(seed: u64, nodes: usize, edges: usize) -> (Alphabet, Instance, Oid, Regex) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (inst, src) = random_graph(&mut rng, nodes, edges, &syms);
    let cfg = RegexGenConfig::new(syms);
    let q = random_regex(&mut rng, &cfg);
    (ab, inst, src, q)
}

/// A post-delta epoch over `inst`: a couple of extra edges keyed off
/// `seed`, so the parallel kernels are also exercised through the overlay
/// adjacency (`DeltaGraph`), not just the flat CSR.
fn post_delta(inst: &Instance, ab: &Alphabet, seed: u64) -> DeltaGraph {
    let mut dg = DeltaGraph::from_instance(inst);
    let nodes: Vec<Oid> = CsrGraph::from(inst).nodes().collect();
    let syms: Vec<Symbol> = ab.symbols().collect();
    dg.add_edge(nodes[seed as usize % nodes.len()], syms[0], nodes[0]);
    dg.add_edge(
        nodes[0],
        syms[seed as usize % syms.len()],
        nodes[nodes.len() - 1],
    );
    dg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The frontier-parallel single-source kernel answers exactly like the
    /// sequential kernel — every mode, every DoP, forward and backward, on
    /// the CSR snapshot and a post-delta epoch.
    #[test]
    fn parallel_product_search_agrees_with_sequential(seed in 0u64..10_000) {
        let (ab, inst, src, q) = random_setup(seed, 40, 160);
        let query = Query::new(q, &ab);
        let nfa = query.nfa();
        let rev = nfa.reverse();
        let csr = CsrGraph::from(&inst);
        let dg = post_delta(&inst, &ab, seed);
        let pool = ScratchPool::with_capacity(8);

        fn check<G: GraphView>(
            nfa: &rpq::automata::Nfa,
            rev: &rpq::automata::Nfa,
            graph: &G,
            src: Oid,
            pool: &ScratchPool,
        ) -> Result<(), TestCaseError> {
            for mode in MODES {
                let fwd_opts = SearchOpts { mode, ..SearchOpts::default() };
                let bwd_opts = SearchOpts { reverse_adj: true, ..fwd_opts };
                let mut seq = EvalScratch::new();
                let fwd = search_nodes(nfa, graph, src, &fwd_opts, &mut seq).0;
                let bwd = search_nodes(rev, graph, src, &bwd_opts, &mut seq).0;
                for dop in DOPS {
                    let mut scratch = EvalScratch::new();
                    let par = SearchOpts { dop, pool: Some(pool), ..fwd_opts };
                    let (res, term) = search_nodes(nfa, graph, src, &par, &mut scratch);
                    prop_assert_eq!(&res.answers, &fwd.answers, "fwd {:?} dop={}", mode, dop);
                    prop_assert_eq!(term, Termination::Complete);
                    let par = SearchOpts { dop, pool: Some(pool), ..bwd_opts };
                    let (res, term) = search_nodes(rev, graph, src, &par, &mut scratch);
                    prop_assert_eq!(&res.answers, &bwd.answers, "bwd {:?} dop={}", mode, dop);
                    prop_assert_eq!(term, Termination::Complete);
                }
            }
            Ok(())
        }
        check(nfa, &rev, &csr, src, &pool)?;
        check(nfa, &rev, &dg, src, &pool)?;
    }

    /// Multi-seed requests and the pair-set loop return exactly the
    /// sequential output whatever worker grant they carry — `Sources`,
    /// `Targets`, and all three pair-set orientations, at every DoP, on the
    /// CSR snapshot and a post-delta epoch.
    #[test]
    fn parallel_multi_seed_requests_agree_with_sequential(seed in 0u64..10_000) {
        let (ab, inst, _, q) = random_setup(seed, 150, 600);
        let query = Query::new(q, &ab);
        let nfa = query.nfa();
        let rev = nfa.reverse();
        let csr = CsrGraph::from(&inst);
        let dg = post_delta(&inst, &ab, seed);
        let pool = ScratchPool::with_capacity(8);

        fn check<G: GraphView>(
            nfa: &rpq::automata::Nfa,
            rev: &rpq::automata::Nfa,
            graph: &G,
            pool: &ScratchPool,
        ) -> Result<(), TestCaseError> {
            let sources: Vec<Oid> = (0..graph.num_nodes() as u32).map(Oid).collect();
            let targets: Vec<Oid> = (0..graph.num_nodes() as u32).step_by(7).map(Oid).collect();
            let per_seed = |spec: SourceSpec, opts: &SearchOpts<'_>, s: &mut EvalScratch| {
                run_request(nfa, rev, graph, &spec, Direction::Forward, opts, s)
            };
            let fwd = SearchOpts::default();
            let bwd = SearchOpts { reverse_adj: true, ..fwd };
            let mut seq = EvalScratch::new();
            let batch = per_seed(SourceSpec::Sources(sources.clone()), &fwd, &mut seq);
            let to_batch = per_seed(SourceSpec::Targets(targets.clone()), &fwd, &mut seq);
            let from = search_pairs(nfa, graph, &sources, None, &fwd, &mut seq);
            let to = search_pairs(rev, graph, &targets, None, &bwd, &mut seq);
            let bound = search_pairs(nfa, graph, &sources, Some(&targets), &fwd, &mut seq);
            for dop in DOPS {
                let mut scratch = EvalScratch::new();
                let fwd = SearchOpts { dop, pool: Some(pool), ..fwd };
                let bwd = SearchOpts { dop, pool: Some(pool), ..bwd };
                let b = per_seed(SourceSpec::Sources(sources.clone()), &fwd, &mut scratch);
                prop_assert_eq!(b.batch(), batch.batch(), "batch dop={}", dop);
                prop_assert_eq!(b.stats.edges_scanned, batch.stats.edges_scanned);
                let t = per_seed(SourceSpec::Targets(targets.clone()), &fwd, &mut scratch);
                prop_assert_eq!(t.batch(), to_batch.batch(), "to-batch dop={}", dop);
                let f = search_pairs(nfa, graph, &sources, None, &fwd, &mut scratch);
                prop_assert_eq!(&f.pairs, &from.pairs, "pairs-from dop={}", dop);
                let t = search_pairs(rev, graph, &targets, None, &bwd, &mut scratch);
                prop_assert_eq!(&t.pairs, &to.pairs, "pairs-to dop={}", dop);
                let b = search_pairs(nfa, graph, &sources, Some(&targets), &fwd, &mut scratch);
                prop_assert_eq!(&b.pairs, &bound.pairs, "pairs-bound dop={}", dop);
            }
            Ok(())
        }
        check(nfa, &rev, &csr, &pool)?;
        check(nfa, &rev, &dg, &pool)?;
    }

    /// The CRPQ executor handed a worker grant returns exactly the
    /// sequential executor's bindings — free
    /// heads and restricted heads, planned order and reversed order.
    #[test]
    fn parallel_crpq_executor_agrees_with_sequential(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, _) = random_graph(&mut rng, 30, 90, &syms);
        let cfg = RegexGenConfig::new(syms);
        let atoms = 2 + (seed as usize % 2);
        let crpq_atoms: Vec<rpq::optimizer::CrpqAtom> = (0..atoms)
            .map(|i| rpq::optimizer::CrpqAtom {
                query: Query::new(random_regex(&mut rng, &cfg), &ab),
                src: rpq::optimizer::Var(i as u32),
                dst: rpq::optimizer::Var(i as u32 + 1),
            })
            .collect();
        let crpq = rpq::optimizer::Crpq {
            atoms: crpq_atoms,
            head: (rpq::optimizer::Var(0), rpq::optimizer::Var(atoms as u32)),
            var_names: (0..=atoms).map(|i| format!("x{i}")).collect(),
        };
        let graph = CsrGraph::from(&inst);
        let pool = ScratchPool::with_capacity(8);
        let sources: Vec<Oid> = graph.nodes().step_by(3).collect();
        let head_shapes = [
            HeadBindings::default(),
            HeadBindings { sources: Some(&sources), targets: None },
        ];
        let mut orders = vec![plan_join(&crpq, graph.stats(), &PlannerConfig::default(), false, false).order];
        orders.push((0..crpq.atoms.len()).rev().collect());
        for heads in head_shapes {
            for order in &orders {
                let mut seq = EvalScratch::new();
                let expected = execute_join(
                    &crpq, order, &graph, heads, FrontierMode::Hybrid,
                    &EvalControl::UNLIMITED, &mut seq,
                );
                prop_assert!(expected.termination.is_complete());
                for dop in DOPS {
                    let mut scratch = EvalScratch::new();
                    let res = execute_join_parallel(
                        &crpq, order, &graph, heads, FrontierMode::Hybrid,
                        &EvalControl::UNLIMITED, dop, &pool, &mut scratch,
                    );
                    prop_assert_eq!(&res.pairs, &expected.pairs, "order {:?} dop={}", order, dop);
                    prop_assert!(res.termination.is_complete());
                    prop_assert_eq!(res.stats.atoms.len(), crpq.atoms.len());
                }
            }
        }
    }

    /// Budget soundness under parallelism: for every budget, the parallel
    /// kernel returns a subset of the exhaustive answers, never scans more
    /// than the budget, and a `Complete` termination means the subset is
    /// exact. The per-worker budget leases must never over-scan.
    #[test]
    fn parallel_budget_is_a_sound_subset(seed in 0u64..10_000) {
        let budget = (seed as usize).wrapping_mul(31) % 64;
        let (ab, inst, src, q) = random_setup(seed, 40, 160);
        let query = Query::new(q, &ab);
        let nfa = query.nfa();
        let graph = CsrGraph::from(&inst);
        let pool = ScratchPool::with_capacity(8);

        let mut seq = EvalScratch::new();
        let full = search_nodes(nfa, &graph, src, &SearchOpts::default(), &mut seq).0;
        let control = EvalControl { budget: Some(budget), cancel: None };
        for dop in DOPS {
            for mode in MODES {
                let mut scratch = EvalScratch::new();
                let opts = SearchOpts { mode, control, dop, pool: Some(&pool), ..SearchOpts::default() };
                let (res, term) = search_nodes(nfa, &graph, src, &opts, &mut scratch);
                prop_assert!(
                    res.stats.edges_scanned <= budget,
                    "scanned {} > budget {} ({:?} dop={})",
                    res.stats.edges_scanned, budget, mode, dop
                );
                for o in &res.answers {
                    prop_assert!(
                        full.answers.binary_search(o).is_ok(),
                        "unsound answer {:?} under budget ({:?} dop={})", o, mode, dop
                    );
                }
                if term == Termination::Complete {
                    prop_assert_eq!(&res.answers, &full.answers, "{:?} dop={}", mode, dop);
                } else {
                    prop_assert_eq!(term, Termination::BudgetExhausted);
                }
            }
        }
    }

    /// A cancellation raised before the search starts stops the parallel
    /// kernel at a level boundary with a sound (possibly empty) subset.
    #[test]
    fn parallel_cancel_is_a_sound_subset(seed in 0u64..10_000) {
        let (ab, inst, src, q) = random_setup(seed, 40, 160);
        let query = Query::new(q, &ab);
        let nfa = query.nfa();
        let graph = CsrGraph::from(&inst);
        let pool = ScratchPool::with_capacity(8);
        let mut seq = EvalScratch::new();
        let full = search_nodes(nfa, &graph, src, &SearchOpts::default(), &mut seq).0;
        let flag = AtomicBool::new(true);
        let control = EvalControl { budget: None, cancel: Some(&flag) };
        for dop in DOPS {
            let mut scratch = EvalScratch::new();
            let opts = SearchOpts { control, dop, pool: Some(&pool), ..SearchOpts::default() };
            let (res, term) = search_nodes(nfa, &graph, src, &opts, &mut scratch);
            for o in &res.answers {
                prop_assert!(full.answers.binary_search(o).is_ok(), "unsound after cancel");
            }
            // a search that finishes before its first level boundary may
            // complete; anything longer must observe the flag
            match term {
                Termination::Cancelled => {}
                Termination::Complete => prop_assert_eq!(&res.answers, &full.answers),
                other => prop_assert!(false, "unexpected termination {:?} at dop={}", other, dop),
            }
        }
    }
}

/// Sorted parallel outputs are deterministic: repeated runs at the same
/// DoP return bit-for-bit identical answers *and* identical work counters
/// (set-identical levels price identically, so `edges_scanned` is stable
/// without any budget in play).
#[test]
fn parallel_outputs_are_deterministic_across_runs() {
    let (ab, inst, src, q) = random_setup(42, 150, 600);
    let query = Query::new(q, &ab);
    let nfa = query.nfa();
    let graph = CsrGraph::from(&inst);
    let pool = ScratchPool::with_capacity(8);
    let sources: Vec<Oid> = graph.nodes().collect();

    let opts = SearchOpts {
        dop: 4,
        pool: Some(&pool),
        ..SearchOpts::default()
    };
    let mut scratch = EvalScratch::new();
    let (first, _) = search_nodes(nfa, &graph, src, &opts, &mut scratch);
    let rev = nfa.reverse();
    let spec = SourceSpec::Sources(sources);
    let batch =
        |s: &mut EvalScratch| run_request(nfa, &rev, &graph, &spec, Direction::Forward, &opts, s);
    let first_batch = batch(&mut scratch);
    for run in 0..5 {
        let mut scratch = EvalScratch::new();
        let (res, term) = search_nodes(nfa, &graph, src, &opts, &mut scratch);
        assert_eq!(res.answers, first.answers, "answers drifted on run {run}");
        assert_eq!(
            res.stats.edges_scanned, first.stats.edges_scanned,
            "work counter drifted on run {run}"
        );
        assert_eq!(term, Termination::Complete);
        assert_eq!(
            batch(&mut scratch).batch(),
            first_batch.batch(),
            "batch output drifted on run {run}"
        );
    }
}

/// One pooled arena across parallel and sequential searches of different
/// automaton sizes: parallel small-|Q| (twice, so the marks carry two
/// generations) → sequential larger-|Q| (the arena regrows and its
/// generation counter restarts) → the first query again in parallel.
/// The arena has exactly one mark table, regrown with the rest, so the
/// last search must see no stale mark: answers and `edges_scanned` equal
/// a fresh-arena run. (With a second, separately grown table for parallel
/// searches, the restarted counter collided with the old stamps and the
/// last search returned 0 of 400 answers.)
#[test]
fn marks_survive_a_regrow_between_parallel_searches() {
    let mut ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let n = 400u32;
    let mut inst = Instance::new();
    for _ in 0..n {
        inst.add_node();
    }
    for i in 0..n {
        inst.add_edge(Oid(i), syms[0], Oid((i * 7 + 1) % n));
        inst.add_edge(Oid(i), syms[1], Oid((i * 13 + 5) % n));
        if i % 3 == 0 {
            inst.add_edge(Oid(i), syms[2], Oid((i * 31 + 2) % n));
        }
    }
    let graph = CsrGraph::from(&inst);
    let small = Query::parse(&mut ab, "(a+b+c)*").unwrap();
    let large = Query::parse(&mut ab, "(a.b.c.a.b.c+a+b+c)*").unwrap();
    assert!(large.nfa().num_states() > small.nfa().num_states());

    let pool = ScratchPool::with_capacity(8);
    let parallel = SearchOpts {
        dop: 2,
        pool: Some(&pool),
        ..SearchOpts::default()
    };
    let sequential = SearchOpts::default();
    let fresh = search_nodes(
        small.nfa(),
        &graph,
        Oid(0),
        &parallel,
        &mut EvalScratch::new(),
    )
    .0;
    assert_eq!(fresh.answers.len(), 400);

    let mut arena = EvalScratch::new();
    let steps = [
        (&small, &parallel),
        (&small, &parallel),
        (&large, &sequential),
        (&small, &parallel),
    ];
    for (step, (query, opts)) in steps.into_iter().enumerate() {
        let (res, term) = search_nodes(query.nfa(), &graph, Oid(0), opts, &mut arena);
        assert_eq!(term, Termination::Complete);
        assert_eq!(res.answers, fresh.answers, "answers at step {step}");
        if std::ptr::eq(query, &small) {
            assert_eq!(
                res.stats.edges_scanned, fresh.stats.edges_scanned,
                "edges_scanned at step {step}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The general form of the regression above: any sequence of searches
    /// — automaton size, graph size, degree of parallelism, frontier mode
    /// and direction all varying from one to the next — may share one
    /// arena. Each answer set equals a fresh-arena run and contains the
    /// definitional oracle's (equals it where the oracle's word bound is
    /// authoritative).
    #[test]
    fn any_search_sequence_may_share_one_arena(seed in 0u64..10_000) {
        use rand::Rng;
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = ScratchPool::with_capacity(8);
        let mut arena = EvalScratch::new();
        for step in 0..10 {
            let nodes = rng.random_range(3..9usize);
            let (inst, _) = random_graph(&mut rng, nodes, nodes * 2, &syms);
            let graph = CsrGraph::from(&inst);
            let cfg = RegexGenConfig {
                max_depth: rng.random_range(1..5usize),
                ..RegexGenConfig::new(syms.clone())
            };
            let nfa = Query::new(random_regex(&mut rng, &cfg), &ab).nfa().clone();
            let seed_node = Oid(rng.random_range(0..nodes) as u32);
            let backward = rng.random_range(0..2) == 1;
            let opts = SearchOpts {
                reverse_adj: backward,
                mode: MODES[rng.random_range(0..MODES.len())],
                dop: DOPS[rng.random_range(0..DOPS.len())],
                pool: Some(&pool),
                ..SearchOpts::default()
            };
            let auto = if backward { nfa.reverse() } else { nfa.clone() };
            let shared = search_nodes(&auto, &graph, seed_node, &opts, &mut arena).0;
            let fresh = search_nodes(&auto, &graph, seed_node, &opts, &mut EvalScratch::new()).0;
            prop_assert_eq!(&shared.answers, &fresh.answers, "step {} {:?}", step, opts);
            prop_assert_eq!(shared.stats.edges_scanned, fresh.stats.edges_scanned);

            // p(o, I) by definition; backward, every o whose set holds the seed
            let oracle: Vec<Oid> = if backward {
                graph
                    .nodes()
                    .filter(|&o| eval_oracle(&nfa, &inst, o, Some(8)).contains(&seed_node))
                    .collect()
            } else {
                eval_oracle(&nfa, &inst, seed_node, Some(8))
            };
            for o in &oracle {
                prop_assert!(shared.answers.binary_search(o).is_ok(), "step {} lost {:?}", step, o);
            }
            if nfa.num_states() * nodes <= 8 {
                prop_assert_eq!(&shared.answers, &oracle, "step {}", step);
            }
        }
    }
}
