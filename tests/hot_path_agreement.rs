//! Hot-path agreement: the label-indexed product BFS, one push sweep per
//! level, is an *optimization*, never a semantics change. Its answer sets —
//! forward and backward, on the immutable `CsrGraph` snapshot and on a
//! post-delta `DeltaGraph` epoch — must agree with every evaluation engine
//! of Section 2. The pooled [`rpq::core::EvalScratch`] reuse is also pinned
//! here: warm evaluations report `scratch_reused` and allocate no frontier
//! memory, across interleaved queries of different `|Q|·|V|` shapes. And a
//! control that never binds is not a semantics change either: every request
//! shape through every serving entry point returns the same answers *and
//! the same work counters* with no control, an unraised cancellation flag,
//! or a budget that is never reached.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{Alphabet, Nfa, Symbol};
use rpq::core::{
    eval_product_csr, search_nodes, Answers, Engine, EvalControl, EvalRequest, EvalResponse,
    EvalScratch, EvalStats, ProductEngine, Query, ScratchPool, SearchOpts, SourceSpec, Termination,
};
use rpq::graph::{CsrGraph, DeltaGraph, GraphView, Instance, Oid};
use rpq::optimizer::{execute_join, parse_crpq, plan_join, HeadBindings, PlannedEngine};
use rpq::server::{Catalog, Server, ServerConfig};
use rpq_testkit::draw::{nine_engines, random_setup};
use rpq_testkit::generators::random_graph;

/// `p(source, I)` by the product search over `graph`, in a fresh arena.
fn forward<G: GraphView>(nfa: &Nfa, graph: &G, source: Oid) -> Vec<Oid> {
    let opts = SearchOpts::default();
    search_nodes(nfa, graph, source, &opts, &mut EvalScratch::new())
        .0
        .answers
}

/// `{o | target ∈ p(o, I)}` by the backward product search (`reversed` is
/// the already-reversed NFA).
fn backward<G: GraphView>(reversed: &Nfa, graph: &G, target: Oid) -> Vec<Oid> {
    let opts = SearchOpts {
        reverse_adj: true,
        ..SearchOpts::default()
    };
    search_nodes(reversed, graph, target, &opts, &mut EvalScratch::new())
        .0
        .answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The product search answers like all nine engines forward, and its
    /// backward form like the transposed forward sets — on the `CsrGraph`
    /// snapshot *and* on a post-delta `DeltaGraph` epoch.
    #[test]
    fn the_product_search_agrees_with_all_engines(seed in 0u64..10_000) {
        let (ab, inst, src, q) = random_setup(seed, 6, 12, 4);
        let graph = CsrGraph::from(&inst);
        let query = Query::new(q.clone(), &ab);
        let nfa = query.nfa();
        let rev = nfa.reverse();

        // forward, anchored on the nine-engine set
        let expected = forward(nfa, &graph, src);
        for engine in nine_engines() {
            let got = engine.eval(&query, &graph, src).answers;
            if engine.name() == "oracle" {
                for o in &got {
                    prop_assert!(expected.binary_search(o).is_ok(), "oracle non-answer");
                }
            } else {
                prop_assert_eq!(&got, &expected, "{} vs the product search", engine.name());
            }
        }

        // backward, against the forward sets and the engine's own
        // target-bound request
        let nodes: Vec<Oid> = graph.nodes().collect();
        for &t in &nodes {
            let back = backward(&rev, &graph, t);
            prop_assert_eq!(&back, &sources_reaching(nfa, &graph, &nodes, t), "backward {:?}", t);
            let to = ProductEngine.run(&query, &graph, &EvalRequest::target(t));
            prop_assert_eq!(Some(&back[..]), to.nodes(), "target request {:?}", t);
        }

        // post-delta epoch: mutate the view, both directions track the
        // overlay
        let mut dg = DeltaGraph::from_instance(&inst);
        let syms: Vec<Symbol> = ab.symbols().collect();
        dg.add_edge(nodes[seed as usize % nodes.len()], syms[0], nodes[0]);
        dg.add_edge(nodes[0], syms[seed as usize % syms.len()], nodes[nodes.len() - 1]);
        for &s in &nodes {
            let fwd = forward(nfa, &dg, s);
            prop_assert_eq!(&fwd, &eval_product_csr(nfa, &dg, s).answers, "delta fwd {:?}", s);
            let back = backward(&rev, &dg, s);
            prop_assert_eq!(&back, &sources_reaching(nfa, &dg, &nodes, s), "delta bwd {:?}", s);
        }
    }
}

/// `{o | target ∈ p(o, I)}` read off the forward answer sets — the
/// direction-independent reference for the backward searches.
fn sources_reaching<G: GraphView>(nfa: &Nfa, graph: &G, nodes: &[Oid], target: Oid) -> Vec<Oid> {
    let reaches = |s: &Oid| {
        let forward = eval_product_csr(nfa, graph, *s).answers;
        forward.binary_search(&target).is_ok()
    };
    nodes.iter().copied().filter(reaches).collect()
}

/// Pooled scratch reuse across interleaved query shapes: a warm
/// [`EvalScratch`] whose tables already cover `|Q|·|V|` reports
/// `scratch_reused = 1` and returns the same answers; growing to a larger
/// shape is a (correct) cold pass; shrinking back is warm again. The
/// [`ScratchPool`] counters track checkout reuse independently.
#[test]
fn scratch_pool_reuse_across_interleaved_shapes() {
    let (ab_s, inst_s, src_s, q_s) = random_setup(11, 8, 20, 4);
    let (ab_l, inst_l, src_l, q_l) = random_setup(23, 60, 240, 4);
    let small = (CsrGraph::from(&inst_s), Nfa::thompson(&q_s), src_s);
    let large = (CsrGraph::from(&inst_l), Nfa::thompson(&q_l), src_l);
    drop((ab_s, ab_l));

    let pool = ScratchPool::new();
    // shape schedule: small (cold) → large (grow) → small (warm) → large
    // (warm) → small (warm); reuse is capacity-driven, not query-driven
    let schedule = [
        (&small, false),
        (&large, false),
        (&small, true),
        (&large, true),
        (&small, true),
    ];
    for (i, ((graph, nfa, src), expect_warm)) in schedule.iter().enumerate() {
        let mut scratch = pool.checkout();
        let res = search_nodes(nfa, graph, *src, &SearchOpts::default(), &mut scratch).0;
        assert_eq!(
            res.answers,
            eval_product_csr(nfa, graph, *src).answers,
            "pooled answers diverge at step {i}"
        );
        let warm = res.stats.scratch_reused > 0;
        assert_eq!(warm, *expect_warm, "step {i}: warm={warm}");
        drop(scratch);
    }
    // one scratch allocated on the first checkout, reused ever after
    assert_eq!(pool.allocs(), 1, "pool allocated more than once");
    assert_eq!(pool.reuses(), schedule.len() - 1);
    assert_eq!(pool.idle(), 1);
}

/// The serving engine's built-in pool warms up: repeated queries through a
/// `PlannedEngine` hit the pool after the first evaluation, single-source
/// and batched alike, with answers unchanged.
#[test]
fn serving_engines_reuse_their_pools() {
    let (ab, inst, src, q) = random_setup(7, 40, 160, 4);
    let graph = CsrGraph::from(&inst);
    let query = Query::new(q, &ab);

    let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
    let first = planned.eval(&query, &graph, src).answers;
    for _ in 0..3 {
        assert_eq!(planned.eval(&query, &graph, src).answers, first);
    }
    assert_eq!(planned.scratch_pool().allocs(), 1);
    assert!(
        planned.scratch_pool().reuses() >= 3,
        "planned pool never warmed"
    );

    let warm = planned.scratch_pool().reuses();
    let sources: Vec<Oid> = graph.nodes().take(10).collect();
    let from_all = EvalRequest::sources(sources.clone());
    let b1 = planned.run(&query, &graph, &from_all);
    let b2 = planned.run(&query, &graph, &from_all);
    assert_eq!(b1.batch(), b2.batch());
    let to_all = EvalRequest::targets(sources);
    let t1 = planned.run(&query, &graph, &to_all);
    let t2 = planned.run(&query, &graph, &to_all);
    assert_eq!(t1.batch(), t2.batch());
    assert!(
        planned.scratch_pool().reuses() > warm,
        "batched requests never drew from the pool"
    );
}

/// What a request observably did: its answers, how it ended, and the work
/// counters a control must not move.
type Outcome = (String, Termination, [usize; 5]);

/// One way of running a request.
type Runner<'a> = &'a dyn Fn(&EvalRequest) -> EvalResponse;

fn outcome(answers: String, termination: Termination, s: &EvalStats) -> Outcome {
    let counters = [
        s.edges_scanned,
        s.pairs_visited,
        s.push_levels,
        s.frontier_peak,
        s.rows_resolved,
    ];
    (answers, termination, counters)
}

fn response_outcome(resp: &EvalResponse) -> Outcome {
    let answers = match &resp.answers {
        Answers::Nodes(ns) => format!("{ns:?}"),
        Answers::Batch(b) => format!("{:?}", b.per_source()),
        Answers::Reachable(r) => format!("{r}"),
        Answers::Matrix(m) => {
            let cell = |i, j| if m.reachable(i, j) { '1' } else { '0' };
            let row = |i| {
                (0..m.targets().len())
                    .map(|j| cell(i, j))
                    .collect::<String>()
            };
            (0..m.sources().len())
                .map(row)
                .collect::<Vec<_>>()
                .join("/")
        }
        Answers::Bindings(bs) => format!("{bs:?}"),
    };
    outcome(answers, resp.termination, &resp.stats)
}

/// A graph whose searches share suffixes: a seeded random core, sixteen
/// entry nodes funnelling into core node 0, and a twelve-node tail chain
/// hanging off core node 1 — many seeds, one shared continuation.
fn funnel_setup(seed: u64) -> (Alphabet, Instance, Vec<Oid>) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut inst, _) = random_graph(&mut rng, 20, 50, &syms);
    let entries: Vec<Oid> = (0..16).map(|_| inst.add_node()).collect();
    for (i, &e) in entries.iter().enumerate() {
        inst.add_edge(e, syms[i % 2], Oid(0));
    }
    let mut prev = Oid(1);
    for i in 0..12 {
        let next = inst.add_node();
        inst.add_edge(prev, syms[i % 3], next);
        prev = next;
    }
    (ab, inst, entries)
}

/// Every `SourceSpec` shape: the funnel entries as sources, the tail and
/// part of the core as targets.
fn all_shapes(n: usize, entries: &[Oid]) -> Vec<SourceSpec> {
    let targets: Vec<Oid> = (0..n as u32).step_by(3).map(Oid).collect();
    let few: Vec<Oid> = entries.iter().copied().take(5).collect();
    let conj = |sources: Option<&[Oid]>, targets: Option<&[Oid]>| SourceSpec::Conjunctive {
        sources: sources.map(<[Oid]>::to_vec),
        targets: targets.map(<[Oid]>::to_vec),
    };
    vec![
        SourceSpec::Source(entries[0]),
        SourceSpec::Target(Oid(n as u32 - 1)),
        SourceSpec::Sources(entries.to_vec()),
        SourceSpec::Targets(targets.clone()),
        SourceSpec::Pair {
            source: entries[1],
            target: Oid(n as u32 - 1),
        },
        SourceSpec::Matrix {
            sources: few.clone(),
            targets: targets.clone(),
        },
        conj(Some(entries), None),
        conj(None, Some(&targets)),
        conj(Some(&few), Some(&targets)),
        conj(None, None),
    ]
}

const NEVER_BINDS: usize = usize::MAX >> 2;

/// An unraised cancellation flag changes nothing, and neither does a
/// budget that never binds: on graphs where seeds share suffixes, every
/// request shape returns the same answers, `Complete`, and
/// the same work counters with and without the control — through
/// `PlannedEngine::run_view`, `ProductEngine::run`, `execute_join`, and
/// `Session::run` against `Session::submit(..).join()` (which attaches a
/// flag to everything).
#[test]
fn an_unraised_control_changes_nothing() {
    for seed in [3u64, 17] {
        let (ab, inst, entries) = funnel_setup(seed);
        let csr = CsrGraph::from(&inst);
        let shapes = all_shapes(csr.num_nodes(), &entries);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let server = Server::new(Arc::new(Catalog::from_instance(&inst)), ab.clone()).with_config(
            ServerConfig {
                max_concurrent: 4,
                default_budget: None,
                parallelism: 2,
            },
        );
        let session = server.session();
        for qs in ["a*", "(a+b)*.c", "a.(a+b).(b+c)", "(a.b+c)*", "(a+b+c)*"] {
            let query = Query::parse(&mut ab.clone(), qs).unwrap();
            for spec in &shapes {
                let free = EvalRequest::new(spec.clone());
                let flagged = free.clone().with_cancel(Arc::new(AtomicBool::new(false)));
                let budgeted = free.clone().with_budget(NEVER_BINDS);
                let what = format!("seed {seed} [{qs}] {spec:?}");
                let runners: [(&str, Runner<'_>); 3] = [
                    ("planned", &|r| planned.run_view(&query, &csr, r)),
                    ("product", &|r| ProductEngine.run(&query, &csr, r)),
                    ("session", &|r| session.run(&query, r)),
                ];
                for (name, run) in runners {
                    let base = response_outcome(&run(&free));
                    assert_eq!(base.1, Termination::Complete, "{name} {what}");
                    assert_eq!(response_outcome(&run(&flagged)), base, "{name} flag {what}");
                    assert_eq!(
                        response_outcome(&run(&budgeted)),
                        base,
                        "{name} budget {what}"
                    );
                }
                let submitted = session.submit(&query, free.clone()).unwrap().join();
                assert_eq!(
                    response_outcome(&submitted),
                    response_outcome(&session.run(&query, &free)),
                    "submit vs run {what}"
                );
            }
        }

        // The join executor takes its controls directly.
        let few: Vec<Oid> = entries.iter().copied().take(5).collect();
        let heads = [
            HeadBindings::default(),
            HeadBindings {
                sources: Some(&entries),
                targets: None,
            },
            HeadBindings {
                sources: Some(&few),
                targets: Some(&few),
            },
        ];
        for text in [
            "ans(x, z) :- x -[a+b]-> y, y -[(a+b)*]-> z",
            "ans(x, w) :- x -[(a+b)*]-> y, y -[c]-> z, z -[a+b]-> w",
        ] {
            let crpq = parse_crpq(&mut ab.clone(), text).unwrap();
            for head in &heads {
                let (src, dst) = (head.sources.is_some(), head.targets.is_some());
                let config = planned.config();
                let plan = plan_join(&crpq, csr.stats(), config, src, dst);
                let run = |control: EvalControl<'_>| {
                    let res =
                        execute_join(&crpq, &plan, &csr, *head, &control, &mut EvalScratch::new());
                    outcome(format!("{:?}", res.pairs), res.termination, &res.stats)
                };
                let base = run(EvalControl::UNLIMITED);
                assert_eq!(base.1, Termination::Complete);
                let flag = AtomicBool::new(false);
                let flagged = EvalControl {
                    budget: None,
                    cancel: Some(&flag),
                };
                let budgeted = EvalControl {
                    budget: Some(NEVER_BINDS),
                    cancel: None,
                };
                assert_eq!(run(flagged), base, "join flag [{text}]");
                assert_eq!(run(budgeted), base, "join budget [{text}]");
            }
        }
    }
}
