//! Cross-engine agreement: every evaluation strategy of Section 2 computes
//! the same `p(o, I)` — the product-automaton BFS, the two quotient
//! engines, both Datalog translations (naive and semi-naive), and the
//! definitional word-enumeration oracle. Property-tested over random
//! graphs and random regexes, and exercised through the unified
//! `rpq::core::Engine` trait over the label-indexed `CsrGraph` snapshot.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{Alphabet, Nfa, Regex, Symbol};
use rpq::core::{
    eval_oracle, eval_product, search_nodes, Answers, Engine, EvalRequest, EvalScratch,
    ProductEngine, Query, SearchOpts, SourceSpec, Termination,
};
use rpq::datalog::engine::{eval_naive, eval_seminaive};
use rpq::datalog::translate::{load_instance, translate_quotient, translate_states};
use rpq::datalog::{DatalogMagicEngine, DatalogNaiveEngine, DatalogSeminaiveEngine};
use rpq::distributed::SimulatorEngine;
use rpq::graph::{CsrGraph, Oid};
use rpq::paper::{
    eval_derivative_csr, eval_quotient_dfa_csr, DerivativeEngine, QuotientDfaEngine,
    StreamingEngine,
};
use rpq_testkit::draw::{nine_engines, random_setup};
use rpq_testkit::generators::random_graph;
use rpq_testkit::random::{random_regex, RegexGenConfig};

fn alphabet3() -> (Alphabet, Vec<Symbol>) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms = ab.symbols().collect();
    (ab, syms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_engines_agree_on_random_inputs(seed in 0u64..10_000) {
        let (ab, inst, src, q) = random_setup(seed, 6, 12, 4);
        let nfa = Nfa::thompson(&q);

        let product = eval_product(&nfa, &inst, src).answers;
        let csr = CsrGraph::from(&inst);
        let quotient = eval_quotient_dfa_csr(&nfa, &csr, src).answers;
        let derivative = eval_derivative_csr(&q, &csr, src).answers;
        prop_assert_eq!(&product, &quotient, "product vs quotient");
        prop_assert_eq!(&product, &derivative, "product vs derivative");

        // Datalog, both translations, both engines.
        let tq = translate_quotient(&q, &ab).unwrap();
        prop_assert!(tq.program.is_linear() && tq.program.is_monadic());
        let mut db1 = load_instance(&tq, &inst, src);
        eval_naive(&tq.program, &mut db1);
        let mut naive: Vec<Oid> = db1
            .relation(tq.answer_pred)
            .iter()
            .map(|t| Oid(t[0] as u32))
            .collect();
        naive.sort();
        prop_assert_eq!(&product, &naive, "product vs datalog-naive");

        let ts = translate_states(&nfa);
        prop_assert!(ts.program.is_linear() && ts.program.is_monadic());
        let mut db2 = load_instance(&ts, &inst, src);
        eval_seminaive(&ts.program, &mut db2);
        let mut semi: Vec<Oid> = db2
            .relation(ts.answer_pred)
            .iter()
            .map(|t| Oid(t[0] as u32))
            .collect();
        semi.sort();
        prop_assert_eq!(&product, &semi, "product vs datalog-seminaive (states)");

        // The magic-sets rewriting of the quotient program agrees too.
        let db3 = load_instance(&tq, &inst, src);
        let (magic_answers, _) = rpq::datalog::eval_magic(
            &tq.program,
            &db3,
            &rpq::datalog::MagicQuery {
                pred: tq.answer_pred,
                pattern: vec![None],
            },
        );
        let mut magic: Vec<Oid> = magic_answers.iter().map(|t| Oid(t[0] as u32)).collect();
        magic.sort();
        prop_assert_eq!(&product, &magic, "product vs datalog-magic");
    }

    #[test]
    fn engines_match_definitional_oracle(seed in 0u64..10_000) {
        // tiny inputs only: the oracle is exponential
        let (_, inst, src, q) = random_setup(seed, 4, 7, 4);
        let nfa = Nfa::thompson(&q);
        let oracle = eval_oracle(&nfa, &inst, src, Some(10));
        let product = eval_product(&nfa, &inst, src).answers;
        // the oracle bound (10) exceeds |Q|·|V| only sometimes; restrict to
        // cases where it is authoritative
        if nfa.num_states() * inst.num_nodes() <= 10 {
            prop_assert_eq!(product, oracle);
        } else {
            // oracle answers are always a subset
            for o in &oracle {
                prop_assert!(product.binary_search(o).is_ok());
            }
        }
    }

    #[test]
    fn membership_agreement_regex_vs_nfa_vs_dfa(seed in 0u64..10_000) {
        let (ab, syms) = alphabet3();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RegexGenConfig::new(syms.clone());
        let q = random_regex(&mut rng, &cfg);
        let nfa = Nfa::thompson(&q);
        let dfa = rpq::automata::Dfa::from_nfa(&nfa, ab.len());
        // exhaustive words up to length 4
        let mut words: Vec<Vec<Symbol>> = vec![vec![]];
        let mut layer: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &layer {
                for &s in &syms {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            words.extend(next.iter().cloned());
            layer = next;
        }
        for w in &words {
            let by_derivative = rpq::paper::derivative::accepts(&q, w);
            prop_assert_eq!(by_derivative, nfa.accepts(w));
            prop_assert_eq!(by_derivative, dfa.accepts(w));
        }
    }
}

/// Workspace-wiring smoke test: the Figure 2 graph and Figure 3 query from
/// the facade docs (`a.b*` asked at `o1`) evaluate to exactly `{o2, o3}`
/// through every engine the workspace re-exports — centralized product /
/// quotient-DFA / derivative, both Datalog translations, the definitional
/// oracle, the streaming evaluator, and the deterministic distributed
/// simulator.
#[test]
fn figure2_query_answers_o2_o3_via_all_engines() {
    use rpq::distributed::{Delivery, Simulator};
    use rpq_testkit::generators::fig2_graph;

    let mut ab = Alphabet::new();
    let (inst, _d, o1) = fig2_graph(&mut ab);
    let q = rpq::automata::parse_regex(&mut ab, "a.b*").unwrap();
    let nfa = Nfa::thompson(&q);

    let o2 = inst.node_by_name("o2").unwrap();
    let o3 = inst.node_by_name("o3").unwrap();
    let mut expected = vec![o2, o3];
    expected.sort();

    assert_eq!(eval_product(&nfa, &inst, o1).answers, expected, "product");
    let csr = CsrGraph::from(&inst);
    assert_eq!(
        eval_quotient_dfa_csr(&nfa, &csr, o1).answers,
        expected,
        "quotient dfa"
    );
    assert_eq!(
        eval_derivative_csr(&q, &csr, o1).answers,
        expected,
        "derivative"
    );
    assert_eq!(eval_oracle(&nfa, &inst, o1, Some(8)), expected, "oracle");

    let tq = translate_quotient(&q, &ab).unwrap();
    let mut db = load_instance(&tq, &inst, o1);
    eval_naive(&tq.program, &mut db);
    let mut naive: Vec<Oid> = db
        .relation(tq.answer_pred)
        .iter()
        .map(|t| Oid(t[0] as u32))
        .collect();
    naive.sort();
    assert_eq!(naive, expected, "datalog naive");

    let ts = translate_states(&nfa);
    let mut db = load_instance(&ts, &inst, o1);
    eval_seminaive(&ts.program, &mut db);
    let mut semi: Vec<Oid> = db
        .relation(ts.answer_pred)
        .iter()
        .map(|t| Oid(t[0] as u32))
        .collect();
    semi.sort();
    assert_eq!(semi, expected, "datalog seminaive");

    let mut stream = rpq::paper::StreamingEval::new(&nfa, &inst, o1.index() as u64, 10_000);
    let mut streamed: Vec<Oid> = stream
        .collect_all()
        .into_iter()
        .map(|n| Oid(n as u32))
        .collect();
    streamed.sort();
    assert_eq!(streamed, expected, "streaming");

    let sim = Simulator::new(&inst, &ab, Delivery::Fifo).run(o1, &q);
    assert_eq!(sim.answers, expected, "distributed simulator");
}

/// The agreement suite through the unified `Engine` calling convention,
/// over larger random graphs (50 nodes / 200 edges) than the per-function
/// proptests above. The oracle is exponential, so it only *asserts* (as a
/// subset check) rather than anchoring equality on these sizes.
#[test]
fn engine_trait_agreement_on_larger_random_graphs() {
    for seed in [3u64, 17, 55, 120, 9001] {
        let (ab, inst, src, q) = random_setup(seed, 50, 200, 4);
        let graph = CsrGraph::from(&inst);
        assert_eq!(graph.num_nodes(), 50);
        let query = Query::new(q, &ab);
        let expected = ProductEngine.eval(&query, &graph, src).answers;
        for engine in nine_engines() {
            let got = engine.eval(&query, &graph, src);
            assert_eq!(got.stats.answers, got.answers.len(), "{}", engine.name());
            if engine.name() == "oracle" {
                // bounded enumeration: sound but possibly incomplete here
                for o in &got.answers {
                    assert!(
                        expected.binary_search(o).is_ok(),
                        "oracle produced a non-answer on seed {seed}"
                    );
                }
            } else {
                assert_eq!(got.answers, expected, "{} on seed {seed}", engine.name());
            }
        }
    }
}

/// All ten `Engine` impls of the workspace: the nine above and the
/// planner.
fn ten_engines(ab: &Alphabet) -> Vec<Box<dyn Engine>> {
    let mut engines = nine_engines();
    engines.push(Box::new(rpq::optimizer::PlannedEngine::unconstrained(
        ProductEngine,
        ab.clone(),
    )));
    engines
}

/// One calling convention: every engine answers every request shape
/// through `run` exactly like `ProductEngine::run` — payload for payload
/// (a union-only batch strategy is held to the union; the bounded oracle,
/// where its own enumeration answers, to a subset).
#[test]
fn all_ten_engines_answer_every_request_shape_like_the_product_engine() {
    for seed in [5u64, 23, 77, 4242] {
        let (ab, inst, src, q) = random_setup(seed, 6, 12, 4);
        let graph = CsrGraph::from(&inst);
        let query = Query::new(q, &ab);
        let all: Vec<Oid> = graph.nodes().collect();
        let t = all[all.len() - 1];
        let shapes = [
            EvalRequest::source(src),
            EvalRequest::sources(all.clone()),
            EvalRequest::target(t),
            EvalRequest::targets(all.clone()),
            EvalRequest::pair(src, t),
            EvalRequest::matrix(all.clone(), all.clone()),
            EvalRequest::conjunctive(Some(all.clone()), None),
            EvalRequest::conjunctive(None, None),
        ];
        let engines = ten_engines(&ab);
        assert_eq!(engines.len(), 10);
        for req in &shapes {
            let want = ProductEngine.run(&query, &graph, req);
            for engine in &engines {
                let got = engine.run(&query, &graph, req);
                let ctx = format!("{} on {:?} (seed {seed})", engine.name(), req.spec);
                assert_eq!(got.termination, Termination::Complete, "{ctx}");
                let own_strategy =
                    matches!(req.spec, SourceSpec::Source(_) | SourceSpec::Sources(_));
                if engine.name() == "oracle" && own_strategy {
                    let (got, want) = (got.into_eval_result(), want.clone().into_eval_result());
                    for o in &got.answers {
                        assert!(want.answers.binary_search(o).is_ok(), "{ctx}");
                    }
                    continue;
                }
                match (&got.answers, &want.answers) {
                    (Answers::Batch(g), Answers::Batch(w)) if g.per_source().is_none() => {
                        assert_eq!(g.union(), w.union(), "{ctx}")
                    }
                    (g, w) => assert_eq!(g, w, "{ctx}"),
                }
            }
        }
    }
}

/// Engines with a real `Sources` strategy (the product request executor,
/// multi-seeded semi-naive Datalog) plus
/// representatives of the default loop-over-`eval` path. Batched and
/// default paths must agree with the per-source map / union of `eval`.
fn batch_engines() -> Vec<Box<dyn Engine>> {
    vec![
        // real overrides
        Box::new(ProductEngine),
        Box::new(QuotientDfaEngine),
        Box::new(DatalogSeminaiveEngine),
        // default-impl paths
        Box::new(DerivativeEngine),
        Box::new(StreamingEngine::default()),
        Box::new(DatalogNaiveEngine),
        Box::new(DatalogMagicEngine),
        Box::new(SimulatorEngine::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A `Sources` request over a random source set equals the per-source
    /// map of `eval` (for engines that report one) and the union of `eval`
    /// (for all engines), with stats aggregated rather than discarded.
    #[test]
    fn sources_request_agrees_with_per_source_eval(seed in 0u64..10_000) {
        let (ab, inst, _, q) = random_setup(seed, 6, 12, 4);
        let graph = CsrGraph::from(&inst);
        let query = Query::new(q, &ab);
        // a nonempty source subset derived from the seed
        let mask = (seed.wrapping_mul(2654435761) % 62 + 1) as u8;
        let sources: Vec<Oid> = (0..6u32)
            .filter(|i| mask & (1 << i) != 0)
            .map(Oid)
            .collect();
        for engine in batch_engines() {
            let resp = engine.run(&query, &graph, &EvalRequest::sources(sources.clone()));
            let batch = resp.batch().expect("batch payload");
            let singles: Vec<Vec<Oid>> = sources
                .iter()
                .map(|&s| engine.eval(&query, &graph, s).answers)
                .collect();
            if let Some(per) = batch.per_source() {
                prop_assert_eq!(per, &singles[..], "{} per-source map", engine.name());
                prop_assert_eq!(
                    resp.stats.answers,
                    singles.iter().map(Vec::len).sum::<usize>(),
                    "{} aggregates answer counts",
                    engine.name()
                );
            }
            let mut union: Vec<Oid> = singles.into_iter().flatten().collect();
            union.sort_unstable();
            union.dedup();
            prop_assert_eq!(batch.union(), &union[..], "{} union", engine.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direction agreement: for every (source, target) pair of a random
    /// graph × random regex, the forward answer relation, the backward
    /// (transpose-semantics) relation, and the early-exit pair
    /// verdicts coincide — through the product engine, the quotient-DFA
    /// engine, and both `PlannedEngine`-wrapped variants — and a
    /// `PlannedEngine` never returns a different answer set than its
    /// inner engine.
    #[test]
    fn directions_agree_on_random_inputs(seed in 0u64..10_000) {
        use rpq::optimizer::PlannedEngine;

        let (ab, inst, _, q) = random_setup(seed, 6, 12, 4);
        let graph = CsrGraph::from(&inst);
        let query = Query::new(q, &ab);
        // no constraints: the rewrite pass is an identity, so the wrapper
        // must match its inner engine on *every* input
        let planned_product = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let planned_quotient = PlannedEngine::unconstrained(QuotientDfaEngine, ab.clone());

        let forward: Vec<Vec<Oid>> = graph
            .nodes()
            .map(|s| ProductEngine.eval(&query, &graph, s).answers)
            .collect();
        for s in graph.nodes() {
            let quot = QuotientDfaEngine.eval(&query, &graph, s).answers;
            prop_assert_eq!(&quot, &forward[s.index()], "quotient fwd {:?}", s);
            prop_assert_eq!(
                &planned_product.eval(&query, &graph, s).answers,
                &forward[s.index()],
                "planned(product) == product at {:?}", s
            );
            prop_assert_eq!(
                &planned_quotient.eval(&query, &graph, s).answers,
                &quot,
                "planned(quotient) == quotient at {:?}", s
            );
        }

        for t in graph.nodes() {
            let to_t = EvalRequest::target(t);
            let backward = ProductEngine.run(&query, &graph, &to_t).into_eval_result().answers;
            prop_assert_eq!(
                planned_product.run_view(&query, &graph, &to_t).nodes(),
                Some(&backward[..]),
                "planned target request at {:?}", t
            );
            for s in graph.nodes() {
                let fwd_says = forward[s.index()].binary_search(&t).is_ok();
                prop_assert_eq!(
                    backward.binary_search(&s).is_ok(),
                    fwd_says,
                    "transpose semantics {:?}->{:?}", s, t
                );
                let pair = EvalRequest::pair(s, t);
                prop_assert_eq!(
                    ProductEngine.run(&query, &graph, &pair).reachable(),
                    Some(fwd_says),
                    "pair request {:?}->{:?}", s, t
                );
                prop_assert_eq!(
                    planned_product.run_view(&query, &graph, &pair).reachable(),
                    Some(fwd_says),
                    "planned(product) pair {:?}->{:?}", s, t
                );
                prop_assert_eq!(
                    planned_quotient.run_view(&query, &graph, &pair).reachable(),
                    Some(fwd_says),
                    "planned(quotient) pair {:?}->{:?}", s, t
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The static analyzer's simplifications are answer-preserving across
    /// every engine: the planned query (alphabet-restricted, trimmed)
    /// returns exactly the answers of the unanalyzed original through all
    /// nine engines, on the `CsrGraph` snapshot and on a post-delta
    /// `DeltaGraph` epoch, forward and backward. The query is extended
    /// with an arm through a zero-edge label so pruning always has work,
    /// and the delta later adds the first edge on that label — the plan
    /// must be rebuilt (pruned-label drift guard) and the new matches
    /// must appear.
    #[test]
    fn analyzed_queries_answer_like_unanalyzed_originals(seed in 0u64..10_000) {
        use rpq::core::eval_product_csr;
        use rpq::graph::DeltaGraph;
        use rpq::optimizer::PlannedEngine;

        let (mut ab, inst, src, q0) = random_setup(seed, 6, 12, 4);
        let ghost = ab.intern("ghost");
        let q = Regex::union(vec![q0.clone(), Regex::sym(ghost).then(q0)]);
        let query = Query::new(q.clone(), &ab);
        let graph = CsrGraph::from(&inst);

        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let plan = planned.plan(&query, &graph);
        prop_assert!(plan.record.pruned_symbols.contains(&ghost));
        let analyzed = plan.query.clone();

        // forward, all nine engines: analyzed == original per engine
        // (the oracle is bounded the same way on both, so even it must
        // agree with itself)
        let expected = ProductEngine.eval(&query, &graph, src).answers;
        for engine in nine_engines() {
            let orig = engine.eval(&query, &graph, src).answers;
            let simp = engine.eval(&analyzed, &graph, src).answers;
            prop_assert_eq!(&simp, &orig, "{}: analyzed vs original", engine.name());
            if engine.name() != "oracle" {
                prop_assert_eq!(&orig, &expected, "{}: vs product", engine.name());
            }
        }
        // backward on the snapshot
        for t in graph.nodes() {
            let to_t = EvalRequest::target(t);
            let got = planned.run_view(&query, &graph, &to_t);
            let want = ProductEngine.run(&query, &graph, &to_t);
            prop_assert_eq!(got.nodes(), want.nodes(), "backward at {:?}", t);
        }

        // post-delta epoch: new edges, including the first one on the
        // pruned label — the analyzed plan must be recompiled and agree
        // with the unanalyzed product BFS on the delta view
        let mut dg = DeltaGraph::from_instance(&inst);
        let nodes: Vec<Oid> = graph.nodes().collect();
        let (_, syms) = alphabet3();
        dg.add_edge(nodes[0], syms[0], nodes[nodes.len() - 1]);
        dg.add_edge(nodes[1], ghost, nodes[0]);
        let nfa = Nfa::thompson(&q);
        let rev = nfa.reverse();
        for &s in &nodes {
            prop_assert_eq!(
                planned.run_view(&query, &dg, &EvalRequest::source(s)).into_eval_result().answers,
                eval_product_csr(&nfa, &dg, s).answers,
                "delta forward at {:?}", s
            );
            prop_assert_eq!(
                planned.run_view(&query, &dg, &EvalRequest::target(s)).into_eval_result().answers,
                search_nodes(&rev, &dg, s, &SearchOpts { reverse_adj: true, ..SearchOpts::default() }, &mut EvalScratch::new()).0.answers,
                "delta backward at {:?}", s
            );
        }
    }
}

/// `PlannedEngine` wrapped around representatives of every evaluation
/// family (centralized, Datalog, distributed) returns
/// exactly the inner engine's answer set — no constraints, so the rewrite
/// is an identity and any divergence would be a planner bug.
#[test]
fn planned_wrapper_never_changes_answers() {
    use rpq::optimizer::PlannedEngine;

    for seed in [2u64, 23, 404] {
        let (ab, inst, src, q) = random_setup(seed, 20, 60, 4);
        let graph = CsrGraph::from(&inst);
        let query = Query::new(q, &ab);
        let expected = ProductEngine.eval(&query, &graph, src).answers;

        macro_rules! check {
            ($inner:expr) => {{
                let inner_answers = $inner.eval(&query, &graph, src).answers;
                assert_eq!(inner_answers, expected, "inner disagrees (seed {seed})");
                let planned = PlannedEngine::unconstrained($inner, ab.clone());
                assert_eq!(
                    planned.eval(&query, &graph, src).answers,
                    inner_answers,
                    "planned wrapper changed answers (seed {seed})"
                );
            }};
        }
        check!(ProductEngine);
        check!(QuotientDfaEngine);
        check!(DerivativeEngine);
        check!(DatalogSeminaiveEngine);
        check!(SimulatorEngine::default());
    }
}

/// On a shared-prefix graph (many sources funneling into one suffix) a
/// `Sources` request is one product BFS per source: per-source answers and
/// the total `edges_scanned` equal the hand-written loop's.
#[test]
fn batched_product_is_the_per_source_loop_on_shared_prefix_graphs() {
    use rpq::graph::InstanceBuilder;

    let mut ab = Alphabet::new();
    let mut b = InstanceBuilder::new(&mut ab);
    let n_sources = 16;
    for i in 0..n_sources {
        b.edge(&format!("e{i}"), "c", "x0");
    }
    for i in 0..40 {
        b.edge(&format!("x{i}"), "c", &format!("x{}", i + 1));
    }
    let (inst, names) = b.finish();
    let graph = CsrGraph::from(&inst);
    let sources: Vec<Oid> = (0..n_sources)
        .map(|i| names[format!("e{i}").as_str()])
        .collect();
    let query = Query::parse(&mut ab, "c*").unwrap();

    let resp = ProductEngine.run(&query, &graph, &EvalRequest::sources(sources.clone()));
    let batch = resp.batch().expect("batch payload");
    let mut loop_edges = 0usize;
    for (i, &s) in sources.iter().enumerate() {
        let single = ProductEngine.eval(&query, &graph, s);
        loop_edges += single.stats.edges_scanned;
        assert_eq!(batch.per_source().unwrap()[i], single.answers);
    }
    assert_eq!(resp.stats.edges_scanned, loop_edges);
}

#[test]
fn streaming_agrees_with_product_on_finite_instances() {
    for seed in 0..20u64 {
        let (_, inst, src, q) = random_setup(seed, 8, 16, 4);
        let nfa = Nfa::thompson(&q);
        let product = eval_product(&nfa, &inst, src).answers;
        let mut stream = rpq::paper::StreamingEval::new(&nfa, &inst, src.index() as u64, 1_000_000);
        let streamed: Vec<Oid> = stream
            .collect_all()
            .into_iter()
            .map(|n| Oid(n as u32))
            .collect();
        assert_eq!(product, streamed, "seed {seed}");
        assert_eq!(stream.status(), rpq::paper::StreamStatus::Terminated);
    }
}

#[test]
fn general_queries_mu_equals_direct_on_random_instances() {
    use rpq::paper::general::{eval_general, eval_general_direct, GeneralPathQuery};
    let queries = [
        r#""a*b" "c"?"#,
        r#"("a*b" + "ba*")*"#,
        r#"("[ab]" "[bc]")*"#,
        r#""(.)*""#,
    ];
    for seed in 0..10u64 {
        let ab = Alphabet::from_names(["b", "aab", "baa", "c", "zzz"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, src) = random_graph(&mut rng, 6, 14, &syms);
        for qs in queries {
            let q = GeneralPathQuery::parse(qs).unwrap();
            let via_mu = eval_general(&q, &inst, src, &ab);
            let direct = eval_general_direct(&q, &inst, src, &ab);
            assert_eq!(via_mu, direct, "Proposition 2.2 violated: {qs} seed {seed}");
        }
    }
}
