//! # rpq — Regular Path Queries with Constraints
//!
//! A full Rust reproduction of **Serge Abiteboul & Victor Vianu, "Regular
//! Path Queries with Constraints"** (PODS 1997; JCSS 58(3), 1999): regular
//! path queries over semistructured data, their distributed asynchronous
//! evaluation, and — the paper's main contribution — the implication
//! problem for path constraints and its use in query optimization.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Module | Paper | Contents |
//! |---|---|---|
//! | [`automata`] | §2.2, §4 | regexes, NFA/DFA, inclusion & equivalence, algebraic simplifier |
//! | [`graph`] | §2.1 | the `Ref(source, label, destination)` data model: mutable [`graph::Instance`] builder, immutable label-indexed [`graph::CsrGraph`] query snapshot, incremental [`graph::DeltaGraph`] |
//! | [`core`] | §2.2 | the unified [`core::Engine`] trait, the product search the server runs, the definitional oracle |
//! | [`datalog`] | §2.3, §1 | Datalog engine + linear-monadic translations, QSQ, magic sets, `Engine`-trait adapters |
//! | [`constraints`] | §4 | what the planner runs: path constraints, the closure test that decides and certifies rewrites (exact Theorem 4.3(ii) on word sets), Theorem 4.10 on the Armstrong fold |
//! | [`distributed`] | §3.1, §5 | the subquery/answer/done/akn protocol, one event-driven simulator (sites hold CSR shards; one client or many; optional fault plan), carrying agents, decomposition baseline |
//! | [`optimizer`] | §3.2, §5 | constraint-based rewriting, static + label-statistics cost models, per-site hooks, cached-view combination search |
//! | [`server`] | — | the concurrent serving layer: epoch-pinned snapshot catalog, sessions with budgets/cancellation, admission control, per-class metrics |
//! | [`paper`] | §2.1–2.4, §4, §5 | what the server never runs: explicit quotients (derivatives, quotient engines), infinite sources and streaming evaluation, general path queries (`μ`), content selection, growth classification, the word saturation and Theorems 4.2/4.3 deciders, Lemma 4.4's canonical instance, Lemma 4.9's Armstrong sphere, the FO² encoding, the sound axiomatization, the deterministic special case |
//!
//! The inputs the tests, examples and benches draw — seeded graphs (the
//! Figure 2 graph among them) and regexes, instances built to satisfy a
//! constraint set, the served-rewrite driver — are the `rpq-testkit`
//! crate, a dev-dependency that is not re-exported here.
//!
//! ## The two graph forms
//!
//! Build mutably, query immutably: an [`graph::Instance`] accumulates
//! nodes and edges; `CsrGraph::from(&instance)` freezes it into a
//! label-indexed compressed-sparse-row snapshot (forward **and** reverse
//! adjacency, per-label statistics). Every engine implements
//! [`core::Engine`] over that snapshot — `engine.eval(&query, &graph,
//! source)` with shared [`core::EvalStats`] — so evaluation work is
//! proportional to *matching* edges, not outdegree × automaton fanout.
//!
//! [`core::Engine::eval`] is the strategy's own `p(o, I)`; every other
//! question — many sources, a target, a pair, a matrix, a binding set,
//! with or without a budget — is a [`core::EvalRequest`] handed to
//! [`core::Engine::run`]. ([`core::eval_product`],
//! `datalog::translate::load_instance` and `distributed::Simulator::new`
//! accept an `Instance` and snapshot it per call; when evaluating several
//! queries over one graph, build the [`graph::CsrGraph`] once and use the
//! `Engine` trait or the `*_csr` entry points.)
//!
//! ## Quickstart
//!
//! ```
//! use rpq::automata::Alphabet;
//! use rpq::graph::{CsrGraph, InstanceBuilder};
//! use rpq::core::{Engine, ProductEngine, Query};
//! use rpq::constraints::ConstraintSet;
//! use rpq::paper::implication::word_implies_path;
//! use rpq::automata::parse_regex;
//!
//! // Build the Figure 2 graph and run the Figure 3 query.
//! let mut ab = Alphabet::new();
//! let mut b = InstanceBuilder::new(&mut ab);
//! b.edge("o1", "a", "o2");
//! b.edge("o2", "b", "o3");
//! b.edge("o3", "b", "o2");
//! let (inst, names) = b.finish();
//! let graph = CsrGraph::from(&inst); // immutable query-time snapshot
//! let q = Query::parse(&mut ab, "a.b*").unwrap();
//! let answers = ProductEngine.eval(&q, &graph, names["o1"]).answers;
//! assert_eq!(answers.len(), 2); // {o2, o3}
//!
//! // Example 2 of Section 3.2: {l·l ⊆ l} ⊨ l* = l + ε.
//! let e = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
//! let l_star = parse_regex(&mut ab, "l*").unwrap();
//! let l_or_eps = parse_regex(&mut ab, "l + ()").unwrap();
//! assert!(word_implies_path(&e, &l_star, &l_or_eps).unwrap().is_implied());
//! assert!(word_implies_path(&e, &l_or_eps, &l_star).unwrap().is_implied());
//! ```
//!
//! See `examples/` for runnable scenarios and `rpq-bench` for the
//! experiment harness regenerating every figure and worked example of the
//! paper (`tests/paper_examples.rs` pins each one).

pub use rpq_automata as automata;
pub use rpq_constraints as constraints;
pub use rpq_core as core;
pub use rpq_datalog as datalog;
pub use rpq_distributed as distributed;
pub use rpq_graph as graph;
pub use rpq_optimizer as optimizer;
pub use rpq_paper as paper;
pub use rpq_server as server;
