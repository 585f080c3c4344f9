//! # rpq-core
//!
//! Regular path query evaluation — Section 2 of *Abiteboul & Vianu,
//! "Regular Path Queries with Constraints"*.
//!
//! A path query `p` is a regular expression over edge labels; its answer
//! `p(o, I)` is the set of objects reachable from `o` by a path spelling a
//! word of `L(p)`. This crate implements the evaluation strategy the
//! server runs — the Section 2.2 product search — and the definitional
//! oracle it is checked against, behind one calling convention:
//!
//! * [`Engine`] — the unified trait, three methods: `name`, the
//!   strategy's own `p(o, I)` — `eval(&self, &Query, &CsrGraph, Oid)` over
//!   the label-indexed [`rpq_graph::CsrGraph`] snapshot, with shared
//!   [`EvalStats`] work counters ([`Query`] packages regex + NFA +
//!   alphabet once) — and `run`;
//! * [`request`] — the request/response convention, the one way to ask
//!   any other question: [`Engine::run`] dispatches an [`EvalRequest`]
//!   (any question shape — single source, batch, target-bound, pair, N×M
//!   matrix, binding set — plus uniform budget/cancellation controls) to
//!   an [`EvalResponse`], whose `stats` is the only place a response's
//!   work is reported; [`run_request`] is the one executor that maps a
//!   request shape to a product kernel (its rustdoc is the decision
//!   table);
//! * [`product`] — the "more economical" product-automaton BFS (PTIME
//!   combined complexity, NLOGSPACE data complexity), frontier-based and
//!   label-indexed: **one** level-synchronous driver, one push sweep per
//!   level, run on the caller's thread and steered by one [`SearchOpts`]
//!   (direction, depth cap, budget and cancellation);
//! * four entry points over that machinery, one per *answer shape*:
//!   [`search_nodes`] (a node set — `p(o, I)` forward, `{o | t ∈ p(o, I)}`
//!   backward), [`search_pair`] (one verdict: early exit from the source
//!   or from the target), [`search_pairs`] (the (source, target) binding
//!   set a conjunctive-query atom induces, from the end
//!   [`search_bindings`] picks off the bound sides — the per-atom
//!   machinery `rpq-optimizer`'s join executor composes) and [`run_request`] (any
//!   [`SourceSpec`]; per-seed sets and the N×M matrix are one
//!   [`search_nodes`] per seed, reported as [`BatchResult`] /
//!   [`MatrixResult`]); [`eval_product_csr`] is the default-option
//!   one-liner for the paper's `p(o, I)`, and `rpq-optimizer`'s
//!   `PlannedEngine` picks directions and options from per-label
//!   statistics;
//! * [`parallel`] — names left over from intra-query parallelism and from
//!   the pull half of the frontier, inert and kept only until the
//!   end-to-end benchmark stops naming them;
//! * [`OracleEngine`] / [`eval_oracle`] — definitional word-enumeration
//!   oracle for testing.
//!
//! The rest of the paper's evaluation strategies — explicit quotients
//! (lazily determinized state sets and Brzozowski derivatives), Remark
//! 2.1's streaming evaluation over infinite sources, and Section 2.4's
//! general path queries and content-based selection — are no part of what
//! is served and live in `rpq_paper`, behind the same [`Engine`] trait.
//!
//! ## Example
//!
//! ```
//! use rpq_automata::Alphabet;
//! use rpq_graph::{CsrGraph, InstanceBuilder};
//! use rpq_core::{Engine, ProductEngine, Query};
//!
//! let mut ab = Alphabet::new();
//! let mut b = InstanceBuilder::new(&mut ab);
//! b.edge("o1", "a", "o2");
//! b.edge("o2", "b", "o3");
//! b.edge("o3", "b", "o2");
//! let (inst, names) = b.finish();
//! let graph = CsrGraph::from(&inst); // immutable query-time snapshot
//!
//! let q = Query::parse(&mut ab, "a.b*").unwrap();
//! let res = ProductEngine.eval(&q, &graph, names["o1"]);
//! assert_eq!(res.answers.len(), 2); // {o2, o3}
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod engine;
pub mod oracle;
pub mod pair;
pub mod pairset;
pub mod parallel;
pub mod product;
pub mod request;
pub mod scratch;
pub mod stats;

pub use batch::{BatchResult, MatrixResult};
pub use engine::{Engine, OracleEngine, ProductEngine, Query};
pub use oracle::eval_oracle;
pub use pair::{search_pair, PairResult};
pub use pairset::{search_bindings, search_pairs, seed_candidates, PairSetResult};
pub use parallel::{FrontierMode, WorkerLease, WorkerPool, PAR_LEVEL_THRESHOLD};
pub use product::{
    eval_product, eval_product_csr, eval_product_scan, search_nodes, EvalResult, SearchOpts,
};
pub use request::{
    live_oids, run_default, run_request, Answers, EvalControl, EvalRequest, EvalResponse,
    SourceSpec, Termination,
};
pub use rpq_graph::CsrGraph;
pub use scratch::{EvalScratch, PooledScratch, ScratchPool};
pub use stats::{AtomStats, Direction, EvalStats};
