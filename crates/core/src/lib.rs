//! # rpq-core
//!
//! Regular path query evaluation — Section 2 of *Abiteboul & Vianu,
//! "Regular Path Queries with Constraints"*.
//!
//! A path query `p` is a regular expression over edge labels; its answer
//! `p(o, I)` is the set of objects reachable from `o` by a path spelling a
//! word of `L(p)`. This crate implements every evaluation strategy the
//! paper discusses, plus the Section 2.4 extensions, all behind one
//! calling convention:
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
//!   set a conjunctive-query atom induces — the per-atom machinery
//!   `rpq-optimizer`'s join planner composes) and [`run_request`] (any
//!   [`SourceSpec`]; per-seed sets and the N×M matrix are one
//!   [`search_nodes`] per seed, reported as [`BatchResult`] /
//!   [`MatrixResult`]); [`eval_product_csr`] is the default-option
//!   one-liner for the paper's `p(o, I)`, and `rpq-optimizer`'s
//!   `PlannedEngine` picks directions and options from per-label
//!   statistics;
//! * [`parallel`] — names left over from intra-query parallelism and from
//!   the pull half of the frontier, inert and kept only until the
//!   end-to-end benchmark stops naming them;
//! * [`QuotientDfaEngine`] / [`eval_quotient_dfa_csr`] — explicit quotients
//!   as lazily determinized state sets (the possibly-exponential
//!   construction the paper warns about);
//! * [`DerivativeEngine`] / [`eval_derivative_csr`] — syntactic quotients
//!   via Brzozowski derivatives, the faithful rendering of recursion (✳);
//! * [`OracleEngine`] / [`eval_oracle`] — definitional word-enumeration
//!   oracle for testing;
//! * [`StreamingEngine`] / [`StreamingEval`] — pull-based, budgeted
//!   evaluation over possibly infinite [`rpq_graph::GraphSource`]s
//!   ("eventually computable" queries, Remark 2.1);
//! * [`general`] — general path queries with character-level label patterns
//!   and the `μ` translation (Proposition 2.2, Example 2.1 / Figure 1);
//! * [`content`] — content-based selection via `content=w` self-loops.
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
pub mod content;
pub mod engine;
pub mod general;
pub mod oracle;
pub mod pair;
pub mod pairset;
pub mod parallel;
pub mod product;
pub mod quotient;
pub mod request;
pub mod scratch;
pub mod stats;
pub mod streaming;

pub use batch::{BatchResult, MatrixResult};
pub use engine::{
    DerivativeEngine, Engine, OracleEngine, ProductEngine, Query, QuotientDfaEngine,
    StreamingEngine,
};
pub use oracle::eval_oracle;
pub use pair::{search_pair, PairResult};
pub use pairset::{search_pairs, seed_candidates, PairSetResult};
pub use parallel::{FrontierMode, WorkerLease, WorkerPool, PAR_LEVEL_THRESHOLD};
pub use product::{
    eval_product, eval_product_csr, eval_product_scan, search_nodes, EvalResult, SearchOpts,
};
pub use quotient::{eval_derivative_csr, eval_quotient_dfa_csr};
pub use request::{
    live_oids, run_default, run_request, Answers, EvalControl, EvalRequest, EvalResponse,
    SourceSpec, Termination,
};
pub use rpq_graph::CsrGraph;
pub use scratch::{EvalScratch, PooledScratch, ScratchPool};
pub use stats::{AtomStats, Direction, EvalStats};
pub use streaming::{StreamStatus, StreamingEval};
