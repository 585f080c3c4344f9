//! # rpq-distributed
//!
//! The distributed asynchronous evaluation scenario of Section 3.1: objects
//! are sites, a query is evaluated by `subquery`/`answer`/`done`/`akn`
//! messages between sites, subqueries carry the quotient of the query still
//! left to evaluate, duplicate subqueries are answered `done` immediately,
//! and the `done`/`akn` bookkeeping detects global termination.
//!
//! * [`message`] — the four message forms and a byte codec;
//! * [`site`] — the per-site state machine (dedup, quotienting, completion);
//! * [`sim`] — a deterministic seeded event simulator with full tracing
//!   (regenerates the Figure 3 run), message/byte accounting, and the
//!   correctness checks (answers = centralized `p(o, I)`, termination
//!   detected exactly at quiescence);
//! * [`threaded`] — the same state machines on real threads over crossbeam
//!   channels, with [`ThreadedNetwork`] keeping the shards alive across
//!   runs so edge batches are absorbed in place;
//! * [`engines`] — both runners behind the unified `rpq_core::Engine`
//!   calling convention, sites sharded from any `rpq_graph::GraphView`
//!   snapshot (CSR or delta overlay), absorbing `rpq_graph::EdgeDelta`
//!   batches via `apply_delta` without a reshard;
//! * [`batch`] — the threaded multi-source driver: sources partitioned
//!   across worker threads, each answering its chunk over the shared
//!   immutable snapshot;
//! * [`decomposition`] — the ship-query-once-per-site baseline of the
//!   related work (\[30\]), for protocol comparisons;
//! * [`carrying`] — the Section 5 variant where agents carry accumulated
//!   traversal knowledge and skip known-duplicate spawns;
//! * [`faults`] — drop/duplication injection showing exactly where the
//!   paper's reliability assumption is load-bearing.
//!
//! Constraint-based optimization (Section 3.2) plugs in as a per-site
//! rewrite hook: [`sim::Simulator::with_rewrite`] for the simulator,
//! [`threaded::run_threaded_csr_with_rewrite`] for the concurrent runner
//! (the hook must be `Sync` — one `rpq-optimizer` `RewriteCache` or
//! `PlannedEngine` instance serves every site thread).

#![warn(missing_docs)]

pub mod batch;
pub mod carrying;
pub mod decomposition;
pub mod engines;
pub mod faults;
pub mod message;
pub mod sim;
pub mod site;
pub mod threaded;

pub use batch::PartitionedBatchEngine;
pub use carrying::{run_carrying, CarryingRunResult};
pub use decomposition::{
    run_decomposition, run_decomposition_checked, DecompositionResult, Partition,
};
pub use engines::{SimulatorEngine, ThreadedEngine};
pub use faults::{run_with_faults, FaultPlan, FaultReport};
pub use message::{Message, MessageKind, Mid, SiteId};
pub use sim::{
    render_trace, run_and_check, run_concurrent, ConcurrentRunResult, Delivery, MessageStats,
    QueryOutcome, RunResult, Simulator,
};
pub use site::Site;
pub use threaded::{
    run_threaded, run_threaded_csr, run_threaded_csr_with_rewrite, SyncRewriteHook,
    ThreadedNetwork, ThreadedRunResult,
};
