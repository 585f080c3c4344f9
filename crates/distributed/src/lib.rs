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
//! * [`sim`] — a deterministic seeded event simulator, the one network
//!   loop every run of the protocol goes through: full tracing
//!   (regenerates the Figure 3 run), message/byte accounting, one client
//!   or many ([`run_concurrent`]), an optional fault plan, and the
//!   correctness checks (answers = centralized `p(o, I)`, termination
//!   detected exactly at quiescence); sites are sharded from any
//!   `rpq_graph::GraphView` snapshot (CSR or delta overlay) and absorb
//!   `rpq_graph::EdgeDelta` batches via `apply_delta` without a reshard;
//! * [`engines`] — the simulator behind the unified `rpq_core::Engine`
//!   calling convention;
//! * [`decomposition`] — the ship-query-once-per-site baseline of the
//!   related work (\[30\]), for protocol comparisons;
//! * [`carrying`] — the Section 5 variant where agents carry accumulated
//!   traversal knowledge and skip known-duplicate spawns;
//! * [`faults`] — drop/duplication injection (the simulator's loop under a
//!   [`FaultPlan`]) showing exactly where the paper's reliability
//!   assumption is load-bearing.
//!
//! Constraint-based optimization (Section 3.2) plugs in as a per-site
//! rewrite hook, [`sim::Simulator::with_rewrite`]; the memoized hook is
//! one `rpq-optimizer` `PlannedEngine`:
//! `sim.with_rewrite(|_site, q| planned.rewrite(q, &graph))`.

#![warn(missing_docs)]

pub mod carrying;
pub mod decomposition;
pub mod engines;
pub mod faults;
pub mod message;
pub mod sim;
pub mod site;

pub use carrying::{run_carrying, CarryingRunResult};
pub use decomposition::{
    run_decomposition, run_decomposition_checked, DecompositionResult, Partition,
};
pub use engines::SimulatorEngine;
pub use faults::{run_with_faults, FaultPlan, FaultReport};
pub use message::{Message, MessageKind, Mid, SiteId};
pub use sim::{
    render_trace, run_and_check, run_concurrent, ConcurrentRunResult, Delivery, MessageStats,
    QueryOutcome, RunResult, Simulator,
};
pub use site::Site;
