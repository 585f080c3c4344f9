//! # rpq-graph
//!
//! The semistructured data model of Section 2.1: a database is an instance
//! of the relational schema `Ref(source: oid, label: label, destination:
//! oid)`, i.e. a labeled directed graph in which every object has finite
//! outdegree ("objects are small") but possibly unbounded indegree.
//!
//! * [`Instance`] — a finite labeled graph with adjacency storage, builders
//!   and reachability/distance utilities. This is the *mutable
//!   build-time* form; its [`LabelStats`] are maintained incrementally on
//!   every mutation.
//! * [`CsrGraph`] — the immutable *query-time* form: label-indexed CSR
//!   adjacency (forward and reverse) with per-label statistics, built by
//!   `CsrGraph::from(&instance)`. Engines step `(state, node)` pairs via
//!   [`CsrGraph::out`] in time proportional to matching edges only.
//! * [`GraphView`] — the uniform read interface over snapshots (forward /
//!   reverse labeled steps, label groups, statistics, and a snapshot
//!   [`Epoch`]); the `rpq-core` evaluation paths are generic over it.
//! * [`DeltaGraph`] — the incremental snapshot: an immutable base
//!   [`CsrGraph`] plus per-label sorted add/tombstone logs, absorbing
//!   [`EdgeDelta`] batches in `O(batch)` instead of the `O(V + E)` rebuild,
//!   with [`DeltaGraph::compact`] folding the overlay into a fresh base by
//!   one sorted merge per orientation, on the same [`Epoch`] lineage.
//!
//! The seeded graphs tests and benches draw (the exact Figure 2 graph
//! among them) are `rpq_testkit::generators`, which the server never
//! builds.
//!
//! Remark 2.1's lazy, possibly-infinite sources are
//! `rpq_paper::source::GraphSource` and its synthetic infinite graphs: the
//! server never runs them.

#![warn(missing_docs)]

pub mod csr;
pub mod delta;
pub mod instance;
pub mod view;

pub use csr::{CsrGraph, LabelStats};
pub use delta::{CompactionPolicy, DeltaGraph};
pub use instance::{Instance, InstanceBuilder, Oid};
pub use view::{EdgeDelta, Epoch, GraphView, RowPart, ViewEdges, ViewGroups};
