//! # rpq-testkit
//!
//! What the tests and benches draw their inputs from, in one crate the
//! server never builds (no served crate names it under `[dependencies]`;
//! `xtask lint` holds that line):
//!
//! * [`generators`] — seeded graphs: the exact Figure 2 graph, uniform,
//!   deterministic and web-like random graphs.
//! * [`random`] — seeded regexes and words.
//! * [`draw`] — the one copy of each input the integration tests draw:
//!   a random graph with a random query, word-constraint systems, chain
//!   and star CRPQs, and the nine evaluation engines the agreement tests
//!   anchor on.
//! * [`satisfy`] — instances *built* to satisfy a constraint set `E`
//!   instead of drawn and filtered for it: a bounded chase (which builds a
//!   cache rule's view), at one source or at every node, each output
//!   checked with `ConstraintSet::holds_at`.
//! * [`driver`] — the served planner's rewrites against the paper's
//!   semantics: a `Server` under `E` on an instance that satisfies `E`,
//!   its answers held against `eval_product` of the *original* query.
//!
//! A crate whose unit tests take a value from here must not pass its own
//! types through it: the unit-test build links a second copy of that
//! crate, whose types are not the ones this crate was built against. The
//! unit tests that do (`rpq-constraints`, `rpq-optimizer`,
//! `rpq-distributed`) exchange only `rpq-automata` and `rpq-graph`
//! values with it.

#![warn(missing_docs)]

pub mod draw;
pub mod driver;
pub mod generators;
pub mod random;
pub mod satisfy;
