//! # rpq-optimizer
//!
//! Constraint-aware optimization of path queries — Section 3.2 of the
//! paper. Sites hold local path constraints (structural knowledge, cached
//! queries, mirrors); the optimizer replaces a query with a cheaper
//! equivalent, with equivalence established by the Section 4 implication
//! machinery, never assumed.
//!
//! * [`analysis`] — static query analysis run once per plan: rewrite
//!   certification against the constraint closure, zero-edge alphabet
//!   pruning (with a statically-empty fast path), NFA trimming, and
//!   finite-language detection with an exact depth cap;
//! * [`cost`] — static (automaton size + recursion penalty) and measured
//!   cost models;
//! * [`rewrites`] — candidate generation: Theorem 4.10 boundedness
//!   reduction, Example-3-style cached-query substitution, and algebraic
//!   simplification, each validated before being offered;
//! * [`views`] — answering queries from cached views: the Section 5
//!   Boolean-combination search with the partial-use refinement;
//! * [`planner`] — plan selection and the memoizing, thread-safe per-site
//!   rewrite hook for the distributed runners;
//! * [`planned`] — [`PlannedEngine`]: the optimizer as a first-class
//!   `rpq_core::Engine` that rewrites (*what*), picks a traversal
//!   direction from label statistics (*how*: forward / backward / no
//!   decisive end), and memoizes compiled plans across threads;
//! * [`join`] — conjunctive RPQs: the [`Crpq`] plan-as-data IR and text
//!   grammar (`ans(x,z) :- x -[r*]-> y, y -[s.t]-> z`), the cost-based
//!   join planner (rarest atom first, semijoin propagation along shared
//!   variables), and the budget-sound executor over `rpq_core`'s
//!   set-valued pair kernels.
//!
//! ## A cold plan is one pass over compiled artefacts
//!
//! Planning a text the memo has not seen is the server's whole time to
//! first answer, so nothing in it is compiled twice:
//!
//! * **per constraint set** (inside
//!   [`ConstraintSet`](rpq_constraints::ConstraintSet), on first use,
//!   shared by clones, dropped by `add`): the cache list with each body's
//!   automaton and emptiness, the word-constraint classification, and the
//!   rule automata the certification closure embeds. A [`PlannedEngine`]
//!   keeps its set, so it pays these once per engine;
//! * **per query** (a crate-private `CompiledQuery`, lazily, each at most
//!   once): the Thompson automaton, its trimmed form, finiteness and the
//!   depth cap, the complete DFA over the plan's alphabet, and per cache
//!   the probe `q ∩ r·Σ*`. Both cost models, the three candidate
//!   families, the view search and — for whichever query wins — the static
//!   analysis read that one value ([`Optimized::thompson_builds`] and
//!   [`Optimized::determinizations`] count what was built);
//! * **the gate**: a cache whose body `r` has a word but leads to no state
//!   of `q` prefixes no word of `q`; its existential quotient has no start
//!   state and its universal tail is empty, so neither cache family looks
//!   at it again — and a query that is a single word is its own
//!   minimal-DFA regex, so the simplifier does not determinize it either;
//! * **per plan** (a crate-private `PlanPass`, made by
//!   [`optimize_and_analyze`] and dropped with the plan): closures by
//!   target, proofs by claim. Every claim `E ⊨ q = c` is decided by the
//!   two inclusion tests certification runs
//!   ([`rpq_constraints::Closures::implies`]), so the `RewriteTo` closures
//!   its decision builds are the two the winner's certification tests
//!   against, and a view rewriting equal to a
//!   candidate a family proved takes over that proof instead of deciding
//!   the same claim again ([`Optimized::claims_proved`],
//!   [`Optimized::closure_builds`], [`Analysis::certify_closure_builds`]).
//!   Nothing in it is keyed by client text or outlives the plan.
//!
//! No validation is skipped on the way: every distinct candidate claim is
//! still decided, by the closure test, and every winner still passes
//! both inclusion tests of [`certify_rewrite`] — against closures built
//! once per plan, not once per reader.
//!
//! ## Example (the paper's Example 2)
//!
//! ```
//! use rpq_automata::{parse_regex, Alphabet};
//! use rpq_constraints::ConstraintSet;
//! use rpq_optimizer::optimize;
//!
//! let mut ab = Alphabet::new();
//! let e = ConstraintSet::parse(&mut ab, ["l.l = l"]).unwrap();
//! let q = parse_regex(&mut ab, "l*").unwrap();
//! let opt = optimize(&e, &q, &ab);
//! assert!(opt.improved());
//! assert!(!opt.after.recursive); // l* became l + ε
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod compiled;
pub mod cost;
pub mod join;
pub mod planned;
pub mod planner;
pub mod rewrites;
pub mod views;

pub use analysis::{analyze, certify_rewrite, restrict_to_live_symbols, Analysis, AnalysisFacts};
pub use cost::{estimated_cost, measured_cost, StaticCost};
pub use join::{
    execute_join, execute_join_parallel, execute_naive, parse_crpq, plan_join, Crpq, CrpqAtom,
    HeadBindings, JoinPlan, Var,
};
pub use planned::{Direction, Plan, PlannedEngine, PlannerConfig};
pub use planner::{optimize, optimize_and_analyze, optimize_with_stats, Optimized};
pub use rewrites::{candidates, Candidate, RewriteRule};
pub use views::{cache_defs, rewrite_with_views, CacheDef, ViewKind, ViewRewriting};
