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
//!   finite-language detection with an exact depth cap, and
//!   [`PlanRecord`], the one record of what a plan learned;
//! * [`cost`] — static (automaton size + recursion penalty) and measured
//!   cost models;
//! * [`rewrites`] — candidate generation: Theorem 4.10 boundedness
//!   reduction, boundedness under path constraints, and algebraic
//!   simplification, each validated before being offered;
//! * [`views`] — answering queries from cached views: the Section 5
//!   Boolean-combination search with the partial-use refinement, the only
//!   code that substitutes a cache (Example 3's `l·a·c` is its one-cache
//!   total cover);
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
//! * **per query** (a crate-private `CompiledQuery`): what the regex
//!   states — emptiness, finiteness, the depth cap, its Thompson
//!   automaton's size and label traffic, the labels that begin and end a
//!   word — read off the tree in one walk, and lazily, each at most once,
//!   the Thompson automaton, its trimmed form (the automaton itself when no
//!   subterm is `∅`) and the complete DFA over the plan's alphabet. Both
//!   cost models, the three candidate families, the view search and — for
//!   whichever query wins — the static analysis read that one value, so
//!   scoring a candidate builds no automaton
//!   ([`PlanRecord::thompson_builds`], [`PlanRecord::determinizations`]
//!   and [`PlanRecord::trims`] count what was built);
//! * **the gate**: the view search probes each cache once, `q ∩ r·Σ*`; a
//!   cache whose body `r` has a word but leads to no state of `q` prefixes
//!   no word of `q`, so its universal tail is empty and the search looks
//!   at it no further. A body without the empty word that begins with no
//!   label a word of `q` begins with is dropped on the regexes, before the
//!   probe. A cover that is `q` itself leaves no remainder to compute, and
//!   a finite query no smaller regex of its language can undercut — a
//!   count read off the tree — is not determinized by the simplifier;
//! * **per plan** (a crate-private `PlanPass`, made by
//!   [`optimize_and_analyze`] and dropped with the plan): closures by
//!   target, proofs by claim. Every claim `E ⊨ q = c` is decided by the
//!   method certification runs ([`rpq_constraints::Closures::implies`]),
//!   so the `RewriteTo` closures its decision builds are the ones the
//!   winner's certification tests against ([`PlanRecord::claims_proved`],
//!   [`PlanRecord::closure_builds`], [`PlanRecord::certify_closure_builds`]).
//!   Nothing in it is keyed by client text or outlives the plan.
//!
//! No validation is skipped on the way: every distinct candidate claim is
//! still decided, and every winner still passes both directions of
//! [`certify_rewrite`] — against closures built once per plan, not once
//! per reader. A direction that is one rule `P ⊆ R` of `E`
//! right-concatenated with a tail `t` (`P·t ⊆ R·t`, as trees) is proved in
//! one rewrite step, with no closure: rooted constraints are
//! right-congruent, `P(o) ⊆ R(o)` gives `(P·t)(o) ⊆ (R·t)(o)`. That is
//! each direction of a cache substitution `u·t = l·t` under `l = u`
//! (Lemma 4.4's one step `u·t →_E l·t`). Every other direction is the
//! closure test.
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
mod shape;
pub mod views;

pub use analysis::{analyze, certify_rewrite, restrict_to_live_symbols, Analysis, PlanRecord};
pub use cost::{estimated_cost, measured_cost, StaticCost};
pub use join::{
    execute_join, execute_join_parallel, execute_naive, parse_crpq, plan_join, Crpq, CrpqAtom,
    HeadBindings, JoinPlan, Var,
};
pub use planned::{Direction, Plan, PlannedEngine, PlannerConfig};
pub use planner::{optimize, optimize_and_analyze, optimize_with_stats, Optimized};
pub use rewrites::{Candidate, RewriteRule};
pub use views::{rewrite_with_views, CacheDef, ViewKind, ViewRewriting};
