//! # rpq-constraints
//!
//! Path constraints and the implication problem — Section 4 of *Abiteboul &
//! Vianu, "Regular Path Queries with Constraints"*, the paper's main
//! technical contribution — as far as the served planner runs it: the
//! closure test that decides and certifies every rewrite, and Theorem 4.10
//! decided on the fold.
//!
//! | Paper result | Module |
//! |---|---|
//! | Definition 4.1 (path inclusions/equalities) | [`types`] |
//! | Lemma 4.4 (`→_E` sound & complete), Lemma 4.7 pre*-saturation generalized to regex-sided rules; Theorem 4.3(ii) exactly on word sets ([`Closures::implies`]) | [`rewrite`] |
//! | Proposition 4.8 Armstrong instance as a finite fold with free trees | [`armstrong`] |
//! | Theorem 4.10 boundedness + effective nonrecursive equivalent, decided on the fold; certified finite cuts under full path constraints | [`boundedness`] |
//! | Theorem 4.2's refuter budgets | [`general`] |
//! | Theorem 4.3(i)/(ii) word saturation and deciders, Lemma 4.4's canonical instance (Figure 4) | `rpq_paper::{rewrite, implication, canonical}` |
//! | Lemma 4.9 K-sphere (Figure 5) | `rpq_paper::armstrong` |
//! | Theorem 4.2 general implication (budgeted, certified verdicts) | `rpq_paper::general_implication` |
//! | Section 5: sound axiomatization (future work, built here) | `rpq_paper::axioms` |
//! | Section 5: the ≤1-outgoing-edge-per-label special case | `rpq_paper::deterministic` |
//! | Section 4's FO² connection (encoding + bounded countermodels) | `rpq_paper::fo2` |
//!
//! ## Example: Example 2 of Section 3.2
//!
//! ```
//! use rpq_automata::Alphabet;
//! use rpq_constraints::{parse_constraint, Closures, ConstraintSet};
//!
//! let mut ab = Alphabet::new();
//! let e = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
//! let c = parse_constraint(&mut ab, "l* = l + ()").unwrap();
//! // E ⊨ l* = l + ε : the recursive query collapses to a nonrecursive one,
//! // decided exactly on a word set (Theorem 4.3(ii))
//! assert_eq!(Closures::new(&e).implies(&c), Ok("word-exact"));
//! ```

#![warn(missing_docs)]

pub mod armstrong;
pub mod boundedness;
pub mod general;
pub mod rewrite;
pub mod types;

pub use boundedness::{bounded_beyond_finite, decide_boundedness, Boundedness, GeneralBoundedness};
pub use general::Budget;
pub use rewrite::{rewrite_closure_nfa, Closures, RewriteSystem};
pub use types::{parse_constraint, CacheDef, ConstraintKind, ConstraintSet, PathConstraint};
