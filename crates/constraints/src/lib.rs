//! # rpq-constraints
//!
//! Path constraints and the implication problem — Section 4 of *Abiteboul &
//! Vianu, "Regular Path Queries with Constraints"*, the paper's main
//! technical contribution.
//!
//! | Paper result | Module |
//! |---|---|
//! | Definition 4.1 (path inclusions/equalities) | [`types`] |
//! | Lemma 4.4 (`→_E` sound & complete), Lemmas 4.5/4.7 (`RewriteTo` is regular) | [`rewrite`] |
//! | Theorem 4.3(i) PTIME word implication, (ii) PSPACE path-by-word implication | [`implication`] |
//! | Lemma 4.4's canonical instance (Figure 4) | [`canonical`] |
//! | Proposition 4.8 Armstrong instance as a finite fold with free trees, Lemma 4.9 K-sphere (Figure 5) | [`armstrong`] |
//! | Theorem 4.10 boundedness + effective nonrecursive equivalent, decided on the fold | [`boundedness`] |
//! | Theorem 4.2 general implication (budgeted, certified verdicts) | [`general`] |
//! | Section 5: sound axiomatization (future work, built here) | `rpq_paper::axioms` |
//! | Section 5: the ≤1-outgoing-edge-per-label special case | `rpq_paper::deterministic` |
//! | Section 4's FO² connection (encoding + bounded countermodels) | `rpq_paper::fo2` |
//!
//! ## Example: Example 2 of Section 3.2
//!
//! ```
//! use rpq_automata::{parse_regex, Alphabet};
//! use rpq_constraints::{ConstraintSet, implication::word_implies_path};
//!
//! let mut ab = Alphabet::new();
//! let e = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
//! let p = parse_regex(&mut ab, "l*").unwrap();
//! let q = parse_regex(&mut ab, "l + ()").unwrap();
//! // E ⊨ l* = l + ε : the recursive query collapses to a nonrecursive one
//! assert!(word_implies_path(&e, &p, &q).is_implied());
//! assert!(word_implies_path(&e, &q, &p).is_implied());
//! ```

#![warn(missing_docs)]

pub mod armstrong;
pub mod boundedness;
pub mod canonical;
pub mod general;
pub mod implication;
pub mod rewrite;
pub mod types;

pub use armstrong::{suggested_radius, ArmstrongSphere};
pub use boundedness::{
    bounded_beyond_finite, bounded_under_path_constraints, decide_boundedness, Boundedness,
    GeneralBoundedness,
};
pub use canonical::{lemma44_instance, CanonicalInstance};
pub use general::{check, Budget, Refutation, Verdict, Witness};
pub use implication::{
    word_implies_constraint, word_implies_path, word_implies_word, WordImplication,
};
pub use rewrite::{
    rewrite_closure_nfa, rewrite_to_nfa, rewrite_to_word_nfa, Closures, RewriteSystem,
};
pub use types::{parse_constraint, CacheDef, ConstraintKind, ConstraintSet, PathConstraint};
