//! # rpq-paper
//!
//! The parts of *Abiteboul & Vianu, "Regular Path Queries with
//! Constraints"* that this workspace reproduces but does not serve.
//! `rpq-server` answers `p(o, I)` with `rpq-core`'s product search and
//! decides the Section 3.2 rewrites through `rpq-constraints`' closures;
//! nothing on that path reaches this crate, and no served crate lists it
//! among its dependencies. Each result here is runnable — the examples, `paper_figures`, the
//! agreement suites and the benches drive it — and sits beside the tests
//! that hold it to the paper:
//!
//! | Paper result | Module |
//! |---|---|
//! | Section 2.2 quotients `p/l` as Brzozowski derivatives, the finite closure of repeated quotients | [`mod@derivative`] |
//! | Section 2.2 recursion (✳) with explicit quotients: lazily determinized state sets, syntactic derivatives | [`quotient`], [`QuotientDfaEngine`], [`DerivativeEngine`] |
//! | Remark 2.1 possibly infinite sources ([`GraphSource`]: finite instances, snapshots, synthetic infinite graphs) | [`source`] |
//! | Remark 2.1 "eventually computable" queries over them | [`streaming`], [`StreamingEngine`] |
//! | Section 2.4 general path queries: character-level label patterns, Proposition 2.2's `μ` (Example 2.1 / Figure 1) | [`charpat`], [`general`] |
//! | end of Section 2.4: content-based selection via `content=w` self-loops | [`content`] |
//! | growth classification of regular languages (finite, polynomial, exponential) | [`growth`] |
//! | Lemmas 4.4/4.5 word saturation `RewriteTo`, with derivations | [`rewrite`] |
//! | Theorem 4.3(i) PTIME word implication, (ii) PSPACE path-by-word implication (antichain and naive) | [`implication`] |
//! | Lemma 4.4's canonical instance (Figure 4) | [`canonical`] |
//! | Lemma 4.9 K-sphere of the Armstrong instance (Figure 5) | [`armstrong`] |
//! | Theorem 4.2 general implication (budgeted, certified verdicts) | [`general_implication`] |
//! | Boundedness under full path constraints (open in the paper; budgeted) | [`boundedness`] |
//! | Section 4's FO² connection (encoding + bounded countermodels) | [`fo2`] |
//! | Section 5: sound axiomatization (future work, built here) | [`axioms`] |
//! | Section 5: the ≤1-outgoing-edge-per-label special case | [`deterministic`] |
//!
//! The three engines implement [`rpq_core::Engine`], so one agreement
//! suite drives them beside `rpq-core`'s product and oracle engines.
//!
//! ## Example
//!
//! ```
//! use rpq_automata::Alphabet;
//! use rpq_core::{Engine, ProductEngine, Query};
//! use rpq_graph::{CsrGraph, InstanceBuilder};
//! use rpq_paper::DerivativeEngine;
//!
//! let mut ab = Alphabet::new();
//! let mut b = InstanceBuilder::new(&mut ab);
//! b.edge("o1", "a", "o2");
//! b.edge("o2", "b", "o3");
//! b.edge("o3", "b", "o2");
//! let (inst, names) = b.finish();
//! let graph = CsrGraph::from(&inst);
//!
//! let q = Query::parse(&mut ab, "a.b*").unwrap();
//! let by_quotients = DerivativeEngine.eval(&q, &graph, names["o1"]);
//! assert_eq!(by_quotients.answers, ProductEngine.eval(&q, &graph, names["o1"]).answers);
//! ```

#![warn(missing_docs)]

pub mod armstrong;
pub mod axioms;
pub mod boundedness;
pub mod canonical;
pub mod charpat;
pub mod content;
pub mod derivative;
pub mod deterministic;
pub mod engine;
pub mod fo2;
pub mod general;
pub mod general_implication;
pub mod growth;
pub mod implication;
pub mod quotient;
pub mod rewrite;
pub mod source;
pub mod streaming;

pub use armstrong::{suggested_radius, ArmstrongSphere};
pub use axioms::{prove_constraint, prove_inclusion, Derivation, Prover, ProverConfig, Rule};
pub use boundedness::bounded_under_path_constraints;
pub use canonical::{lemma44_instance, CanonicalInstance};
pub use derivative::{derivative, word_derivative, DerivativeClosure};
pub use deterministic::{
    det_implies_constraint, det_implies_word, det_implies_word_eq, DetImplication, DetModel,
    DetWitness, NotWordConstraint,
};
pub use engine::{DerivativeEngine, QuotientDfaEngine, StreamingEngine};
pub use fo2::{bounded_countermodel, constraint_sentence, refutation_sentence, Fo2, Fo2Error};
pub use general_implication::{check, Refutation, Verdict, Witness};
pub use growth::{classify_regex, Growth};
pub use implication::{
    word_implies_constraint, word_implies_path, word_implies_word, WordImplication,
};
pub use quotient::{eval_derivative_csr, eval_quotient_dfa_csr};
pub use rewrite::{rewrite_to_nfa, rewrite_to_word_nfa};
pub use source::{GraphSource, InfiniteComb, InfiniteTree, LassoLine, NodeId};
pub use streaming::{StreamStatus, StreamingEval};
