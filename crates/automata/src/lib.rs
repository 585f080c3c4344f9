//! # rpq-automata
//!
//! Regular expressions and finite automata — the language-theory substrate
//! for the reproduction of *Abiteboul & Vianu, "Regular Path Queries with
//! Constraints"* (PODS'97 / JCSS'99).
//!
//! The paper assumes "familiarity with basic notions of formal language
//! theory" (Section 2.2) and leans on: regular expressions and their
//! quotients, NFAs and products of NFAs, determinization, finiteness of
//! regular languages, and (for Theorem 4.3(ii)) the PSPACE procedure for
//! regular-language inclusion. This crate provides all of it:
//!
//! * [`Alphabet`] / [`Symbol`] — interned labels shared by queries, graphs
//!   and constraints.
//! * [`Regex`] — normalized regular expressions with the paper's syntax
//!   (union `+`, concatenation, Kleene `*`), parser ([`parse_regex`]) and
//!   pretty-printer.
//! * [`Nfa`] / [`Dfa`] — Thompson construction, subset construction,
//!   minimization, products, reversal, trimming, finiteness.
//! * [`ops`] — inclusion and equivalence.
//!
//! The seeded regex and word generators of the tests and benches are
//! `rpq_testkit::random`, which the server never builds.
//!
//! The paper's quotients `p/l` as Brzozowski derivatives, Section 2.4's
//! character-level label patterns and the growth classification of
//! regular languages are no part of what is served; they live in
//! `rpq_paper`.
//!
//! ## One algorithm per question
//!
//! Each question the planner asks has one implementation; a second,
//! independent route to the same answer lives only in the tests it is held
//! against.
//!
//! | question | algorithm | held against |
//! |---|---|---|
//! | regex → NFA | Thompson, [`Nfa::thompson`] | `rpq_paper`'s derivatives and quotient closure (`tests/properties.rs`, `four_representations_agree`) |
//! | NFA → DFA | sparse subset construction, [`Dfa::from_nfa`] | the dense textbook construction, state for state (`dfa.rs`) |
//! | minimal DFA | Moore refinement, [`Dfa::minimize`] | the definition — every state reachable, every two distinguishable (`dfa.rs`) — and Brzozowski's double reversal (`minimization_algorithms_agree`) |
//! | inclusion, equivalence | antichain search, [`ops::included_antichain`] / [`ops::equivalent`] | determinize-and-product, [`ops::included_naive`], both ways (`decision_procedures_agree`) |
//!
//! ## One arena for sets of states
//!
//! Every construction above that names sets of states — the subset
//! construction, the antichain search, Moore's signature rows, the state
//! pairs of [`Dfa::product`], [`Nfa::enumerate_words`] and the `RewriteTo`
//! saturation ([`Nfa::saturate`]) — keeps them in one crate-private arena
//! per run (`sets.rs`). A set is interned once into one flat buffer and
//! named by a dense id in order of first sight; the open-addressing index
//! that finds it again compares the slices themselves and never decides
//! equality by a hash. ε-closures and symbol steps are built in
//! generation-stamped buffers the arena keeps. So a construction allocates
//! a handful of growing buffers, not a vector per subset state, and numbers
//! its states exactly as a per-set map would (the t14 bench's acceptance 6
//! counts a cold plan's buffers).
//!
//! ## Example
//!
//! ```
//! use rpq_automata::{parse_regex, Alphabet, Nfa, ops};
//!
//! let mut ab = Alphabet::new();
//! let p = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
//! let q = parse_regex(&mut ab, "(a.b)*.a.c").unwrap();
//! assert!(ops::regex_equivalent(&p, &q)); // a(ba)*c = (ab)*ac
//!
//! let nfa = Nfa::thompson(&p);
//! let a = ab.get("a").unwrap();
//! let c = ab.get("c").unwrap();
//! assert!(nfa.accepts(&[a, c]));
//! ```

#![warn(missing_docs)]

pub mod alphabet;
pub mod dfa;
pub mod elim;
pub mod nfa;
pub mod ops;
pub mod parser;
pub mod regex;
mod sets;
pub mod simplify;

pub use alphabet::{Alphabet, Symbol};
pub use dfa::Dfa;
pub use elim::nfa_to_regex;
pub use nfa::{Nfa, StateId};
pub use parser::{parse_regex, parse_regex_embedded, parse_word, ParseError};
pub use regex::Regex;
pub use simplify::{simplify, simplify_deep};
