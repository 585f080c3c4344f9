//! One query, compiled once.
//!
//! A cold plan asks the same few questions of the same regex from every
//! rewrite family, the view search, the cost models and the static
//! analysis. Most are facts of the regex — whether (and how deep) the
//! language is finite, the size and label traffic of its Thompson
//! automaton, the labels that begin and end a word — and
//! [`CompiledQuery`] reads them off the tree when it is made
//! ([`crate::shape`]), so scoring a candidate builds no automaton. The
//! rest are artefacts: the Thompson automaton, its trimmed form (the
//! automaton itself unless a subterm denotes `∅`) and the complete DFA,
//! each built at most once, lazily, for a query the plan probes, tests or
//! runs. It is private to the crate: the public entry points build one and
//! hand it down.
//!
//! [`PlanPass`] is the same idea for what a plan proves: the `RewriteTo`
//! closures by target regex, which deciding a claim builds (unless each
//! direction is one rewrite step) and certification reads, and the count
//! of claims decided.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};

use rpq_automata::{Dfa, Nfa, Regex, Symbol};
use rpq_constraints::types::PathConstraint;
use rpq_constraints::{Closures, ConstraintSet};
use rpq_graph::LabelStats;

use crate::shape::{is_minimum, label_mass, labels, Shape};

/// One plan's proof state, made where the plan starts and dropped with it:
/// the closure memo every decision and the certification read, and how many
/// claims `E ⊨ q = c` were decided.
pub(crate) struct PlanPass<'s> {
    closures: Closures<'s>,
    claims: Cell<usize>,
}

impl<'s> PlanPass<'s> {
    /// A pass over `set` that has built and decided nothing yet.
    pub(crate) fn new(set: &'s ConstraintSet) -> Self {
        PlanPass {
            closures: Closures::new(set),
            claims: Cell::new(0),
        }
    }

    /// The constraints the plan is made under.
    pub(crate) fn set(&self) -> &'s ConstraintSet {
        self.closures.set()
    }

    /// The plan's closure memo.
    pub(crate) fn closures(&self) -> &Closures<'s> {
        &self.closures
    }

    /// Decide `claim` within the plan: by the method certification runs on
    /// a winner ([`Closures::implies`]) — one rewrite step where a
    /// direction is a rule of `E` right-concatenated with a tail, the
    /// closure test otherwise — so a claim decided here and then certified
    /// builds each closure it needs once. The method that proved it, or
    /// `None`; counted once either way.
    pub(crate) fn decide(&self, claim: &PathConstraint) -> Option<&'static str> {
        self.claims.set(self.claims.get() + 1);
        self.closures.implies(claim).ok()
    }

    /// Claims decided so far.
    pub(crate) fn claims(&self) -> usize {
        self.claims.get()
    }
}

/// A regex with its compiled artefacts, each built at most once, and the
/// facts its [`Shape`] reads off the tree without building any.
pub(crate) struct CompiledQuery<'q> {
    regex: Cow<'q, Regex>,
    shape: Shape,
    /// The caller's alphabet size; see [`CompiledQuery::dfa`].
    min_sigma: usize,
    nfa: OnceCell<Nfa>,
    trimmed: OnceCell<Nfa>,
    dfa: OnceCell<Dfa>,
}

impl<'q> CompiledQuery<'q> {
    /// Compile `regex` (no automaton is built yet) for plans over an
    /// alphabet of `sigma` interned labels; 0 when no caller will ask for
    /// the DFA.
    pub(crate) fn new(regex: &'q Regex, sigma: usize) -> Self {
        Self::compile(Cow::Borrowed(regex), sigma)
    }

    /// [`CompiledQuery::new`] for a regex the compilation is to keep (a
    /// rewrite candidate, a restricted query).
    pub(crate) fn owned(regex: Regex, sigma: usize) -> CompiledQuery<'static> {
        CompiledQuery::compile(Cow::Owned(regex), sigma)
    }

    fn compile(regex: Cow<'q, Regex>, sigma: usize) -> Self {
        let shape = Shape::of(&regex);
        #[cfg(debug_assertions)]
        crate::shape::check(&regex, &shape);
        CompiledQuery {
            regex,
            shape,
            min_sigma: sigma,
            nfa: OnceCell::new(),
            trimmed: OnceCell::new(),
            dfa: OnceCell::new(),
        }
    }

    /// The query.
    pub(crate) fn regex(&self) -> &Regex {
        &self.regex
    }

    /// Its Thompson automaton.
    pub(crate) fn nfa(&self) -> &Nfa {
        self.nfa.get_or_init(|| Nfa::thompson(&self.regex))
    }

    /// The Thompson automaton restricted to useful states: the automaton
    /// itself when no subterm denotes `∅` ([`Shape::is_trim`]).
    pub(crate) fn trimmed(&self) -> &Nfa {
        if self.shape.is_trim() {
            return self.nfa();
        }
        self.trimmed.get_or_init(|| self.nfa().trim())
    }

    /// The regex and [`CompiledQuery::trimmed`], moved out of the
    /// compilation.
    pub(crate) fn into_trimmed(self) -> (Regex, Nfa) {
        self.trimmed();
        let built = if self.shape.is_trim() {
            self.nfa
        } else {
            self.trimmed
        };
        let nfa = built.into_inner().expect("`trimmed` built it");
        (self.regex.into_owned(), nfa)
    }

    /// The states of its Thompson automaton, built or not.
    pub(crate) fn states(&self) -> usize {
        self.shape.states()
    }

    /// Is the language empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// [`Nfa::longest_accepted_len`]: the exact depth cap of a finite,
    /// non-empty language.
    pub(crate) fn longest_accepted_len(&self) -> Option<usize> {
        self.shape.longest_word()
    }

    /// Is the language finite?
    pub(crate) fn is_finite(&self) -> bool {
        self.shape.is_finite()
    }

    /// Does no subterm denote `∅` ([`Shape::is_trim`])?
    pub(crate) fn is_trim(&self) -> bool {
        self.shape.is_trim()
    }

    /// Is no regex of the language smaller than the query?
    /// [`crate::shape::is_minimum`], read off the tree.
    pub(crate) fn is_minimum(&self) -> bool {
        is_minimum(&self.regex, &self.shape)
    }

    /// The edges of `stats` on the Thompson automaton's labeled
    /// transitions, summed: read off the label leaves, or — on a tree
    /// outside the normal form, where two leaves can be one transition —
    /// swept off the automaton.
    pub(crate) fn label_mass(&self, stats: &LabelStats) -> usize {
        if self.shape.distinct_leaves() {
            return label_mass(&self.regex, stats);
        }
        let nfa = self.nfa();
        (0..nfa.num_states() as u32)
            .flat_map(|s| nfa.transitions(s))
            .map(|&(sym, _)| stats.edge_count(sym))
            .sum()
    }

    /// The labels that begin a word ([`Nfa::entry_symbols`] of
    /// [`CompiledQuery::trimmed`]) and those that end one (of its
    /// reversal), sorted and deduplicated.
    pub(crate) fn label_groups(&self) -> (Vec<Symbol>, Vec<Symbol>) {
        (labels(&self.regex, false), labels(&self.regex, true))
    }

    /// The complete DFA over the plan's alphabet — every interned label,
    /// widened to the query's own symbols should the caller's alphabet be
    /// short of them — so complements range over all of `Σ*`.
    pub(crate) fn dfa(&self) -> &Dfa {
        self.dfa
            .get_or_init(|| Dfa::from_nfa(self.nfa(), self.sigma()))
    }

    /// The alphabet size [`CompiledQuery::dfa`] is built over.
    pub(crate) fn sigma(&self) -> usize {
        let own = self.regex.symbols().last().map_or(0, |s| s.index() + 1);
        self.min_sigma.max(own).max(1)
    }

    /// How many times the Thompson automaton was built (0 or 1).
    pub(crate) fn thompson_builds(&self) -> usize {
        usize::from(self.nfa.get().is_some())
    }

    /// How many times the automaton was trimmed (0 or 1): never when
    /// it is trim as built.
    pub(crate) fn trims(&self) -> usize {
        usize::from(self.trimmed.get().is_some())
    }

    /// How many subset constructions of the query were run (0 or 1).
    pub(crate) fn determinizations(&self) -> usize {
        usize::from(self.dfa.get().is_some())
    }
}
