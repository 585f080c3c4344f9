//! One query, compiled once.
//!
//! A cold plan asks the same few questions of the same regex from every
//! rewrite family, the cost models and the static analysis: its Thompson
//! automaton, the trimmed form, whether (and how deep) the language is
//! finite, the complete DFA, and which of the set's cache bodies prefix a
//! word of it. [`CompiledQuery`] answers each at most once, lazily, so the
//! planner is one pass over these artefacts instead of one compilation per
//! family. It is private to the crate: the public entry points build one
//! and hand it down.
//!
//! [`PlanPass`] is the same idea for what a plan proves: the `RewriteTo`
//! closures by target regex, which deciding a claim builds and
//! certification reads, and the count of claims decided.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};

use rpq_automata::{Dfa, Nfa, Regex, StateId};
use rpq_constraints::types::PathConstraint;
use rpq_constraints::{Closures, ConstraintSet};

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

    /// Decide `claim` by the plan's closures: the inclusion tests that
    /// certification runs on a winner ([`Closures::implies`]), so a claim
    /// decided here and then certified builds each closure once. The
    /// method that proved it, or `None`; counted once either way.
    pub(crate) fn decide(&self, claim: &PathConstraint) -> Option<&'static str> {
        self.claims.set(self.claims.get() + 1);
        self.closures.implies(claim).ok()
    }

    /// Claims decided so far.
    pub(crate) fn claims(&self) -> usize {
        self.claims.get()
    }
}

/// A regex with its compiled artefacts, each built at most once.
pub(crate) struct CompiledQuery<'q> {
    regex: Cow<'q, Regex>,
    /// The caller's alphabet size; see [`CompiledQuery::dfa`].
    min_sigma: usize,
    nfa: OnceCell<Nfa>,
    trimmed: OnceCell<Nfa>,
    longest: OnceCell<Option<usize>>,
    dfa: OnceCell<Dfa>,
    cache_hits: OnceCell<Vec<Vec<StateId>>>,
}

impl<'q> CompiledQuery<'q> {
    /// Compile `regex` (nothing is built yet) for plans over an alphabet
    /// of `sigma` interned labels; 0 when no caller will ask for the DFA.
    pub(crate) fn new(regex: &'q Regex, sigma: usize) -> Self {
        Self::compile(Cow::Borrowed(regex), sigma)
    }

    /// [`CompiledQuery::new`] for a regex the compilation is to keep (a
    /// rewrite candidate, a restricted query).
    pub(crate) fn owned(regex: Regex, sigma: usize) -> CompiledQuery<'static> {
        CompiledQuery::compile(Cow::Owned(regex), sigma)
    }

    fn compile(regex: Cow<'q, Regex>, sigma: usize) -> Self {
        CompiledQuery {
            regex,
            min_sigma: sigma,
            nfa: OnceCell::new(),
            trimmed: OnceCell::new(),
            longest: OnceCell::new(),
            dfa: OnceCell::new(),
            cache_hits: OnceCell::new(),
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

    /// The Thompson automaton restricted to useful states.
    pub(crate) fn trimmed(&self) -> &Nfa {
        self.trimmed.get_or_init(|| self.nfa().trim())
    }

    /// Is the language empty?
    pub(crate) fn is_empty(&self) -> bool {
        // `trim` answers a dead start state with the canonical ∅ automaton
        let t = self.trimmed();
        t.num_states() == 1 && !t.is_accepting(t.start())
    }

    /// [`Nfa::longest_accepted_len`]: the exact depth cap of a finite,
    /// non-empty language.
    pub(crate) fn longest_accepted_len(&self) -> Option<usize> {
        *self
            .longest
            .get_or_init(|| self.trimmed().longest_accepted_len_trimmed())
    }

    /// Is the language finite?
    pub(crate) fn is_finite(&self) -> bool {
        self.is_empty() || self.longest_accepted_len().is_some()
    }

    /// The complete DFA over the plan's alphabet — every interned label,
    /// widened to the query's own symbols should the caller's alphabet be
    /// short of them — so complements range over all of `Σ*`.
    pub(crate) fn dfa(&self) -> &Dfa {
        self.dfa.get_or_init(|| {
            let own = self.regex.symbols().last().map_or(0, |s| s.index() + 1);
            Dfa::from_nfa(self.nfa(), self.min_sigma.max(own).max(1))
        })
    }

    /// Per cache of `set` (index-aligned with [`ConstraintSet::caches`]):
    /// the states of [`CompiledQuery::nfa`] that some word of the cache
    /// body leads to — the product-reachability probe `q ∩ r·Σ*`, run once
    /// for both cache families. An empty entry for a non-empty body is a
    /// proof that the body prefixes no word of the query.
    pub(crate) fn cache_hits(&self, set: &ConstraintSet) -> &[Vec<StateId>] {
        self.cache_hits.get_or_init(|| {
            set.caches()
                .iter()
                .map(|c| self.nfa().reachable_via(&c.nfa))
                .collect()
        })
    }

    /// How many times the Thompson automaton was built (0 or 1).
    pub(crate) fn thompson_builds(&self) -> usize {
        usize::from(self.nfa.get().is_some())
    }

    /// How many subset constructions of the query were run (0 or 1).
    pub(crate) fn determinizations(&self) -> usize {
        usize::from(self.dfa.get().is_some())
    }
}
