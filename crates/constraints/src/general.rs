//! The refuter's budgets for general path-constraint implication
//! (Theorem 4.2).
//!
//! Theorem 4.2's decision — the closure test ([`Closures::implies`])
//! proves, a chase-style counterexample search refutes — is
//! `rpq_paper::general_implication::check`, which the server never runs.
//! [`Budget`] bounds that search; it stays here because the planner's
//! `optimize_with_stats` takes one.
//!
//! [`Closures::implies`]: crate::rewrite::Closures::implies

/// Budgets for the refuter's counterexample search.
#[derive(Clone, Debug)]
pub struct Budget {
    /// How many seed words of `L(p)` to chase.
    pub chase_seeds: usize,
    /// Max seed word length.
    pub seed_len: usize,
    /// Repair iterations per chase.
    pub repairs: usize,
    /// Random instances to try as counterexamples.
    pub random_tries: usize,
    /// Nodes per random instance.
    pub random_nodes: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            chase_seeds: 24,
            seed_len: 8,
            repairs: 60,
            random_tries: 400,
            random_nodes: 5,
        }
    }
}
