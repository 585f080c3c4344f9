//! Rewrite candidate generation.
//!
//! Three families, matching the paper's optimization examples:
//!
//! 1. **Boundedness reduction** (Example 2, Theorem 4.10): under word
//!    equalities, replace the query with its finite equivalent of at most
//!    64 words — decided on the fold of the equalities (one product with
//!    an automaton of at most `1 + Σ|sides|` states) and certified through
//!    the plan's closures, like family 2.
//! 2. **General boundedness**: under full path constraints, the budgeted
//!    semi-decision for the problem the paper leaves open at the end of
//!    Section 4.3 — a finite cut of the query whose equivalence the
//!    plan's closures decide.
//! 3. **Algebraic simplification**: the minimal-DFA regex (via state
//!    elimination) when it is smaller — sought only when a smaller regex
//!    of the language can exist at all.
//!
//! Cached-query substitution (Example 3: `a(ba)*c = (ab)*·(ac) → l·a·c`) is
//! not a family here: it is the one-cache total cover of the Section 5 view
//! search ([`crate::views`]), the only code that substitutes a cache.
//!
//! Every candidate is *validated* before being offered: either by pure
//! language equivalence, or by constraint implication through the plan's
//! closure test ([`rpq_constraints::Closures::implies`], the two inclusion
//! tests certification runs) — never by construction alone. The test reads
//! its `RewriteTo` closures from the plan's memo, so certifying the winner
//! afterwards builds neither again.
//!
//! ## One pass over compiled artefacts
//!
//! The families read the query through one `CompiledQuery` (its
//! finiteness, read off the regex, and its Thompson automaton and complete
//! DFA, each built at most once per plan). Family 3 first asks the regex
//! whether any regex of its language could be smaller: for a finite
//! language a count of the leaves, concatenations, unions and `ε`s every
//! such regex needs bounds its size from below (`shape::is_minimum`), and
//! a query that small — every word among them — has no smaller
//! equivalent, so the subset construction, Moore minimization and state
//! elimination would find nothing to offer and are not run. Debug builds
//! run them anyway and assert that they find nothing smaller.

use rpq_automata::elim::nfa_to_regex;
use rpq_automata::ops::equivalent;
use rpq_automata::{Nfa, Regex};
use rpq_constraints::{decide_boundedness, Boundedness};

use crate::compiled::{CompiledQuery, PlanPass};

/// A validated rewrite candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The equivalent query.
    pub query: Regex,
    /// Which rule produced it.
    pub rule: RewriteRule,
    /// How its validity was established.
    pub proof: &'static str,
}

/// The rewrite family that produced a candidate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RewriteRule {
    /// Theorem 4.10 finite equivalent.
    Boundedness,
    /// Cache-label substitution (Example 3): a view cover that answers the
    /// whole query from one cache — see [`crate::views`].
    CacheSubstitution,
    /// Pure language-level simplification.
    Simplification,
    /// Section 5 view cover (Boolean combination of several caches, or a
    /// cache with a cache-free remainder arm) — see [`crate::views`].
    ViewCover,
    /// Boundedness under full path constraints — the budgeted semi-decision
    /// for the problem the paper leaves open at the end of Section 4.3.
    GeneralBoundedness,
}

/// Validated candidates equivalent to the query `cq` under the pass's
/// constraints.
pub(crate) fn candidates_compiled(pass: &PlanPass<'_>, cq: &CompiledQuery<'_>) -> Vec<Candidate> {
    let set = pass.set();
    let q = cq.regex();
    let mut out = Vec::new();

    // 1. boundedness reduction (word equalities only)
    if set.all_word_equalities() && !set.is_empty() {
        if let Ok(Boundedness::Bounded { equivalent, .. }) =
            decide_boundedness(pass.closures(), q, 64)
        {
            out.push(Candidate {
                query: equivalent,
                rule: RewriteRule::Boundedness,
                proof: "theorem-4.10-certified",
            });
        }
    }

    // 2. boundedness under full path constraints (the open-problem
    // semi-decision): only when the word-equality fast path above does not
    // apply, the set actually has constraints to exploit, and the language
    // is not finite already.
    if !set.is_empty() && !set.all_word_equalities() && !cq.is_finite() {
        if let rpq_constraints::GeneralBoundedness::Bounded { equivalent, proof } =
            rpq_constraints::bounded_beyond_finite(pass.closures(), q, cq.nfa(), 4, 24)
        {
            out.push(Candidate {
                query: equivalent,
                rule: RewriteRule::GeneralBoundedness,
                proof,
            });
        }
    }

    // 3. algebraic simplification via minimal DFA → regex, offered only
    // when smaller: nothing to look for when no regex of the language is
    // smaller than the query (a finite language's count, `is_minimum`)
    if cq.is_minimum() {
        #[cfg(debug_assertions)]
        crate::shape::check_minimum(q, cq.sigma());
    } else {
        let simplified = nfa_to_regex(&cq.dfa().minimize().to_nfa());
        if simplified.size() < q.size() && equivalent(cq.nfa(), &Nfa::thompson(&simplified)).is_ok()
        {
            out.push(Candidate {
                query: simplified,
                rule: RewriteRule::Simplification,
                proof: "language-equivalence",
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::ops::regex_equivalent;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_constraints::general::Budget;
    use rpq_constraints::types::PathConstraint;
    use rpq_constraints::ConstraintSet;
    use rpq_paper::general_implication::check;

    fn candidates(set: &ConstraintSet, q: &Regex, alphabet: &Alphabet) -> Vec<Candidate> {
        candidates_compiled(&PlanPass::new(set), &CompiledQuery::new(q, alphabet.len()))
    }

    fn setup(lines: &[&str], query: &str) -> (Alphabet, ConstraintSet, Regex) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let q = parse_regex(&mut ab, query).unwrap();
        (ab, set, q)
    }

    #[test]
    fn boundedness_candidate_for_example2_shape() {
        // {ll = l} ⊨ l* = l + ε (equality version of Example 2)
        let (ab, set, q) = setup(&["l.l = l"], "l*");
        let cands = candidates(&set, &q, &ab);
        let bounded = cands
            .iter()
            .find(|c| c.rule == RewriteRule::Boundedness)
            .expect("boundedness candidate");
        let expect = parse_regex(&mut ab.clone(), "l + ()").unwrap();
        assert!(regex_equivalent(&bounded.query, &expect));
    }

    #[test]
    fn simplification_candidate_shrinks() {
        let (ab, set, q) = setup(&[], "a.a* + a.a*.a.a* + a");
        let cands = candidates(&set, &q, &ab);
        let simp = cands
            .iter()
            .find(|c| c.rule == RewriteRule::Simplification)
            .expect("simplification candidate");
        assert!(simp.query.size() < q.size());
        assert!(regex_equivalent(&simp.query, &q));
    }

    #[test]
    fn no_candidates_without_opportunity() {
        let (ab, set, q) = setup(&[], "a.b");
        let cands = candidates(&set, &q, &ab);
        // a.b is already minimal and there are no constraints
        assert!(cands.iter().all(|c| c.rule == RewriteRule::Simplification) || cands.is_empty());
    }

    #[test]
    fn all_candidates_are_equivalent_under_constraints() {
        let (ab, set, q) = setup(&["l = (a.b)*", "m.m = m"], "a.(b.a)*.c");
        for c in candidates(&set, &q, &ab) {
            let claim = PathConstraint::equality(q.clone(), c.query.clone());
            assert!(
                check(&set, &claim, &Budget::default()).is_implied(),
                "candidate {:?} not implied",
                c.rule
            );
        }
    }
    #[test]
    fn general_boundedness_candidate_for_path_inclusion() {
        // A genuine path constraint (not a word equality): a* ⊆ a + ε.
        // The Example-2 shape, but outside Theorem 4.10's fragment —
        // handled by the open-problem semi-decision.
        let (ab, set, q) = setup(&["a* <= a + ()"], "a*");
        let cands = candidates(&set, &q, &ab);
        let gb = cands
            .iter()
            .find(|c| c.rule == RewriteRule::GeneralBoundedness)
            .expect("general-boundedness candidate");
        assert!(gb.query.finite_language(8).is_some(), "{:?}", gb.query);
        let claim = PathConstraint::equality(q.clone(), gb.query.clone());
        assert!(check(&set, &claim, &Budget::default()).is_implied());
    }
}
