//! Rewrite candidate generation.
//!
//! Three families, matching the paper's optimization examples:
//!
//! 1. **Boundedness reduction** (Example 2, Theorem 4.10): under word
//!    equalities, replace a recursive query with its certified finite
//!    equivalent.
//! 2. **Cached-query substitution** (Example 3): for a cache constraint
//!    `l = r`, if `L(q) = L(r · t)` for some tail `t` (computed as the
//!    existential quotient of `q` by `r`, converted back to a regex by
//!    state elimination), propose `l · t`. The paper's
//!    `a(ba)*c = (ab)*·(ac) → l·a·c` is exactly this shape.
//! 3. **Algebraic simplification**: the minimal-DFA regex (via state
//!    elimination) when it is smaller.
//!
//! Every candidate is *validated* before being offered: either by pure
//! language equivalence, or by constraint implication through
//! [`rpq_constraints::general::check`] — never by construction alone.
//! Within a plan the check reads its `RewriteTo` closures from the plan's
//! memo, so certifying the winner afterwards builds neither again, and the
//! candidates are handed to the view search, which takes a proof over
//! instead of deciding the same claim a second time.
//!
//! ## One pass over compiled artefacts
//!
//! The families read the query through one `CompiledQuery` (its Thompson
//! automaton, finiteness and complete DFA, each built at most once per
//! plan) and the constraints through what the [`ConstraintSet`] compiled
//! once per set ([`ConstraintSet::caches`]: each cache body with its
//! automaton). Family 2 starts from the probe `q ∩ r·Σ*` — the states of
//! `q` some word of the body `r` leads to; no such state, no quotient, and
//! the same probe gates the view search of [`crate::views`]. Family 3
//! skips a query that is a single word: the minimal-DFA regex of a word is
//! that word, so there is nothing smaller to offer.

use rpq_automata::elim::nfa_to_regex;
use rpq_automata::ops::{equivalent, included_antichain};
use rpq_automata::{Alphabet, Nfa, Regex};
use rpq_constraints::general::Budget;
use rpq_constraints::types::PathConstraint;
use rpq_constraints::{decide_boundedness, Boundedness, ConstraintSet};

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
    /// Cache-label substitution.
    CacheSubstitution,
    /// Pure language-level simplification.
    Simplification,
    /// Section 5 view cover (Boolean combination of caches, possibly with
    /// a cache-free remainder arm) — see [`crate::views`].
    ViewCover,
    /// Boundedness under full path constraints — the budgeted semi-decision
    /// for the problem the paper leaves open at the end of Section 4.3.
    GeneralBoundedness,
}

/// Generate validated candidates equivalent to `q` under `set`.
pub fn candidates(
    set: &ConstraintSet,
    q: &Regex,
    alphabet: &Alphabet,
    budget: &Budget,
) -> Vec<Candidate> {
    candidates_compiled(
        &PlanPass::new(set),
        &CompiledQuery::new(q, alphabet.len()),
        alphabet,
        budget,
    )
}

/// [`candidates`] over a query the planner has compiled, within its pass.
pub(crate) fn candidates_compiled(
    pass: &PlanPass<'_>,
    cq: &CompiledQuery<'_>,
    alphabet: &Alphabet,
    budget: &Budget,
) -> Vec<Candidate> {
    let set = pass.set();
    let q = cq.regex();
    let mut out = Vec::new();

    // 1. boundedness reduction (word equalities only)
    if set.all_word_equalities() && !set.is_empty() {
        if let Ok(Boundedness::Bounded { equivalent, words }) = decide_boundedness(set, q, alphabet)
        {
            if words.len() <= 64 {
                out.push(Candidate {
                    query: equivalent,
                    rule: RewriteRule::Boundedness,
                    proof: "theorem-4.10-certified",
                });
            }
        }
    }

    // 1b. boundedness under full path constraints (the open-problem
    // semi-decision): only when the word-equality fast path above does not
    // apply, the set actually has constraints to exploit, and the language
    // is not finite already.
    if !set.is_empty() && !set.all_word_equalities() && !cq.is_finite() {
        if let rpq_constraints::GeneralBoundedness::Bounded { equivalent, proof } =
            rpq_constraints::bounded_beyond_finite(set, q, cq.nfa(), alphabet, budget, 4, 24)
        {
            out.push(Candidate {
                query: equivalent,
                rule: RewriteRule::GeneralBoundedness,
                proof,
            });
        }
    }

    // 2. cached-query substitution: equalities l = r with l a single label
    for (cache, starts) in set.caches().iter().zip(cq.cache_hits(set)) {
        // tail t = ∃-quotient of q by r; candidate = l · t
        if starts.is_empty() {
            continue;
        }
        let (q_nfa, body) = (cq.nfa(), &cache.body);
        let mut quot = Nfa::empty();
        let off = quot.add_nfa(q_nfa);
        for &s in starts {
            quot.add_eps(quot.start(), s + off);
        }
        // Prefer a *small finite* tail: greedily accumulate the
        // quotient's shortest words until `r · t ≡ q` (this recovers the
        // paper's `l·a·c` from `a(ba)*c`); fall back to the full
        // quotient expression.
        let mut tail: Option<Regex> = None;
        let mut words: Vec<Vec<rpq_automata::Symbol>> = Vec::new();
        for w in quot.enumerate_words(12, 16) {
            // only tails that stay inside q are usable: r·w ⊆ q
            let extension = Nfa::thompson(&body.clone().then(Regex::word(&w)));
            if included_antichain(&extension, q_nfa).is_err() {
                continue;
            }
            words.push(w);
            let t = Regex::from_finite_language(words.clone());
            if equivalent(q_nfa, &Nfa::thompson(&body.clone().then(t.clone()))).is_ok() {
                tail = Some(t);
                break;
            }
        }
        if tail.is_none() {
            let t = nfa_to_regex(&quot);
            if t != Regex::Empty
                && equivalent(q_nfa, &Nfa::thompson(&body.clone().then(t.clone()))).is_ok()
            {
                tail = Some(t);
            }
        }
        let Some(tail) = tail else { continue };
        let candidate = Regex::sym(cache.label).then(tail);
        // validate E ⊨ q = candidate through the implication engine
        let claim = PathConstraint::equality(q.clone(), candidate.clone());
        if let Some(method) = pass.decide(&claim, budget, None) {
            out.push(Candidate {
                query: candidate,
                rule: RewriteRule::CacheSubstitution,
                proof: method,
            });
        }
    }

    // 3. algebraic simplification via minimal DFA → regex (a single word
    // is its own minimal-DFA regex: nothing to offer)
    if q.as_word().is_none() {
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
    use rpq_automata::parse_regex;
    use rpq_constraints::general::check;

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
        let cands = candidates(&set, &q, &ab, &Budget::default());
        let bounded = cands
            .iter()
            .find(|c| c.rule == RewriteRule::Boundedness)
            .expect("boundedness candidate");
        let expect = parse_regex(&mut ab.clone(), "l + ()").unwrap();
        assert!(regex_equivalent(&bounded.query, &expect));
    }

    #[test]
    fn cache_candidate_for_example3() {
        // {l = (ab)*} and q = a(ba)*c → l.a.c
        let (ab, set, q) = setup(&["l = (a.b)*"], "a.(b.a)*.c");
        let cands = candidates(&set, &q, &ab, &Budget::default());
        let cache = cands
            .iter()
            .find(|c| c.rule == RewriteRule::CacheSubstitution)
            .expect("cache candidate");
        // candidate must start with the cache label
        let l = ab.get("l").unwrap();
        match &cache.query {
            Regex::Concat(parts) => assert_eq!(parts[0], Regex::sym(l)),
            other => panic!("expected concatenation, got {other:?}"),
        }
        let _ = set;
    }

    #[test]
    fn simplification_candidate_shrinks() {
        let (ab, set, q) = setup(&[], "a.a* + a.a*.a.a* + a");
        let cands = candidates(&set, &q, &ab, &Budget::default());
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
        let cands = candidates(&set, &q, &ab, &Budget::default());
        // a.b is already minimal and there are no constraints
        assert!(cands.iter().all(|c| c.rule == RewriteRule::Simplification) || cands.is_empty());
    }

    #[test]
    fn all_candidates_are_equivalent_under_constraints() {
        let (ab, set, q) = setup(&["l = (a.b)*", "m.m = m"], "a.(b.a)*.c");
        for c in candidates(&set, &q, &ab, &Budget::default()) {
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
        let cands = candidates(&set, &q, &ab, &Budget::default());
        let gb = cands
            .iter()
            .find(|c| c.rule == RewriteRule::GeneralBoundedness)
            .expect("general-boundedness candidate");
        assert!(gb.query.finite_language(8).is_some(), "{:?}", gb.query);
        let claim = PathConstraint::equality(q.clone(), gb.query.clone());
        assert!(check(&set, &claim, &Budget::default()).is_implied());
    }
}
