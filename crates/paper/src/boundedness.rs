//! Boundedness under **full path constraints** — the problem the paper
//! leaves open ("It remains open whether boundedness of a path query
//! assuming a set of full path constraints is decidable", end of
//! Section 4.3) — as a budgeted semi-decision from a constraint set and a
//! regex. The planner asks the same question of a query it has compiled,
//! through `rpq_constraints::bounded_beyond_finite` and its plan's closures.

use rpq_automata::{Nfa, Regex};
use rpq_constraints::{bounded_beyond_finite, Closures, ConstraintSet, GeneralBoundedness};

/// Budgeted semi-decision of boundedness under arbitrary path constraints:
/// [`GeneralBoundedness::AlreadyFinite`] when `L(p)` is finite, otherwise
/// [`bounded_beyond_finite`] over a fresh [`Closures`] memo of `set` (the
/// Theorem 4.10 decision on word equalities, certified finite cuts of
/// `L(p)` on any other set).
pub fn bounded_under_path_constraints(
    set: &ConstraintSet,
    p: &Regex,
    max_candidate_len: usize,
    word_cap: usize,
) -> GeneralBoundedness {
    let p_nfa = Nfa::thompson(p);
    if p_nfa.is_finite_lang() {
        return GeneralBoundedness::AlreadyFinite;
    }
    bounded_beyond_finite(&Closures::new(set), p, &p_nfa, max_candidate_len, word_cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Alphabet;

    fn setup(lines: &[&str], query: &str) -> (Alphabet, ConstraintSet, Regex) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let p = rpq_automata::parse_regex(&mut ab, query).unwrap();
        (ab, set, p)
    }

    #[test]
    fn general_boundedness_word_equality_fast_path() {
        // {ll = l}: l* collapses — routed through Theorem 4.10.
        let (_, set, p) = setup(&["l.l = l"], "l*");
        match bounded_under_path_constraints(&set, &p, 4, 32) {
            GeneralBoundedness::Bounded { equivalent, proof } => {
                assert_eq!(proof, "theorem-4.10");
                assert!(equivalent.finite_language(8).is_some());
            }
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn general_boundedness_with_path_inclusions() {
        // A genuine PATH constraint (star on the left): a* ⊆ a + ε makes a*
        // bounded — outside Theorem 4.10's fragment, certified by the
        // closure test.
        let (_, set, p) = setup(&["a* <= a + ()"], "a*");
        match bounded_under_path_constraints(&set, &p, 3, 16) {
            GeneralBoundedness::Bounded { equivalent, proof } => {
                assert_ne!(proof, "theorem-4.10");
                let words = equivalent.finite_language(8).expect("finite");
                assert!(words.len() <= 2, "{words:?}");
            }
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn general_boundedness_already_finite() {
        let (_, set, p) = setup(&["a.a = a"], "a.b + b");
        assert!(matches!(
            bounded_under_path_constraints(&set, &p, 3, 16),
            GeneralBoundedness::AlreadyFinite
        ));
    }

    #[test]
    fn general_boundedness_unknown_when_actually_unbounded() {
        // No constraint helps (a+b)*: honest Unknown outside the exact
        // fragment (the set mixes an inclusion, so Theorem 4.10 is off).
        let (_, set, p) = setup(&["c <= d"], "(a+b)*");
        assert!(matches!(
            bounded_under_path_constraints(&set, &p, 2, 12),
            GeneralBoundedness::Unknown
        ));
    }

    #[test]
    fn general_boundedness_unbounded_via_theorem_410() {
        // {ab = ba} bounds nothing about a*: the a^k stay distinct, and the
        // exact decision certifies Unbounded.
        let (_, set, p) = setup(&["a.b = b.a"], "a*");
        assert!(matches!(
            bounded_under_path_constraints(&set, &p, 3, 16),
            GeneralBoundedness::Unbounded
        ));
    }
}
