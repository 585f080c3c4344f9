//! The boundedness problem under word equalities — Theorem 4.10.
//!
//! *It is decidable, given a finite set `E` of word equalities and a regular
//! path expression `p`, whether `E ⊨ p = q` for some query `q` with finite
//! `L(q)`; such a `q` can be constructed in EXPTIME.*
//!
//! The paper's proof quotients `L(p)` by the words that leave the K-sphere
//! of the Armstrong instance (Lemma 4.9). This module quotients it by the
//! words that leave the *fold*, the finite part of that instance, which
//! needs no radius (the construction and the argument that it is the
//! Armstrong instance are in [`crate::armstrong`]):
//! 1. build the fold of `E`;
//! 2. walk the product of `p`'s automaton with the fold from (start, `ε̂`):
//!    a pair whose `p`-state accepts has reached a fold node, and an
//!    `a`-transition of `p` that its fold node `n` lacks is an exit — the
//!    word leaves the fold at `n` by `a` and goes on in the free tree;
//! 3. a word's class is (the fold node where it leaves, the rest of the
//!    word), and the fold is finite, so `p` is bounded iff the quotient of
//!    `L(p)` by the words that leave the fold — the tails `p` reads on from
//!    its exits — is finite;
//! 4. when bounded, `q` is the union of the shortest-lex words of the
//!    classes `p` reaches: the representative of each reached fold node,
//!    and `rep(n)·a·t` for each exit and tail `t`, at most `word_cap` of
//!    them;
//! 5. certify `E ⊨ p = q` by [`Closures::implies`] — one rewrite step
//!    where a direction is a rule of `E` right-concatenated with a tail,
//!    otherwise the closure test, Theorem 4.3's exact decision on a word
//!    set — the returned result is *verified*, not just constructed.
//!
//! Deciding thus takes one product of `p` with a fold of at most
//! `1 + Σ|sides|` nodes and a finiteness test, which is polynomial. This
//! follows from the fold argument and is this repository's observation, not
//! a claim of the paper, whose EXPTIME bound is for *constructing* `q`:
//! its words can be many, hence the cap.

use rpq_automata::{Nfa, Regex, StateId, Symbol};

use crate::armstrong::Fold;
use crate::rewrite::Closures;
use crate::types::PathConstraint;

/// Outcome of the boundedness decision.
#[derive(Clone, Debug)]
pub enum Boundedness {
    /// `E ⊨ p = equivalent`, with `L(equivalent)` finite (both inclusions
    /// certified by the closure test before returning).
    Bounded {
        /// The equivalent nonrecursive query.
        equivalent: Regex,
        /// Its (finite) language, as words, shortest first.
        words: Vec<Vec<Symbol>>,
    },
    /// Not bounded: the quotient of `L(p)` by the words that leave the
    /// fold is infinite, so `L(p)` meets infinitely many classes.
    Unbounded,
}

/// Errors from [`decide_boundedness`].
#[derive(Debug)]
pub enum BoundednessError {
    /// Theorem 4.10 applies to word equalities only.
    NotWordEqualities,
    /// `p` is bounded, but its equivalent has more than `cap` words.
    TooManyWords {
        /// The word cap that bound.
        cap: usize,
    },
    /// The certification step failed — would indicate a bug, never expected.
    CertificationFailed {
        /// A word the closure test rejected.
        witness: Vec<Symbol>,
    },
}

impl std::fmt::Display for BoundednessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundednessError::NotWordEqualities => {
                write!(f, "Theorem 4.10 requires word equalities")
            }
            BoundednessError::TooManyWords { cap } => {
                write!(f, "the finite equivalent has more than {cap} words")
            }
            BoundednessError::CertificationFailed { .. } => {
                write!(f, "internal error: certification failed")
            }
        }
    }
}

impl std::error::Error for BoundednessError {}

/// Decide boundedness of `p` under the word equalities of `closures`' set
/// (Theorem 4.10), spelling an equivalent of at most `word_cap` words and
/// certifying it through `closures`. See the module docs for the algorithm.
pub fn decide_boundedness(
    closures: &Closures<'_>,
    p: &Regex,
    word_cap: usize,
) -> Result<Boundedness, BoundednessError> {
    let fold = Fold::new(closures.set()).ok_or(BoundednessError::NotWordEqualities)?;

    // 2. the walk of p × fold
    let mut tails = Nfa::thompson(p);
    let width = fold.nodes();
    let mut seen = vec![false; tails.num_states() * width];
    let mut stack = Vec::new();
    let mut visit = |stack: &mut Vec<(StateId, usize)>, s: StateId, n: usize| {
        if !std::mem::replace(&mut seen[s as usize * width + n], true) {
            stack.push((s, n));
        }
    };
    visit(&mut stack, tails.start(), 0);
    let mut reached = Vec::new();
    let mut exits = Vec::new();
    while let Some((s, n)) = stack.pop() {
        if tails.is_accepting(s) {
            reached.push(n);
        }
        for &t in tails.eps_transitions(s) {
            visit(&mut stack, t, n);
        }
        for &(a, t) in tails.transitions(s) {
            match fold.step(n, a) {
                Some(m) => visit(&mut stack, t, m),
                None => exits.push((n, a, t)),
            }
        }
    }

    // 3. the quotient: what `p` reads on from its exits
    exits.sort_unstable();
    exits.dedup();
    read_on(&mut tails, &exits);
    if !tails.is_finite_lang() {
        return Ok(Boundedness::Unbounded);
    }

    // 4. the classes' words, the tails of each (node, label) exit together
    reached.sort_unstable();
    reached.dedup();
    let mut words: Vec<Vec<Symbol>> = reached.iter().map(|&n| fold.rep(n).to_vec()).collect();
    for exit in exits.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
        if words.len() > word_cap {
            break;
        }
        let (n, a, _) = exit[0];
        read_on(&mut tails, exit);
        let longest = tails.longest_accepted_len().unwrap_or(0);
        let room = (word_cap - words.len()).saturating_add(1);
        for tail in tails.enumerate_words(longest, room) {
            words.push([fold.rep(n), &[a], &tail].concat());
        }
    }
    if words.len() > word_cap {
        return Err(BoundednessError::TooManyWords { cap: word_cap });
    }
    words.sort_unstable_by(|x, y| x.len().cmp(&y.len()).then_with(|| x.cmp(y)));
    let equivalent = Regex::from_finite_language(words.clone());

    // 5. certify E ⊨ p = equivalent
    closures
        .implies(&PathConstraint::equality(p.clone(), equivalent.clone()))
        .map_err(|witness| BoundednessError::CertificationFailed { witness })?;
    Ok(Boundedness::Bounded { equivalent, words })
}

/// Restart `p`'s automaton at a fresh state with an ε-edge to the state
/// each of `exits` goes on from.
fn read_on(p: &mut Nfa, exits: &[(usize, Symbol, StateId)]) {
    let start = p.add_state(false);
    for &(_, _, t) in exits {
        p.add_eps(start, t);
    }
    p.set_start(start);
}

/// Outcome of the budgeted semi-decision for boundedness under **full path
/// constraints** — the problem the paper leaves open ("It remains open
/// whether boundedness of a path query assuming a set of full path
/// constraints is decidable", end of Section 4.3).
#[derive(Clone, Debug)]
pub enum GeneralBoundedness {
    /// `E ⊨ p = equivalent` with `L(equivalent)` finite, certified by the
    /// named engine (`"one-step"`, `"word-exact"` or `"regex-saturation"`
    /// from [`Closures::implies`], or `"theorem-4.10"` when the
    /// word-equality fast path applied).
    Bounded {
        /// The certified nonrecursive equivalent.
        equivalent: Regex,
        /// Which engine certified the equality.
        proof: &'static str,
    },
    /// `L(p)` is already finite — trivially bounded, no constraints needed.
    AlreadyFinite,
    /// Certified unbounded (only produced on the word-equality fragment,
    /// where Theorem 4.10 decides exactly).
    Unbounded,
    /// Budgets exhausted — the general problem is open, so `Unknown` is an
    /// honest answer outside the decidable fragment.
    Unknown,
}

/// Budgeted semi-decision of boundedness under arbitrary path constraints,
/// for a caller that holds `p`'s automaton and already knows `L(p)` to be
/// infinite (the planner compiles both once per query): never
/// [`GeneralBoundedness::AlreadyFinite`].
///
/// Strategy:
/// 1. Word-equality sets → the exact Theorem 4.10 decision (complete on
///    that fragment: `Bounded` or `Unbounded`, and `Unknown` only when the
///    equivalent has more than `word_cap` words).
/// 2. Otherwise, enumerate candidate finite equivalents `q_k = L(p) ∩ Σ^{≤k}`
///    for growing `k` and prove `E ⊨ p = q_k` by the closure test
///    ([`Closures::implies`]) — sound, so a `Bounded` answer is
///    trustworthy; no cut is refuted, and when none is proved the answer
///    is `Unknown`.
///
/// The cuts are decided through `closures` — the planner passes its plan's
/// memo — so `closure(p)` is built at most once for all of them. The
/// candidate family `L(p) ∩ Σ^{≤k}` is complete *relative to the closure*
/// whenever some finite subset of `L(p)` is equivalent to `p` under `E` —
/// which covers every example in the paper (a constraint that collapses `p`
/// into fresh labels outside `L(p)` would need a richer candidate
/// generator; the view-cover search in `rpq-optimizer` handles that
/// separately for cache shapes).
pub fn bounded_beyond_finite(
    closures: &Closures<'_>,
    p: &Regex,
    p_nfa: &Nfa,
    max_candidate_len: usize,
    word_cap: usize,
) -> GeneralBoundedness {
    let set = closures.set();
    // Exact fragment: Theorem 4.10.
    if set.all_word_equalities() && !set.is_empty() {
        match decide_boundedness(closures, p, word_cap) {
            Ok(Boundedness::Bounded { equivalent, .. }) => {
                return GeneralBoundedness::Bounded {
                    equivalent,
                    proof: "theorem-4.10",
                }
            }
            Ok(Boundedness::Unbounded) => return GeneralBoundedness::Unbounded,
            Err(_) => {}
        }
    }

    // Budgeted candidate search under full path constraints: test the
    // cumulative word set at every length boundary (per-word testing
    // wastes closure tests; per-length keeps candidates canonical).
    let all: Vec<Vec<Symbol>> = p_nfa.enumerate_words(max_candidate_len, word_cap);
    let mut frontiers: Vec<usize> = Vec::new();
    for i in 1..all.len() {
        if all[i].len() != all[i - 1].len() {
            frontiers.push(i);
        }
    }
    frontiers.push(all.len());
    for cut in frontiers {
        if cut == 0 {
            continue;
        }
        let candidate = Regex::from_finite_language(all[..cut].to_vec());
        let claim = PathConstraint::equality(p.clone(), candidate.clone());
        if let Ok(proof) = closures.implies(&claim) {
            return GeneralBoundedness::Bounded {
                equivalent: candidate,
                proof,
            };
        }
    }
    GeneralBoundedness::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ConstraintSet;
    use rpq_automata::Alphabet;

    fn setup(lines: &[&str], query: &str) -> (Alphabet, ConstraintSet, Regex) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let p = rpq_automata::parse_regex(&mut ab, query).unwrap();
        (ab, set, p)
    }

    fn decide(set: &ConstraintSet, p: &Regex) -> Result<Boundedness, BoundednessError> {
        decide_boundedness(&Closures::new(set), p, 64)
    }

    #[test]
    fn a_star_bounded_under_a_eq_eps() {
        let (_, set, p) = setup(&["a = ()"], "a*");
        match decide(&set, &p).unwrap() {
            Boundedness::Bounded { words, .. } => {
                assert_eq!(words, vec![Vec::<Symbol>::new()]); // just ε
            }
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn a_star_bounded_under_aa_eq_a() {
        // {aa = a} ⊨ a* = ε + a
        let (ab, set, p) = setup(&["a.a = a"], "a*");
        match decide(&set, &p).unwrap() {
            Boundedness::Bounded { words, equivalent } => {
                let mut lens: Vec<usize> = words.iter().map(Vec::len).collect();
                lens.sort();
                assert_eq!(lens, vec![0, 1]);
                // ε + a
                let a = ab.get("a").unwrap();
                let expect = Regex::Epsilon.or(Regex::sym(a));
                assert!(rpq_automata::ops::regex_equivalent(&equivalent, &expect));
            }
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn a_star_unbounded_without_constraints() {
        let (_, set, p) = setup(&[], "a*");
        assert!(matches!(decide(&set, &p), Ok(Boundedness::Unbounded)));
    }

    #[test]
    fn finite_query_trivially_bounded() {
        let (_, set, p) = setup(&["a.b = b.a"], "a.b + b.a");
        match decide(&set, &p).unwrap() {
            Boundedness::Bounded { words, .. } => {
                // both words collapse to the same class; rep appears once
                assert_eq!(words.len(), 1);
            }
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn star_bounded_only_in_one_letter() {
        // {aa = a}: (a+b)* is NOT bounded (b can pump), a* is.
        let (_, set, p) = setup(&["a.a = a"], "(a+b)*");
        assert!(matches!(decide(&set, &p), Ok(Boundedness::Unbounded)));
    }

    #[test]
    fn loop_through_equality_cycle_is_bounded() {
        // {a.a.a = ()} : a* collapses to ε + a + aa.
        let (_, set, p) = setup(&["a.a.a = ()"], "a*");
        match decide(&set, &p).unwrap() {
            Boundedness::Bounded { words, .. } => {
                let mut lens: Vec<usize> = words.iter().map(Vec::len).collect();
                lens.sort();
                assert_eq!(lens, vec![0, 1, 2]);
            }
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn words_past_the_fold_are_its_representative_and_the_tail() {
        // {c0 = a.b}: a.b.e leaves the fold at the class of a.b, whose
        // shortest-lex word is c0 (interned first)
        let (ab, set, p) = setup(&["c0 = a.b"], "a.b.e + a.b.a.b.e");
        match decide(&set, &p).unwrap() {
            Boundedness::Bounded { words, .. } => {
                let words: Vec<String> = words.iter().map(|w| ab.render_word(w)).collect();
                assert_eq!(words, ["c0.e", "c0.a.b.e"]);
            }
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn the_word_cap_is_reported() {
        // (a+b)^3 under {a.a = a}: 2 + 4 + 8 words minus the merged ones
        // is still more than 3
        let (_, set, p) = setup(&["a.a = a"], "(a+b).(a+b).(a+b)");
        assert!(matches!(
            decide_boundedness(&Closures::new(&set), &p, 3),
            Err(BoundednessError::TooManyWords { cap: 3 })
        ));
        assert!(matches!(decide(&set, &p), Ok(Boundedness::Bounded { .. })));
    }

    #[test]
    fn inclusion_sets_are_rejected() {
        let (_, set, p) = setup(&["a.a <= a"], "a*");
        assert!(matches!(
            decide(&set, &p),
            Err(BoundednessError::NotWordEqualities)
        ));
    }

    #[test]
    fn empty_query_is_bounded() {
        let (_, set, p) = setup(&["a.a = a"], "[]");
        match decide(&set, &p).unwrap() {
            Boundedness::Bounded { words, .. } => assert!(words.is_empty()),
            other => panic!("expected bounded, got {other:?}"),
        }
    }
}
