//! Language-level decision procedures: inclusion and equivalence.
//!
//! Regular-expression equivalence is PSPACE-complete (the paper cites this
//! via \[15\] when bounding Theorem 4.3(ii)), so every algorithm here is
//! worst-case exponential. One algorithm answers each question:
//!
//! * [`included_antichain`] — on-the-fly product of NFA states of `A` with
//!   subset-states of `B`, pruned by the antichain subsumption order; the
//!   planner's and Theorem 4.3(ii)'s inclusion test.
//! * [`equivalent`] — the antichain inclusion both ways.
//!
//! [`included_naive`] — determinize both sides, test `A ∩ ¬B = ∅` — is the
//! reference they are held against: `decision_procedures_agree` and
//! `inclusion_deciders_agree_with_derived_sigma` in `tests/properties.rs`
//! compare the verdicts on random pairs, both ways.

use std::collections::{HashMap, VecDeque};

use crate::alphabet::Symbol;
use crate::dfa::Dfa;
use crate::nfa::{Nfa, StateId};
use crate::regex::Regex;

/// Outcome of an inclusion check: either it holds, or a counterexample word
/// in `L(a) \ L(b)` is produced.
pub type InclusionResult = Result<(), Vec<Symbol>>;

/// The smallest complete-DFA alphabet size covering both automata:
/// `max symbol index + 1` over the transitions of `a` and `b` (at least 1,
/// so degenerate symbol-free automata still determinize). Deriving sigma
/// from the automata themselves — instead of a caller guess like
/// `Alphabet::len()` — keeps [`included_naive`] sound when the interned
/// alphabet is wider than the expressions under test, and cheap when it is
/// much wider.
pub fn union_sigma(a: &Nfa, b: &Nfa) -> usize {
    let top = |n: &Nfa| n.symbols().last().map_or(0, |s| s.index() + 1);
    top(a).max(top(b)).max(1)
}

/// Naive inclusion via full determinization: `L(a) ⊆ L(b)`.
///
/// `sigma` must be at least [`union_sigma`]`(a, b)` — symbols outside it
/// would silently vanish from the determinized alphabet.
pub fn included_naive(a: &Nfa, b: &Nfa, sigma: usize) -> InclusionResult {
    let da = Dfa::from_nfa(a, sigma);
    let db = Dfa::from_nfa(b, sigma);
    let diff = Dfa::product(&da, &db, |x, y| x && !y);
    match diff.shortest_accepted() {
        None => Ok(()),
        Some(w) => Err(w),
    }
}

/// Antichain-based inclusion check: `L(a) ⊆ L(b)`.
///
/// Explores pairs `(q, S)` where `q` is an `a`-state and `S` a subset-state
/// of `b`; a pair is a counterexample witness when `q` accepts and `S` does
/// not. A pair `(q, S)` is *subsumed* by a visited `(q, S')` with `S' ⊆ S`:
/// any word rejected from `S` is also rejected from `S'`, so exploring the
/// superset cannot find new counterexamples.
pub fn included_antichain(a: &Nfa, b: &Nfa) -> InclusionResult {
    // Work on ε-closed representations.
    #[derive(Clone)]
    struct Node {
        q: StateId,
        set: Vec<StateId>,
        parent: usize,
        sym: Option<Symbol>,
    }

    let a_start = a.start_set();
    let b_start = b.start_set();

    let mut nodes: Vec<Node> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    // visited minimal sets per a-state
    let mut antichain: HashMap<StateId, Vec<Vec<StateId>>> = HashMap::new();

    let push = |nodes: &mut Vec<Node>,
                queue: &mut VecDeque<usize>,
                antichain: &mut HashMap<StateId, Vec<Vec<StateId>>>,
                node: Node|
     -> Option<usize> {
        let chain = antichain.entry(node.q).or_default();
        // subsumed if an existing set is a subset of node.set
        if chain.iter().any(|s| is_subset(s, &node.set)) {
            return None;
        }
        chain.retain(|s| !is_subset(&node.set, s));
        chain.push(node.set.clone());
        nodes.push(node);
        let id = nodes.len() - 1;
        queue.push_back(id);
        Some(id)
    };

    for &q in &a_start {
        let node = Node {
            q,
            set: b_start.clone(),
            parent: usize::MAX,
            sym: None,
        };
        push(&mut nodes, &mut queue, &mut antichain, node);
    }

    while let Some(i) = queue.pop_front() {
        let (q, set) = (nodes[i].q, nodes[i].set.clone());
        if a.is_accepting(q) && !b.set_accepts(&set) {
            // reconstruct counterexample
            let mut word = Vec::new();
            let mut cur = i;
            loop {
                let n = &nodes[cur];
                if let Some(sym) = n.sym {
                    word.push(sym);
                }
                if n.parent == usize::MAX {
                    break;
                }
                cur = n.parent;
            }
            word.reverse();
            return Err(word);
        }
        // expand: labeled successors of q (ε-moves of a folded by closure)
        for &qe in a.eps_transitions(q) {
            let node = Node {
                q: qe,
                set: set.clone(),
                parent: i,
                sym: None,
            };
            push(&mut nodes, &mut queue, &mut antichain, node);
        }
        for &(sym, qt) in a.transitions(q) {
            let next_set = b.step(&set, sym);
            let node = Node {
                q: qt,
                set: next_set,
                parent: i,
                sym: Some(sym),
            };
            push(&mut nodes, &mut queue, &mut antichain, node);
        }
    }
    Ok(())
}

fn is_subset(small: &[StateId], big: &[StateId]) -> bool {
    // both sorted
    let mut i = 0;
    for &x in small {
        while i < big.len() && big[i] < x {
            i += 1;
        }
        if i == big.len() || big[i] != x {
            return false;
        }
        i += 1;
    }
    true
}

/// Language equivalence via two antichain inclusion checks; returns a word in
/// the symmetric difference on failure.
pub fn equivalent(a: &Nfa, b: &Nfa) -> Result<(), Vec<Symbol>> {
    included_antichain(a, b)?;
    included_antichain(b, a)
}

/// Regex-level convenience: `L(p) ⊆ L(q)`?
pub fn regex_included(p: &Regex, q: &Regex) -> bool {
    included_antichain(&Nfa::thompson(p), &Nfa::thompson(q)).is_ok()
}

/// Regex-level convenience: `L(p) = L(q)`?
pub fn regex_equivalent(p: &Regex, q: &Regex) -> bool {
    equivalent(&Nfa::thompson(p), &Nfa::thompson(q)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::parser::parse_regex;

    fn pair(ab: &mut Alphabet, p: &str, q: &str) -> (Nfa, Nfa) {
        let rp = parse_regex(ab, p).unwrap();
        let rq = parse_regex(ab, q).unwrap();
        (Nfa::thompson(&rp), Nfa::thompson(&rq))
    }

    #[test]
    fn inclusion_positive_cases() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let cases = [
            ("a.b", "a.b*"),
            ("a.(b.a)*", "(a.b)*.a"), // classic identity: a(ba)* = (ab)*a
            ("[]", "a"),
            ("()", "a*"),
            ("a.a + a.b", "a.(a+b)"),
        ];
        for (p, q) in cases {
            let (np, nq) = pair(&mut ab, p, q);
            assert!(included_naive(&np, &nq, ab.len()).is_ok(), "{p} ⊆ {q}");
            assert!(included_antichain(&np, &nq).is_ok(), "{p} ⊆ {q}");
        }
    }

    #[test]
    fn inclusion_counterexamples_verified() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let cases = [("a.b*", "a.b"), ("a*", "a.a*"), ("(a+b)*", "a*.b*")];
        for (p, q) in cases {
            let (np, nq) = pair(&mut ab, p, q);
            let w1 = included_naive(&np, &nq, ab.len()).unwrap_err();
            assert!(np.accepts(&w1) && !nq.accepts(&w1), "{p} vs {q}");
            let w2 = included_antichain(&np, &nq).unwrap_err();
            assert!(np.accepts(&w2) && !nq.accepts(&w2), "{p} vs {q}");
        }
    }

    #[test]
    fn equivalence_identities() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let identities = [
            ("a.(b.a)*", "(a.b)*.a"),
            ("(a+b)*", "(a*.b*)*"),
            ("a* ", "() + a.a*"),
            ("(a.b)* ", "() + a.(b.a)*.b"),
        ];
        for (p, q) in identities {
            let (np, nq) = pair(&mut ab, p, q);
            assert!(equivalent(&np, &nq).is_ok(), "{p} = {q}");
            assert!(
                included_naive(&np, &nq, ab.len()).is_ok()
                    && included_naive(&nq, &np, ab.len()).is_ok(),
                "{p} = {q} (naive)"
            );
        }
    }

    #[test]
    fn equivalence_rejects_different_languages() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let (np, nq) = pair(&mut ab, "a*", "b*");
        let w = equivalent(&np, &nq).unwrap_err();
        assert!(np.accepts(&w) != nq.accepts(&w));
        let w2 = included_naive(&np, &nq, ab.len()).unwrap_err();
        assert!(np.accepts(&w2) && !nq.accepts(&w2));
    }

    #[test]
    fn equivalence_counterexample_on_subtle_pair() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        let (np, nq) = pair(&mut ab, "(a+b)*", "(a+b)* "); // identical
        assert!(equivalent(&np, &nq).is_ok());
        // neither language includes the other
        let (np, nq) = pair(&mut ab, "(a+b)*.a.(a+b)", "(a+b)*.a.(a+b).(a+b)");
        let w = equivalent(&np, &nq).unwrap_err();
        assert!(np.accepts(&w) != nq.accepts(&w));
        let w = equivalent(&nq, &np).unwrap_err();
        assert!(np.accepts(&w) != nq.accepts(&w));
    }

    #[test]
    fn regex_level_helpers() {
        let mut ab = Alphabet::new();
        let p = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
        let q = parse_regex(&mut ab, "(a.b)*.a.c").unwrap();
        assert!(regex_equivalent(&p, &q));
        assert!(regex_included(&p, &q));
        let r = parse_regex(&mut ab, "a.c").unwrap();
        assert!(regex_included(&r, &p));
        assert!(!regex_included(&p, &r));
        let witness = equivalent(&Nfa::thompson(&p), &Nfa::thompson(&r)).unwrap_err();
        assert!(ab.render_word(&witness).contains('b'));
    }

    #[test]
    fn antichain_agrees_with_naive_on_family() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        ab.intern("c");
        let exprs = [
            "a",
            "b",
            "a.b",
            "a+b",
            "a*",
            "(a+b)*",
            "a.(b+c)*",
            "a*.b*",
            "(a.b)*",
            "a.b.c",
            "()",
            "[]",
            "(a+b+c)*.a",
        ];
        for p in exprs {
            for q in exprs {
                let (np, nq) = pair(&mut ab, p, q);
                let naive = included_naive(&np, &nq, ab.len()).is_ok();
                let anti = included_antichain(&np, &nq).is_ok();
                assert_eq!(naive, anti, "{p} ⊆ {q}");
            }
        }
    }
}
