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
//! The antichain search keeps each `B` subset-state once, interned in the
//! search's state-set arena (the crate docs); a search node is a set id,
//! and the antichain of an `A`-state a list of set ids. Interning decides
//! nothing: a set is found again only when its slice is equal, and nodes
//! are admitted, expanded and subsumed in breadth-first order.
//!
//! [`included_naive`] — determinize both sides, test `A ∩ ¬B = ∅` — is the
//! reference they are held against: `decision_procedures_agree` and
//! `inclusion_deciders_agree_with_derived_sigma` in `tests/properties.rs`
//! compare the verdicts on random pairs, both ways.

use crate::alphabet::Symbol;
use crate::dfa::Dfa;
use crate::nfa::{Nfa, StateId};
use crate::regex::Regex;
use crate::sets::{SetId, StateSets};

/// Outcome of an inclusion check: either it holds, or a counterexample word
/// in `L(a) \ L(b)` is produced.
pub type InclusionResult = Result<(), Vec<Symbol>>;

/// Naive inclusion via full determinization: `L(a) ⊆ L(b)`.
///
/// `sigma` must exceed every symbol index on a transition of `a` or `b` —
/// symbols outside it would silently vanish from the determinized alphabet.
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
///
/// The search is breadth-first over pairs in the order they are admitted,
/// and the counterexample spells the path to the first witness it meets.
/// Every subset-state is interned once in the search's arena; a pair is a
/// node `(q, set id, parent, symbol)`, and `q`'s antichain is a list of set
/// ids.
pub fn included_antichain(a: &Nfa, b: &Nfa) -> InclusionResult {
    /// One admitted pair, and the edge of `a` it was reached by.
    struct Node {
        q: StateId,
        set: SetId,
        parent: usize,
        sym: Option<Symbol>,
    }
    /// The end of an antichain's list.
    const NIL: usize = usize::MAX;

    let mut sets = StateSets::new();
    let mut nodes: Vec<Node> = Vec::new();
    // The antichain of `a`-state `q`: the minimal sets admitted with it, a
    // list threaded through `links` (set id, next) from `head[q]`.
    let mut head: Vec<usize> = vec![NIL; a.num_states()];
    let mut links: Vec<(SetId, usize)> = Vec::new();

    // Admit `node` unless a set of its antichain is a subset of its set;
    // drop the supersets it subsumes.
    let mut push = |sets: &StateSets, nodes: &mut Vec<Node>, node: Node| {
        let set = sets.get(node.set);
        let q = node.q as usize;
        let mut e = head[q];
        while e != NIL {
            let (id, next) = links[e];
            if id == node.set || is_subset(sets.get(id), set) {
                return;
            }
            e = next;
        }
        let (mut prev, mut e) = (NIL, head[q]);
        while e != NIL {
            let (id, next) = links[e];
            if is_subset(set, sets.get(id)) {
                match prev {
                    NIL => head[q] = next,
                    p => links[p].1 = next,
                }
            } else {
                prev = e;
            }
            e = next;
        }
        links.push((node.set, head[q]));
        head[q] = links.len() - 1;
        nodes.push(node);
    };

    let (b_start, _) = sets.close(b, &[b.start()]);
    let (a_start, _) = sets.close(a, &[a.start()]);
    for k in 0..sets.get(a_start).len() {
        let node = Node {
            q: sets.get(a_start)[k],
            set: b_start,
            parent: usize::MAX,
            sym: None,
        };
        push(&sets, &mut nodes, node);
    }

    // The queue is the node list itself: nodes are admitted in BFS order.
    let mut i = 0;
    while i < nodes.len() {
        let (q, set) = (nodes[i].q, nodes[i].set);
        if a.is_accepting(q) && !b.set_accepts(sets.get(set)) {
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
                set,
                parent: i,
                sym: None,
            };
            push(&sets, &mut nodes, node);
        }
        for &(sym, qt) in a.transitions(q) {
            let (next_set, _) = sets.step(b, set, sym);
            let node = Node {
                q: qt,
                set: next_set,
                parent: i,
                sym: Some(sym),
            };
            push(&sets, &mut nodes, node);
        }
        i += 1;
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
