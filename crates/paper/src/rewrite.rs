//! The word saturation of Lemmas 4.4 and 4.5: `RewriteTo(p)` for a set of
//! word rules, and the decisions and derivations built on it.
//!
//! Each word inclusion `u ⊆ v` contributes a rewrite rule `u → v` applied
//! *to prefixes only* (`rpq_constraints::RewriteSystem`). Lemma 4.5/4.7
//! show `RewriteTo(p) = {u | ∃v ∈ L(p): u →*_E v}` is regular, via a PDA
//! that loads the input on its stack and rewrites prefixes. [`rewrite_to_nfa`]
//! implements the equivalent *pre\*-saturation* directly on an NFA:
//! starting from an automaton for `L(p)` rooted at a start state `s₀`, add
//! (once per rule) a chain spelling the rule's left-hand side out of `s₀`,
//! and then saturate: whenever the rule's right-hand side can be read from
//! `s₀` to a state `t`, connect the chain's last transition to `t`. The
//! construction is polynomial and yields exactly `pre*(L(p))` under prefix
//! rewriting — the same language as the paper's PDA argument.
//!
//! The served planner decides through
//! [`rpq_constraints::rewrite::rewrite_closure_nfa`], which wires every
//! word rule the same way (ε-edges from the left-hand side's exits instead
//! of a last labelled edge) and accepts `RewriteTo(p)` on a word set; this
//! module is the paper's own construction, held against it by the
//! property tests.

use rpq_automata::{Nfa, StateId, Symbol};
use rpq_constraints::rewrite::{RewriteSystem, RewriteToAutomaton};

/// One-step successors of `w` under prefix rewriting by `rules`
/// (first-application order, deduplicated). Allocates once per *distinct*
/// successor; the duplicate check is a hash probe, not a linear scan of the
/// output.
pub fn step(rules: &RewriteSystem, w: &[Symbol]) -> Vec<Vec<Symbol>> {
    let mut out: Vec<Vec<Symbol>> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<Symbol>> = std::collections::HashSet::new();
    for (lhs, rhs) in &rules.rules {
        if w.len() >= lhs.len() && &w[..lhs.len()] == lhs.as_slice() {
            let mut next = Vec::with_capacity(rhs.len() + w.len() - lhs.len());
            next.extend_from_slice(rhs);
            next.extend_from_slice(&w[lhs.len()..]);
            if seen.insert(next.clone()) {
                out.push(next);
            }
        }
    }
    out
}

/// BFS derivation `u →* v` with an explicit witness chain (a
/// *certificate* for the implication `E ⊨ u ⊆ v`). Bounded by
/// `max_visited` distinct words and by an intermediate-word length cap
/// (word-growing rules make the frontier explode otherwise) — use
/// [`rewrite_to_word_nfa`] for the unbounded decision (PTIME); this is
/// the explainability path.
pub fn derive(
    rules: &RewriteSystem,
    u: &[Symbol],
    v: &[Symbol],
    max_visited: usize,
) -> Option<Vec<Vec<Symbol>>> {
    use std::collections::{HashMap, VecDeque};
    if u == v {
        return Some(vec![u.to_vec()]);
    }
    let max_rhs = rules.rules.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    let max_len = u.len().max(v.len()) + 4 * (max_rhs + 1) + 8;
    let mut parent: HashMap<Vec<Symbol>, Vec<Symbol>> = HashMap::new();
    let mut queue: VecDeque<Vec<Symbol>> = VecDeque::new();
    queue.push_back(u.to_vec());
    parent.insert(u.to_vec(), Vec::new()); // sentinel
    let mut visited = 0usize;
    while let Some(w) = queue.pop_front() {
        visited += 1;
        if visited > max_visited {
            return None;
        }
        if w.len() > max_len {
            continue;
        }
        for next in step(rules, &w) {
            if parent.contains_key(&next) {
                continue;
            }
            parent.insert(next.clone(), w.clone());
            if next == v {
                // reconstruct chain
                let mut chain = vec![next.clone()];
                let mut cur = w.clone();
                loop {
                    chain.push(cur.clone());
                    let p = parent[&cur].clone();
                    if p.is_empty() && cur == u {
                        break;
                    }
                    cur = p;
                }
                chain.reverse();
                return Some(chain);
            }
            queue.push_back(next);
        }
    }
    None
}

/// Total length of all left-hand sides (the paper's `N` ingredient for
/// the K-sphere radius: the `RewriteTo` NFA has at most
/// `|target| + Σ|lhs| + 1` states).
pub fn total_lhs_len(rules: &RewriteSystem) -> usize {
    rules.rules.iter().map(|(l, _)| l.len()).sum()
}

/// Build `RewriteTo(p)` for a regular target by pre\*-saturation
/// (Lemma 4.7). For a single word target use [`rewrite_to_word_nfa`].
pub fn rewrite_to_nfa(target: &Nfa, rules: &RewriteSystem) -> RewriteToAutomaton {
    // The saturation requires a single designated root out of which both the
    // target language and the rule chains are read.
    let mut nfa = Nfa::empty();
    let off = nfa.add_nfa(target);
    let root = nfa.start();
    nfa.add_eps(root, target.start() + off);

    // Per-rule chain states: root --x1--> c1 --x2--> ... --x_{m-1}--> c_{m-1};
    // `tail[i]` is (state, last symbol) so saturation adds `state --xm--> t`.
    enum Tail {
        Edge(StateId, Symbol),
        Epsilon, // lhs = ε: saturation adds ε-edges from root
    }
    let mut tails: Vec<Tail> = Vec::with_capacity(rules.rules.len());
    for (lhs, _) in &rules.rules {
        let Some((&last, init)) = lhs.split_last() else {
            tails.push(Tail::Epsilon);
            continue;
        };
        let mut cur = root;
        for &sym in init {
            let next = nfa.add_state(false);
            nfa.add_transition(cur, sym, next);
            cur = next;
        }
        tails.push(Tail::Edge(cur, last));
    }

    // Saturate: for each rule, find all states reachable from the root by
    // reading the rule's rhs (a word), and wire the chain tail to them.
    let rhs: Vec<&[Symbol]> = rules.rules.iter().map(|(_, r)| r.as_slice()).collect();
    let mut added_edges = 0usize;
    let rounds = nfa.saturate(root, &rhs, |nfa, i, targets| {
        let mut changed = false;
        for &t in targets {
            let added = match &tails[i] {
                Tail::Edge(state, sym) => nfa.add_transition(*state, *sym, t),
                Tail::Epsilon => nfa.add_eps(root, t),
            };
            if added {
                added_edges += 1;
                changed = true;
            }
        }
        changed
    });

    RewriteToAutomaton {
        nfa,
        rounds,
        added_edges,
        universal: None,
    }
}

/// `RewriteTo(v)` for a single word `v` (Lemma 4.5).
pub fn rewrite_to_word_nfa(v: &[Symbol], rules: &RewriteSystem) -> RewriteToAutomaton {
    rewrite_to_nfa(&Nfa::from_word(v), rules)
}

/// Decide `u →*_E v` in polynomial time: membership of `u` in the saturated
/// automaton for `RewriteTo(v)` (Theorem 4.3(i) via Lemmas 4.4 + 4.5).
pub fn rewrites_to(rules: &RewriteSystem, u: &[Symbol], v: &[Symbol]) -> bool {
    rewrite_to_word_nfa(v, rules).nfa.accepts(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_constraints::rewrite::rewrite_closure_nfa;
    use rpq_constraints::ConstraintSet;

    fn system(ab: &mut Alphabet, lines: &[&str]) -> RewriteSystem {
        let set = ConstraintSet::parse(ab, lines.iter().copied()).unwrap();
        RewriteSystem::from_constraints(&set)
    }

    fn w(ab: &mut Alphabet, s: &str) -> Vec<Symbol> {
        s.chars().map(|c| ab.intern(&c.to_string())).collect()
    }

    #[test]
    fn paper_motivating_example() {
        // u1 ⊆ u2 and u2·u3 ⊆ u4 imply u1·u3·u5 ⊆ u4·u5 (Section 4 intro).
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["u1 <= u2", "u2.u3 <= u4"]);
        let u1 = ab.get("u1").unwrap();
        let u3 = ab.get("u3").unwrap();
        let u4 = ab.get("u4").unwrap();
        let u5 = ab.intern("u5");
        assert!(rewrites_to(&rs, &[u1, u3, u5], &[u4, u5]));
        // and the intermediate step too
        let u2 = ab.get("u2").unwrap();
        assert!(rewrites_to(&rs, &[u1, u3, u5], &[u2, u3, u5]));
        // but not the reverse
        assert!(!rewrites_to(&rs, &[u4, u5], &[u1, u3, u5]));
    }

    #[test]
    fn derivation_witness_matches_decision() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["u1 <= u2", "u2.u3 <= u4"]);
        let u1 = ab.get("u1").unwrap();
        let u3 = ab.get("u3").unwrap();
        let u4 = ab.get("u4").unwrap();
        let u5 = ab.intern("u5");
        let chain = derive(&rs, &[u1, u3, u5], &[u4, u5], 10_000).unwrap();
        assert_eq!(chain.len(), 3); // u1u3u5 → u2u3u5 → u4u5
                                    // each step is a legal one-step rewrite
        for pair in chain.windows(2) {
            assert!(step(&rs, &pair[0]).contains(&pair[1]));
        }
    }

    #[test]
    fn aa_to_a_rewrites_powers() {
        // E = {aa ⊆ a}: aⁱ →* a for all i ≥ 1, but a ↛ aa.
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a.a <= a"]);
        let a = ab.get("a").unwrap();
        for i in 1..8 {
            let u = vec![a; i];
            assert!(rewrites_to(&rs, &u, &[a]), "a^{i} →* a");
        }
        assert!(!rewrites_to(&rs, &[a], &[a, a]));
        // aa →* aa (reflexive)
        assert!(rewrites_to(&rs, &[a, a], &[a, a]));
    }

    #[test]
    fn equalities_rewrite_both_ways() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a.b = c"]);
        let u_ab = w(&mut ab, "ab");
        let u_c = w(&mut ab, "c");
        assert!(rewrites_to(&rs, &u_ab, &u_c));
        assert!(rewrites_to(&rs, &u_c, &u_ab));
        // and right-congruence: abx ↔ cx
        let u_abx = w(&mut ab, "abx");
        let u_cx = w(&mut ab, "cx");
        assert!(rewrites_to(&rs, &u_abx, &u_cx));
        assert!(rewrites_to(&rs, &u_cx, &u_abx));
    }

    #[test]
    fn epsilon_rules_work() {
        // l = ε: every l·w ↔ w.
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["l = ()"]);
        let l = ab.get("l").unwrap();
        let x = ab.intern("x");
        assert!(rewrites_to(&rs, &[l, x], &[x]));
        assert!(rewrites_to(&rs, &[x], &[l, x]));
        assert!(rewrites_to(&rs, &[l, l, x], &[x]));
        // prefix-only: x·l does not lose its l
        assert!(!rewrites_to(&rs, &[x, l], &[x]));
    }

    #[test]
    fn rewriting_is_prefix_only() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a <= b"]);
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let x = ab.intern("x");
        assert!(rewrites_to(&rs, &[a, x], &[b, x]));
        // inner occurrence untouched
        assert!(!rewrites_to(&rs, &[x, a], &[x, b]));
    }

    #[test]
    fn rewrite_to_regular_target() {
        // RewriteTo(l*) under ll ⊆ l: any lⁱ (i ≥ 0) plus nothing else.
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["l.l <= l"]);
        let l = ab.get("l").unwrap();
        let m = ab.intern("m");
        let target = Nfa::thompson(&parse_regex(&mut ab, "l + ()").unwrap());
        let auto = rewrite_to_nfa(&target, &rs);
        assert!(auto.nfa.accepts(&[]));
        for i in 1..6 {
            assert!(auto.nfa.accepts(&vec![l; i]), "l^{i}");
        }
        assert!(!auto.nfa.accepts(&[m]));
        assert!(!auto.nfa.accepts(&[l, m]));
    }

    #[test]
    fn saturation_terminates_and_reports() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a.a <= a", "b.a <= a.b", "a.b <= b.a"]);
        let target = Nfa::from_word(&w(&mut ab, "a"));
        let auto = rewrite_to_nfa(&target, &rs);
        assert!(auto.rounds >= 1);
        // a b? — ab →(ab→ba) ba →(ba→ab)… and aa→a chains
        let u = w(&mut ab, "aaa");
        assert!(auto.nfa.accepts(&u));
    }

    #[test]
    fn general_closure_agrees_with_word_saturation_on_word_rules() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
        let rs = RewriteSystem::from_constraints(&set);
        let l = ab.get("l").unwrap();
        let m = ab.intern("m");
        let target = Nfa::thompson(&parse_regex(&mut ab, "l + ()").unwrap());
        let word_auto = rewrite_to_nfa(&target, &rs);
        let gen_auto = rewrite_closure_nfa(&set, &target);
        for i in 0..6 {
            let u = vec![l; i];
            assert_eq!(word_auto.nfa.accepts(&u), gen_auto.nfa.accepts(&u), "l^{i}");
            assert!(gen_auto.nfa.accepts(&u), "l^{i} →* l + ε");
        }
        assert!(!gen_auto.nfa.accepts(&[m]));
        assert!(!gen_auto.nfa.accepts(&[l, m]));
    }

    #[test]
    fn empty_rule_set_is_identity() {
        let mut ab = Alphabet::new();
        let rs = RewriteSystem::default();
        let u = w(&mut ab, "abc");
        let v = w(&mut ab, "abc");
        assert!(rewrites_to(&rs, &u, &v));
        let v2 = w(&mut ab, "ab");
        assert!(!rewrites_to(&rs, &u, &v2));
    }

    #[test]
    fn step_applies_all_matching_rules() {
        let mut ab = Alphabet::new();
        let rs = system(&mut ab, &["a <= b", "a <= c", "a.x <= y"]);
        let word = w(&mut ab, "ax");
        let succ = step(&rs, &word);
        assert_eq!(succ.len(), 3); // bx, cx, y
    }

    #[test]
    fn derive_respects_budget() {
        let mut ab = Alphabet::new();
        // growing system: a → aa (never reaches b)
        let rs = system(&mut ab, &["a <= a.a"]);
        let a = ab.get("a").unwrap();
        let b = ab.intern("b");
        assert!(derive(&rs, &[a], &[b], 100).is_none());
    }
}
