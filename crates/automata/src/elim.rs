//! NFA → regular expression conversion by state elimination (GNFA).
//!
//! Used by the optimizer to turn derived automata (quotients of cached
//! queries, saturated `RewriteTo` languages) back into path expressions
//! that can travel inside `subquery` messages. The classical construction:
//! add fresh start/accept states, then eliminate the original states one at
//! a time, updating `R_ij := R_ij + R_ik · R_kk* · R_kj`. Expressions are
//! kept in the smart-constructor normal form; elimination order is by
//! (in-degree × out-degree) to curb blow-up, ties broken by position in the
//! list of states still alive.
//!
//! The edges live in a dense `(n + 2)²` matrix, `∅` for no edge. The order
//! in which the contributions to one entry arrive cannot change the result:
//! an entry only ever grows by [`Regex::or`], and [`Regex::union`] flattens,
//! sorts and deduplicates its arms, so an entry is the same set of arms
//! whatever order they were added in.

use crate::nfa::Nfa;
use crate::regex::Regex;

/// Convert an NFA to an equivalent regular expression.
pub fn nfa_to_regex(nfa: &Nfa) -> Regex {
    let trimmed = nfa.trim();
    let n = trimmed.num_states();
    if n == 0 {
        return Regex::Empty;
    }
    // GNFA states: 0..n are the NFA's, n = fresh start, n+1 = fresh accept.
    let width = n + 2;
    let (start, accept) = (n, n + 1);
    // `edges[i * width + j]` is the expression on edge i → j.
    let mut edges: Vec<Regex> = vec![Regex::Empty; width * width];
    let add = |edges: &mut [Regex], i: usize, j: usize, r: Regex| {
        let cell = &mut edges[i * width + j];
        *cell = match std::mem::replace(cell, Regex::Empty) {
            Regex::Empty => r,
            prev => prev.or(r),
        };
    };

    add(&mut edges, start, trimmed.start() as usize, Regex::Epsilon);
    for s in 0..n {
        if trimmed.is_accepting(s as u32) {
            add(&mut edges, s, accept, Regex::Epsilon);
        }
        for &t in trimmed.eps_transitions(s as u32) {
            add(&mut edges, s, t as usize, Regex::Epsilon);
        }
        for &(sym, t) in trimmed.transitions(s as u32) {
            add(&mut edges, s, t as usize, Regex::sym(sym));
        }
    }

    // Eliminate internal states, cheapest (indeg × outdeg) first.
    let mut alive: Vec<usize> = (0..n).collect();
    let mut degree = vec![(0usize, 0usize); width];
    let mut incoming: Vec<(usize, Regex)> = Vec::new();
    let mut outgoing: Vec<(usize, Regex)> = Vec::new();
    while !alive.is_empty() {
        // (in, out) degree of every state, self-loops left out
        degree.fill((0, 0));
        for i in 0..width {
            for j in 0..width {
                if i != j && edges[i * width + j] != Regex::Empty {
                    degree[i].1 += 1;
                    degree[j].0 += 1;
                }
            }
        }
        // pick the state minimizing in×out among alive (the first on a tie)
        let (pos, &k) = alive
            .iter()
            .enumerate()
            .min_by_key(|(_, &k)| degree[k].0 * degree[k].1)
            .expect("alive non-empty");
        alive.swap_remove(pos);

        let loop_star = std::mem::replace(&mut edges[k * width + k], Regex::Empty).star();
        incoming.clear();
        outgoing.clear();
        for i in (0..width).filter(|&i| i != k) {
            let r = std::mem::replace(&mut edges[i * width + k], Regex::Empty);
            if r != Regex::Empty {
                incoming.push((i, r));
            }
            let r = std::mem::replace(&mut edges[k * width + i], Regex::Empty);
            if r != Regex::Empty {
                outgoing.push((i, r));
            }
        }
        for (i, rin) in &incoming {
            for (j, rout) in &outgoing {
                let through = rin.clone().then(loop_star.clone()).then(rout.clone());
                add(&mut edges, *i, *j, through);
            }
        }
    }

    std::mem::replace(&mut edges[start * width + accept], Regex::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::ops::regex_equivalent;
    use crate::parser::parse_regex;

    fn round_trip(src: &str) {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        ab.intern("c");
        let r = parse_regex(&mut ab, src).unwrap();
        let back = nfa_to_regex(&Nfa::thompson(&r));
        assert!(
            regex_equivalent(&r, &back),
            "{src} → {} not equivalent",
            back.display(&ab)
        );
    }

    #[test]
    fn round_trips_language() {
        for src in [
            "a",
            "a.b.c",
            "a+b",
            "a*",
            "(a+b)*.c",
            "a.(b.a)*.c",
            "(a.b)* + c.c*",
            "()",
            "[]",
            "(a+b+c)*",
            "a?.b*.c?",
        ] {
            round_trip(src);
        }
    }

    #[test]
    fn empty_automaton_gives_empty() {
        let nfa = Nfa::empty();
        assert_eq!(nfa_to_regex(&nfa), Regex::Empty);
    }

    #[test]
    fn word_automaton_gives_word() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let r = nfa_to_regex(&Nfa::from_word(&[a, b, a]));
        assert_eq!(r.as_word(), Some(vec![a, b, a]));
    }

    #[test]
    fn handles_dead_states() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut nfa = Nfa::from_word(&[a]);
        let dead = nfa.add_state(false);
        nfa.add_transition(nfa.start(), a, dead); // dead branch
        let r = nfa_to_regex(&nfa);
        assert_eq!(r.as_word(), Some(vec![a]));
    }

    #[test]
    fn quotient_language_round_trip() {
        // existential quotient of a(ba)*c by (ab)* is a(ba)*c ∪ …
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
        let f = parse_regex(&mut ab, "(a.b)*").unwrap();
        let qn = Nfa::thompson(&q);
        let starts = qn.reachable_via(&Nfa::thompson(&f));
        let mut quot = Nfa::empty();
        let off = quot.add_nfa(&qn);
        for s in starts {
            quot.add_eps(quot.start(), s + off);
        }
        let r = nfa_to_regex(&quot);
        // the quotient contains a.c (after reading ab…) and the original
        let ac = parse_regex(&mut ab, "a.c").unwrap();
        assert!(crate::ops::regex_included(&ac, &r));
        assert!(crate::ops::regex_included(&q, &r));
    }
}
