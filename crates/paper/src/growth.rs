//! Growth-rate classification of regular languages.
//!
//! The boundedness problem of Theorem 4.10 asks whether a path query is
//! equivalent (under constraints) to one whose language is *finite*. This
//! module refines the finite/infinite dichotomy into the classical growth
//! hierarchy of regular languages: the counting function
//! `n ↦ |L ∩ Σⁿ|` of a regular language is either eventually zero
//! (finite language), bounded by a polynomial `n^d`, or in `2^Ω(n)`
//! (Szilard–Yu–Zhang–Shallit). The structural criterion on a trim DFA:
//!
//! * **exponential** iff some live state lies on two distinct cycles —
//!   equivalently, some strongly connected component carries more than one
//!   internal edge per state (it is not a simple cycle);
//! * otherwise **polynomial**, of degree `c − 1` where `c` is the maximum
//!   number of cyclic components on a path through the condensation DAG;
//! * **finite** when no live state lies on any cycle (`c = 0`).
//!
//! Nothing on the served path reads it: the t11 bench times it, and
//! `tests/growth_and_simplify.rs` holds it against word enumeration.

use rpq_automata::nfa::{strongly_connected_components, Nfa};
use rpq_automata::{Dfa, Regex, Symbol};

/// Growth class of the counting function `n ↦ |L ∩ Σⁿ|`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Growth {
    /// The empty language.
    Empty,
    /// Finitely many words; `count` is exact unless it saturated at
    /// `u64::MAX`, and `max_len` is the length of the longest word.
    Finite {
        /// Number of words in the language (saturating).
        count: u64,
        /// Length of the longest word.
        max_len: usize,
    },
    /// `|L ∩ Σⁿ| = O(n^degree)` and `Ω(n^degree)` along a subsequence;
    /// degree 0 means boundedly many words per length (e.g. `a*`).
    Polynomial {
        /// The polynomial degree `d`.
        degree: usize,
    },
    /// `|L ∩ Σⁿ| = 2^Ω(n)`: some state lies on two distinct cycles.
    Exponential,
}

impl Growth {
    /// Is the language finite (including empty)?
    pub fn is_finite(&self) -> bool {
        matches!(self, Growth::Empty | Growth::Finite { .. })
    }
}

/// Classify the growth of the language of a complete [`Dfa`].
pub fn classify_dfa(dfa: &Dfa) -> Growth {
    let n = dfa.num_states();
    let sigma = dfa.sigma();
    let live = live_states(dfa);
    if !live[dfa.start() as usize] && !live.iter().any(|&l| l) {
        return Growth::Empty;
    }
    if live.iter().all(|&l| !l) {
        return Growth::Empty;
    }

    let comp = strongly_connected_components(n, |s, f| {
        if live[s] {
            for sym in 0..sigma {
                let t = dfa.next(s as u32, Symbol::from_index(sym)) as usize;
                if live[t] {
                    f(t);
                }
            }
        }
    });
    let num_comps = comp.iter().copied().max().map_or(0, |m| m + 1);

    // Per-component bookkeeping: is the component cyclic, and is it a simple
    // cycle (every member state has exactly one live internal out-edge)?
    let mut internal_edges: Vec<usize> = vec![0; num_comps];
    let mut members: Vec<usize> = vec![0; num_comps];
    let mut max_internal_out: Vec<usize> = vec![0; num_comps];
    for s in 0..n {
        if !live[s] {
            continue;
        }
        members[comp[s]] += 1;
        let mut out_here = 0usize;
        for sym in 0..sigma {
            let t = dfa.next(s as u32, Symbol::from_index(sym)) as usize;
            if live[t] && comp[t] == comp[s] {
                out_here += 1;
            }
        }
        internal_edges[comp[s]] += out_here;
        max_internal_out[comp[s]] = max_internal_out[comp[s]].max(out_here);
    }
    let cyclic: Vec<bool> = (0..num_comps).map(|c| internal_edges[c] > 0).collect();
    for c in 0..num_comps {
        // A cyclic SCC of a *deterministic* automaton is a simple cycle iff
        // each member has exactly one internal out-edge; two internal
        // out-edges from one state give two distinct cycles through it,
        // which pumps 2^Ω(n) distinct words.
        if cyclic[c] && max_internal_out[c] > 1 {
            return Growth::Exponential;
        }
        if cyclic[c] && internal_edges[c] != members[c] {
            // Simple cycle must have exactly |members| internal edges.
            return Growth::Exponential;
        }
    }

    if !cyclic.iter().any(|&c| c) {
        // Finite language: count words exactly by dynamic programming over
        // lengths up to the number of live states (longest word is shorter).
        let counts = dfa.count_words_by_length(n);
        let mut total: u64 = 0;
        let mut max_len = 0usize;
        for (len, &c) in counts.iter().enumerate() {
            if c > 0 {
                max_len = len;
            }
            total = total.saturating_add(c);
        }
        return Growth::Finite {
            count: total,
            max_len,
        };
    }

    // Polynomial: degree = (max number of cyclic components on a condensation
    // path) − 1. Longest path in a DAG by memoized DFS over components.
    let mut comp_succ: Vec<Vec<usize>> = vec![Vec::new(); num_comps];
    for s in 0..n {
        if !live[s] {
            continue;
        }
        for sym in 0..sigma {
            let t = dfa.next(s as u32, Symbol::from_index(sym)) as usize;
            if live[t] && comp[t] != comp[s] {
                comp_succ[comp[s]].push(comp[t]);
            }
        }
    }
    for succ in &mut comp_succ {
        succ.sort_unstable();
        succ.dedup();
    }
    let mut memo: Vec<Option<usize>> = vec![None; num_comps];
    fn longest(
        c: usize,
        cyclic: &[bool],
        succ: &[Vec<usize>],
        memo: &mut Vec<Option<usize>>,
    ) -> usize {
        if let Some(v) = memo[c] {
            return v;
        }
        let here = usize::from(cyclic[c]);
        let best_tail = succ[c]
            .iter()
            .map(|&d| longest(d, cyclic, succ, memo))
            .max()
            .unwrap_or(0);
        let v = here + best_tail;
        memo[c] = Some(v);
        v
    }
    let mut best = 0usize;
    for s in 0..n {
        if live[s] {
            best = best.max(longest(comp[s], &cyclic, &comp_succ, &mut memo));
        }
    }
    // `best ≥ 1` here because some component is cyclic and all live states
    // reach an accepting state.
    Growth::Polynomial { degree: best - 1 }
}

/// Classify the growth of `L(r)`.
pub fn classify_regex(r: &Regex) -> Growth {
    let sigma = r.symbols().iter().map(|s| s.index() + 1).max().unwrap_or(1);
    classify_dfa(&Dfa::from_nfa(&Nfa::thompson(r), sigma))
}

/// Reachable-and-coreachable mask ("live" states): exactly the states that
/// occur on some accepting run.
fn live_states(dfa: &Dfa) -> Vec<bool> {
    let n = dfa.num_states();
    let sigma = dfa.sigma();
    let mut reach = vec![false; n];
    let mut stack = vec![dfa.start()];
    reach[dfa.start() as usize] = true;
    while let Some(s) = stack.pop() {
        for sym in 0..sigma {
            let t = dfa.next(s, Symbol::from_index(sym));
            if !reach[t as usize] {
                reach[t as usize] = true;
                stack.push(t);
            }
        }
    }
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for s in 0..n {
        for sym in 0..sigma {
            let t = dfa.next(s as u32, Symbol::from_index(sym));
            rev[t as usize].push(s as u32);
        }
    }
    let mut co = vec![false; n];
    let mut stack: Vec<u32> = (0..n as u32).filter(|&s| dfa.is_accepting(s)).collect();
    for &s in &stack {
        co[s as usize] = true;
    }
    while let Some(s) = stack.pop() {
        for &p in &rev[s as usize] {
            if !co[p as usize] {
                co[p as usize] = true;
                stack.push(p);
            }
        }
    }
    (0..n).map(|s| reach[s] && co[s]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};

    fn classify(src: &str) -> Growth {
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, src).unwrap();
        classify_regex(&r)
    }

    #[test]
    fn empty_language() {
        assert_eq!(classify("[]"), Growth::Empty);
        assert_eq!(classify("[].a"), Growth::Empty);
    }

    #[test]
    fn finite_languages_counted_exactly() {
        assert_eq!(
            classify("()"),
            Growth::Finite {
                count: 1,
                max_len: 0
            }
        );
        assert_eq!(
            classify("a.b + a.c + ()"),
            Growth::Finite {
                count: 3,
                max_len: 2
            }
        );
        // (a+b)(a+b)(a+b): 8 words of length 3
        assert_eq!(
            classify("(a+b).(a+b).(a+b)"),
            Growth::Finite {
                count: 8,
                max_len: 3
            }
        );
    }

    #[test]
    fn degree_zero_polynomials() {
        assert_eq!(classify("a*"), Growth::Polynomial { degree: 0 });
        assert_eq!(classify("(a.b)*"), Growth::Polynomial { degree: 0 });
        assert_eq!(classify("c.(a.b)*.d"), Growth::Polynomial { degree: 0 });
        // union of two single-cycle languages still degree 0
        assert_eq!(classify("a* + (b.b)*"), Growth::Polynomial { degree: 0 });
    }

    #[test]
    fn higher_degree_polynomials() {
        assert_eq!(classify("a*.b*"), Growth::Polynomial { degree: 1 });
        assert_eq!(classify("a*.b*.a*"), Growth::Polynomial { degree: 2 });
        assert_eq!(classify("a*.c.b*"), Growth::Polynomial { degree: 1 });
        // parallel branches take the max, not the sum
        assert_eq!(classify("a*.b* + c*"), Growth::Polynomial { degree: 1 });
    }

    #[test]
    fn exponential_families() {
        assert_eq!(classify("(a+b)*"), Growth::Exponential);
        assert_eq!(classify("(a.b + b)*"), Growth::Exponential);
        assert_eq!(classify("c.(a+b)*.d"), Growth::Exponential);
        // two cycles through a shared state via different words
        assert_eq!(classify("(a.a + a.b)*"), Growth::Exponential);
    }

    #[test]
    fn growth_agrees_with_is_finite() {
        let sources = [
            "a.b+c", "a.b+b", "a*", "a*.b", "a*.b*", "(a+b)*", "[]", "()", "()*", "(a.b)*.c",
        ];
        for src in sources {
            let mut ab = Alphabet::new();
            let r = parse_regex(&mut ab, src).unwrap();
            assert_eq!(
                classify_regex(&r).is_finite(),
                Nfa::thompson(&r).is_finite_lang(),
                "mismatch on {src}"
            );
        }
    }

    #[test]
    fn counts_match_polynomial_shape() {
        // a*b* has exactly n+1 words of each length n.
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "a*.b*").unwrap();
        let dfa = Dfa::from_nfa(&Nfa::thompson(&r), 2);
        let counts = dfa.count_words_by_length(6);
        assert_eq!(counts, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(classify_regex(&r), Growth::Polynomial { degree: 1 });
    }

    #[test]
    fn counts_match_exponential_shape() {
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "(a+b)*").unwrap();
        let dfa = Dfa::from_nfa(&Nfa::thompson(&r), 2);
        let counts = dfa.count_words_by_length(5);
        assert_eq!(counts, vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(classify_regex(&r), Growth::Exponential);
    }
}
