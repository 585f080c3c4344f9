//! A brute-force evaluation oracle for testing.
//!
//! Evaluates `p(o, I)` as the paper *defines* it — "the set of all objects
//! o' reachable from o by some path whose labels spell a word in p" — by
//! enumerating accepted words up to a pumping bound and following each word
//! through the graph. Exponential; only for small instances in tests, where
//! it anchors the property tests asserting that all real engines agree with
//! the definition.

use rpq_automata::Nfa;
use rpq_graph::{Instance, Oid};

/// Evaluate by word enumeration. `max_word_len` defaults (when `None`) to
/// the product pumping bound `|Q| · |V|`: any answer reachable at all is
/// reachable by an accepted word no longer than the number of distinct
/// (state, node) pairs.
pub fn eval_oracle(
    nfa: &Nfa,
    instance: &Instance,
    source: Oid,
    max_word_len: Option<usize>,
) -> Vec<Oid> {
    let bound = max_word_len.unwrap_or(nfa.num_states() * instance.num_nodes());
    let mut answers: Vec<Oid> = Vec::new();
    // Enumerate with a generous cap; tiny test inputs only.
    let words = nfa.enumerate_words(bound, 1_000_000);
    for w in words {
        for t in instance.word_targets(source, &w) {
            if !answers.contains(&t) {
                answers.push(t);
            }
        }
    }
    answers.sort();
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::eval_product;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::InstanceBuilder;

    #[test]
    fn oracle_matches_engines_on_small_graph() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("x", "b", "s");
        b.edge("x", "a", "y");
        b.edge("y", "c", "z");
        let (inst, names) = b.finish();
        let s = names["s"];
        for q in ["a.(b.a)*", "(a.b)*.a.a.c", "a*.c", "(a+b+c)*"] {
            let r = parse_regex(&mut ab, q).unwrap();
            let nfa = Nfa::thompson(&r);
            let oracle = eval_oracle(&nfa, &inst, s, Some(8));
            assert_eq!(eval_product(&nfa, &inst, s).answers, oracle, "{q}");
        }
    }

    #[test]
    fn default_bound_is_sufficient() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        // long chain: answer only reachable with a length-5 word
        b.edge("n0", "a", "n1");
        b.edge("n1", "a", "n2");
        b.edge("n2", "a", "n3");
        b.edge("n3", "a", "n4");
        b.edge("n4", "a", "n5");
        let (inst, names) = b.finish();
        let r = parse_regex(&mut ab, "a*").unwrap();
        let nfa = Nfa::thompson(&r);
        let ans = eval_oracle(&nfa, &inst, names["n0"], None);
        assert_eq!(ans.len(), 6);
    }
}
