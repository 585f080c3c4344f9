//! Pair reachability `target ∈ p(source, I)` — the (source, target)
//! scenario, by an early-exit search from the cheaper end.
//!
//! The forward engines answer the *set* question "which objects does
//! `p(o, I)` contain?". Many workloads ask the cheaper *pair* question:
//! "does this word-labeled path exist between these two objects?".
//! [`search_pair`] answers it over any [`GraphView`] snapshot (the
//! [`rpq_graph::CsrGraph`] or a delta overlay) with the one product BFS
//! of [`crate::product`], stopped as soon as the far end becomes an
//! answer, from the end the [`Direction`] names:
//!
//! * [`Direction::Forward`] — from `source`, exiting on `target`;
//! * [`Direction::Backward`] — the reversed automaton over the reverse
//!   adjacency from `target`, exiting on `source`;
//! * [`Direction::Bidirectional`] — a planner's verdict that neither end
//!   is decisively cheaper; it runs forward.
//!
//! Which end wins is data-dependent (first- vs last-label selectivity);
//! `rpq_optimizer::PlannedEngine` chooses from [`rpq_graph::LabelStats`]
//! (bench `t12_direction_choice`). At the `Query` level the question is
//! [`crate::EvalRequest::pair`].

use rpq_automata::Nfa;
use rpq_graph::{GraphView, Oid};

use crate::product::{product_search, SearchOpts};
use crate::request::Termination;
use crate::scratch::EvalScratch;
use crate::stats::{Direction, EvalStats};

/// Result of a pair-reachability evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairResult {
    /// Does a path from `source` to `target` spell a word of the query?
    pub reachable: bool,
    /// Work counters (`answers` is 1 when reachable, 0 otherwise).
    pub stats: EvalStats,
}

/// The pair answer shape: is `target ∈ p(source, I)`? `reversed` must be
/// `nfa.reverse()`. `direction` selects the end the early-exit search
/// starts from (see the module docs) and overrides `opts.reverse_adj`; the
/// rest of `opts` is read as by [`crate::search_nodes`].
///
/// A `reachable == true` verdict is definitive — even if the budget
/// tripped right after the hit, the termination is reported
/// [`Termination::Complete`]; `reachable == false` under a non-complete
/// termination means *not determined* (the search was abandoned before
/// exhausting the pair space).
#[allow(clippy::too_many_arguments)]
pub fn search_pair<G: GraphView>(
    nfa: &Nfa,
    reversed: &Nfa,
    graph: &G,
    source: Oid,
    target: Oid,
    direction: Direction,
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> (PairResult, Termination) {
    let (auto, seed, stop_at, reverse_adj) = match direction {
        Direction::Forward | Direction::Bidirectional => (nfa, source, target, false),
        Direction::Backward => (reversed, target, source, true),
    };
    let opts = SearchOpts {
        reverse_adj,
        ..*opts
    };
    scratch.compile(auto);
    let (mut stats, found, term) = product_search(graph, seed, Some(stop_at), &opts, scratch);
    let term = if found { Termination::Complete } else { term };
    stats.answers = usize::from(found);
    let pair = PairResult {
        reachable: found,
        stats,
    };
    (pair, term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::eval_product_csr;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::CsrGraph;
    use rpq_graph::InstanceBuilder;

    fn pair(nfa: &Nfa, csr: &CsrGraph, s: Oid, t: Oid, direction: Direction) -> PairResult {
        let opts = SearchOpts::default();
        let scratch = &mut EvalScratch::new();
        search_pair(nfa, &nfa.reverse(), csr, s, t, direction, &opts, scratch).0
    }

    fn fig2ish() -> (Alphabet, CsrGraph) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "b", "o2");
        b.edge("o1", "b", "o3");
        b.edge("o3", "a", "o1");
        let (inst, _) = b.finish();
        (ab, CsrGraph::from(&inst))
    }

    #[test]
    fn pair_strategies_agree_with_forward_sets() {
        let (mut ab, csr) = fig2ish();
        for qs in ["a.b*", "(a+b)*", "b.b", "()", "[]", "(a.b)*.a", "a"] {
            let r = parse_regex(&mut ab, qs).unwrap();
            let nfa = rpq_automata::Nfa::thompson(&r);
            for s in csr.nodes() {
                let forward = eval_product_csr(&nfa, &csr, s).answers;
                for t in csr.nodes() {
                    let expect = forward.contains(&t);
                    let undecided = pair(&nfa, &csr, s, t, Direction::Bidirectional);
                    assert_eq!(undecided.reachable, expect, "bidi {qs} {s:?}->{t:?}");
                    let fwd = pair(&nfa, &csr, s, t, Direction::Forward);
                    assert_eq!(fwd.reachable, expect, "fwd {qs} {s:?}->{t:?}");
                    assert_eq!(fwd.stats.answers, usize::from(expect));
                    assert_eq!(undecided, fwd, "no decisive end runs forward");
                    let bwd = pair(&nfa, &csr, s, t, Direction::Backward);
                    assert_eq!(bwd.reachable, expect, "bwd {qs} {s:?}->{t:?}");
                }
            }
        }
    }

    #[test]
    fn epsilon_pair_is_reflexive_only() {
        let (mut ab, csr) = fig2ish();
        let nfa = Nfa::thompson(&parse_regex(&mut ab, "()").unwrap());
        for s in csr.nodes() {
            for t in csr.nodes() {
                let fwd = pair(&nfa, &csr, s, t, Direction::Forward);
                assert_eq!(fwd.reachable, s == t);
            }
        }
    }
}
