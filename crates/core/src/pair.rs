//! Pair reachability `target ∈ p(source, I)` — the (source, target)
//! scenario, with a meet-in-the-middle search.
//!
//! The forward engines answer the *set* question "which objects does
//! `p(o, I)` contain?". Many workloads ask the cheaper *pair* question:
//! "does this word-labeled path exist between these two objects?".
//! [`search_pair`] answers it over any [`GraphView`] snapshot (the
//! [`rpq_graph::CsrGraph`] or a delta overlay) by the [`Direction`] it is
//! given:
//!
//! * [`Direction::Forward`] — the forward product BFS with an early exit as
//!   soon as `target` becomes an answer;
//! * [`Direction::Backward`] — the backward (reversed-NFA,
//!   reverse-adjacency) BFS with an early exit on `source`;
//! * [`Direction::Bidirectional`] — **meet-in-the-middle**: both searches
//!   run level-alternately (always expanding the currently smaller
//!   frontier) and stop at the first `(state, node)` cell discovered from
//!   both ends — a forward cell `(q, v)` says "some prefix `u` drives the
//!   automaton `start →u→ q` along a path `source →…→ v`", a backward cell
//!   says "some suffix `w` drives `q →w→ accept` along `v →…→ target`", so
//!   a shared cell splices a witness word `u·w ∈ L(p)`. Seen sets are one
//!   [`rpq_graph::bitset::NodeBitset`] per automaton state
//!   ([`FrontierArena`]), so the intersection probe is one bit test.
//!
//! Which strategy wins is data-dependent (first- vs last-label
//! selectivity); `rpq_optimizer::PlannedEngine` chooses from
//! [`rpq_graph::LabelStats`]. [`eval_pair`] and [`eval_to`] are the
//! `Query`-level entry points.

use rpq_automata::{Nfa, StateId};
use rpq_graph::bitset::FrontierArena;
use rpq_graph::{GraphView, Oid};

use crate::engine::Query;
use crate::product::{product_search, search_nodes, EvalResult, SearchOpts};
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
/// `nfa.reverse()`. `direction` selects the strategy (see the module docs)
/// and overrides `opts.reverse_adj`; the early-exit searches read the rest
/// of `opts`, meet-in-the-middle reads none of it (it is uncontrolled and
/// always completes).
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
        Direction::Forward => (nfa, source, target, false),
        Direction::Backward => (reversed, target, source, true),
        Direction::Bidirectional => {
            let res = meet_in_the_middle(nfa, reversed, graph, source, target, scratch);
            return (res, Termination::Complete);
        }
    };
    let opts = SearchOpts {
        reverse_adj,
        ..*opts
    };
    let (res, found, term) = product_search(auto, graph, seed, Some(stop_at), &opts, scratch);
    let term = if found { Termination::Complete } else { term };
    (pair_result(found, res.stats), term)
}

fn pair_result(reachable: bool, mut stats: EvalStats) -> PairResult {
    stats.answers = usize::from(reachable);
    PairResult { reachable, stats }
}

/// Meet-in-the-middle pair reachability: alternate expanding the smaller
/// frontier of the forward and backward product searches, stopping at the
/// first `(state, node)` cell seen from both ends. All working memory is
/// drawn from `scratch`.
fn meet_in_the_middle<G: GraphView>(
    nfa: &Nfa,
    reversed: &Nfa,
    graph: &G,
    source: Oid,
    target: Oid,
    scratch: &mut EvalScratch,
) -> PairResult {
    let nv = graph.num_nodes();
    let nq = nfa.num_states();
    let rnq = reversed.num_states();
    // The whole intersection scheme leans on Nfa::reverse's documented
    // numbering (fresh start 0, state i → i + 1); pin it here so a future
    // reverse() refactor fails loudly instead of corrupting answers.
    assert_eq!(rnq, nq + 1, "Nfa::reverse state-numbering contract broken");

    // Both seen arenas are sized by the larger (reversed) automaton: the
    // forward side simply never touches its extra state row.
    let covered = scratch.begin(rnq, nv);
    let mut stats = EvalStats {
        scratch_reused: usize::from(covered),
        ..EvalStats::default()
    };
    if nv == 0 {
        return pair_result(false, stats);
    }

    // seen_f = scratch.dense: a prefix reaches automaton state q at node v.
    // seen_b = scratch.dense_b: rq ≥ 1 ⇒ a suffix runs nfa state rq−1 to
    // acceptance along a path v →…→ target (rq = 0 is the reversed
    // automaton's fresh start and corresponds to no forward state).
    //
    // Seed both sides *with their ε-closures* before the first expansion:
    // the early-exit argument below ("a drained side proves
    // unreachability") needs every seed-level cell of the *other* side in
    // its seen set from the start.
    if scratch
        .dense
        .state_mut(nfa.start() as usize)
        .insert(source.index())
    {
        scratch.frontier.push((nfa.start(), source));
    }
    if scratch
        .dense_b
        .state_mut(reversed.start() as usize)
        .insert(target.index())
    {
        scratch.frontier_b.push((reversed.start(), target));
    }
    if close_level(
        nfa,
        &mut scratch.frontier,
        &mut scratch.dense,
        &scratch.dense_b,
        true,
    ) || close_level(
        reversed,
        &mut scratch.frontier_b,
        &mut scratch.dense_b,
        &scratch.dense,
        false,
    ) {
        return pair_result(true, stats);
    }

    // Either frontier draining without a meet proves unreachability: a
    // drained forward side has discovered every prefix-reachable cell — a
    // witness word would have put `(accept, target)` there, and the
    // backward *seed closure* already holds its mirror `(accept + 1,
    // target)`, so the meet probe would have fired (symmetrically for a
    // drained backward side against the forward seed closure).
    while !scratch.frontier.is_empty() && !scratch.frontier_b.is_empty() {
        // Expand the smaller frontier one full level.
        let forward_side = scratch.frontier.len() <= scratch.frontier_b.len();
        let EvalScratch {
            frontier,
            frontier_b,
            next,
            dense,
            dense_b,
            ..
        } = scratch;
        let (auto, frontier, seen, seen_other): (
            &Nfa,
            &mut Vec<(StateId, Oid)>,
            &mut FrontierArena,
            &FrontierArena,
        ) = if forward_side {
            (nfa, frontier, dense, dense_b)
        } else {
            (reversed, frontier_b, dense_b, dense)
        };
        stats.frontier_peak = stats.frontier_peak.max(frontier.len());

        // One labeled step over the matching adjacency.
        for &(q, v) in frontier.iter() {
            stats.pairs_visited += 1;
            for &(sym, q2) in auto.transitions(q) {
                let targets = if forward_side {
                    graph.out(v, sym)
                } else {
                    graph.rev(v, sym)
                };
                stats.edges_scanned += targets.len();
                for v2 in targets {
                    if seen.state_mut(q2 as usize).insert(v2.index()) {
                        next.push((q2, v2));
                        if meets(q2, seen_other, v2, forward_side) {
                            return pair_result(true, stats);
                        }
                    }
                }
            }
        }
        stats.push_levels += 1;
        std::mem::swap(frontier, next);
        next.clear();
        // ε-closure of the freshly advanced level.
        if close_level(auto, frontier, seen, seen_other, forward_side) {
            return pair_result(true, stats);
        }
    }

    pair_result(false, stats)
}

/// Does a cell of one search side meet the other side's seen set? A forward
/// cell `(q, v)` meets the backward cell `(q + 1, v)` (the reversed
/// automaton's states are the forward states shifted past its fresh start);
/// a backward cell `(rq, v)` with `rq ≥ 1` meets the forward cell
/// `(rq − 1, v)`; the fresh start `rq = 0` maps to no forward state.
fn meets(q: StateId, seen_other: &FrontierArena, v: Oid, forward_side: bool) -> bool {
    if forward_side {
        seen_other.state(q as usize + 1).contains(v.index())
    } else {
        q >= 1 && seen_other.state(q as usize - 1).contains(v.index())
    }
}

/// ε-close `frontier` in place (ε-moves consume no graph edge, so closure
/// cells belong to the same BFS level), probing the other side's seen set
/// at every insertion. Returns `true` on a meet.
fn close_level(
    auto: &Nfa,
    frontier: &mut Vec<(StateId, Oid)>,
    seen: &mut FrontierArena,
    seen_other: &FrontierArena,
    forward_side: bool,
) -> bool {
    let mut i = 0;
    while i < frontier.len() {
        let (q, v) = frontier[i];
        if i == 0 && meets(q, seen_other, v, forward_side) {
            return true;
        }
        i += 1;
        for &q2 in auto.eps_transitions(q) {
            if seen.state_mut(q2 as usize).insert(v.index()) {
                frontier.push((q2, v));
                if meets(q2, seen_other, v, forward_side) {
                    return true;
                }
            }
        }
    }
    false
}

/// `Query`-level pair entry point: is `target ∈ p(source, I)`?
/// Meet-in-the-middle; use `rpq_optimizer::PlannedEngine` to pick the
/// direction from label statistics instead.
pub fn eval_pair<G: GraphView>(query: &Query, graph: &G, source: Oid, target: Oid) -> PairResult {
    let nfa = query.nfa();
    search_pair(
        nfa,
        &nfa.reverse(),
        graph,
        source,
        target,
        Direction::Bidirectional,
        &SearchOpts::default(),
        &mut EvalScratch::new(),
    )
    .0
}

/// `Query`-level target-bound entry point: `{o | target ∈ p(o, I)}` by the
/// backward product BFS — the reversed automaton over the reverse
/// adjacency, so work is proportional to edges matching the query's
/// *last* label groups first (bench `t12_direction_choice`).
pub fn eval_to<G: GraphView>(query: &Query, graph: &G, target: Oid) -> EvalResult {
    let opts = SearchOpts {
        reverse_adj: true,
        ..SearchOpts::default()
    };
    search_nodes(
        &query.nfa().reverse(),
        graph,
        target,
        &opts,
        &mut EvalScratch::new(),
    )
    .0
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
                    let mitm = pair(&nfa, &csr, s, t, Direction::Bidirectional);
                    assert_eq!(mitm.reachable, expect, "mitm {qs} {s:?}->{t:?}");
                    assert_eq!(mitm.stats.answers, usize::from(expect));
                    let fwd = pair(&nfa, &csr, s, t, Direction::Forward);
                    assert_eq!(fwd.reachable, expect, "fwd {qs} {s:?}->{t:?}");
                    let bwd = pair(&nfa, &csr, s, t, Direction::Backward);
                    assert_eq!(bwd.reachable, expect, "bwd {qs} {s:?}->{t:?}");
                }
            }
        }
    }

    #[test]
    fn epsilon_pair_is_reflexive_only() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "()").unwrap();
        for s in csr.nodes() {
            for t in csr.nodes() {
                assert_eq!(eval_pair(&q, &csr, s, t).reachable, s == t);
            }
        }
    }

    #[test]
    fn meet_in_the_middle_beats_both_ends_on_an_expander() {
        // A deterministic 4-out-regular digraph (modular successors spread
        // edges expander-style) where both frontiers of the query a^6 grow
        // geometrically: a single-direction search pays ~b^6 edge scans
        // before the first length-6 answer appears, the bidirectional
        // search pays ~2·b^3 — meeting after three levels from each end.
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let n = 2003u32;
        let mut inst = rpq_graph::Instance::new();
        let nodes: Vec<Oid> = (0..n).map(|_| inst.add_node()).collect();
        for i in 0..n {
            for j in 0..4u32 {
                let to = (i * 31 + j * 97 + 17) % n;
                inst.add_edge(nodes[i as usize], a, nodes[to as usize]);
            }
        }
        let csr = CsrGraph::from(&inst);
        let q = parse_regex(&mut ab, "a.a.a.a.a.a").unwrap();
        let nfa = rpq_automata::Nfa::thompson(&q);
        let s = nodes[0];
        let answers = eval_product_csr(&nfa, &csr, s).answers;
        let t = *answers.last().expect("a^6 reaches something");
        let mitm = pair(&nfa, &csr, s, t, Direction::Bidirectional);
        let fwd = pair(&nfa, &csr, s, t, Direction::Forward);
        let bwd = pair(&nfa, &csr, s, t, Direction::Backward);
        assert!(mitm.reachable && fwd.reachable && bwd.reachable);
        assert!(
            mitm.stats.edges_scanned < fwd.stats.edges_scanned
                && mitm.stats.edges_scanned < bwd.stats.edges_scanned,
            "mitm {} fwd {} bwd {}",
            mitm.stats.edges_scanned,
            fwd.stats.edges_scanned,
            bwd.stats.edges_scanned
        );
    }

    #[test]
    fn query_level_entry_points() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        let o1 = Oid(0);
        let fwd = eval_product_csr(q.nfa(), &csr, o1);
        for &t in &fwd.answers {
            assert!(eval_pair(&q, &csr, o1, t).reachable);
            assert!(eval_to(&q, &csr, t).answers.contains(&o1));
        }
    }
}
