//! Streaming ("eventually computable") evaluation over possibly-infinite
//! graphs — Remark 2.1.
//!
//! On an infinite Web, path queries are *eventually computable*: evaluation
//! over increasing finite portions produces every answer eventually, but
//! termination is only guaranteed when the set of nodes reachable by
//! prefixes of query words is finite. [`StreamingEval`] is a pull-based
//! product-automaton BFS over a [`GraphSource`]: each call to
//! [`StreamingEval::next_answer`] advances the frontier until the next new
//! answer appears, the frontier empties (termination), or the node budget is
//! exhausted (the "exhaustive exploration penalty" made observable).

use std::collections::{HashMap, HashSet, VecDeque};

use rpq_automata::{Nfa, StateId};

use crate::source::{GraphSource, NodeId};

/// Why [`StreamingEval::next_answer`] returned `None`.
///
/// The budget bounds **distinct node fetches** (`source.out_edges` calls):
/// revisiting a node whose edges are already in the cache is free and never
/// flips the status. The invariants, pinned by the regression tests below:
///
/// * `Terminated` is reported iff the reachable pair space was fully
///   explored — the answer set is complete, even when the budget is
///   exactly consumed on the way;
/// * `BudgetExhausted` is reported iff an *unfetched* node was required
///   after the budget was spent; the blocking pair is parked at the queue
///   front so [`StreamingEval::add_budget`] resumes exactly there;
/// * [`StreamingEval::nodes_expanded`] never exceeds the budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StreamStatus {
    /// Frontier still non-empty and budget remains — more answers may come.
    InProgress,
    /// The reachable prefix set was exhausted: the answer set is complete.
    Terminated,
    /// The node-expansion budget ran out: the query would keep exploring
    /// (on an infinite source this is the nonterminating case).
    BudgetExhausted,
}

/// Pull-based evaluator over a graph source.
pub struct StreamingEval<'a, G: GraphSource> {
    nfa: &'a Nfa,
    source: &'a G,
    queue: VecDeque<(StateId, NodeId)>,
    seen: HashSet<(StateId, NodeId)>,
    answered: HashSet<NodeId>,
    edges_cache: HashMap<NodeId, Vec<(rpq_automata::Symbol, NodeId)>>,
    nodes_expanded: usize,
    edges_fetched: usize,
    budget: usize,
    status: StreamStatus,
}

impl<'a, G: GraphSource> StreamingEval<'a, G> {
    /// Start evaluating `L(nfa)` from `start` with a node-expansion budget.
    pub fn new(nfa: &'a Nfa, source: &'a G, start: NodeId, budget: usize) -> Self {
        let mut s = StreamingEval {
            nfa,
            source,
            queue: VecDeque::new(),
            seen: HashSet::new(),
            answered: HashSet::new(),
            edges_cache: HashMap::new(),
            nodes_expanded: 0,
            edges_fetched: 0,
            budget,
            status: StreamStatus::InProgress,
        };
        s.push(nfa.start(), start);
        s
    }

    fn push(&mut self, q: StateId, v: NodeId) {
        if self.seen.insert((q, v)) {
            self.queue.push_back((q, v));
        }
    }

    fn edges_of(&mut self, v: NodeId) -> Vec<(rpq_automata::Symbol, NodeId)> {
        if let Some(e) = self.edges_cache.get(&v) {
            return e.clone();
        }
        self.nodes_expanded += 1;
        let e = self.source.out_edges(v);
        self.edges_fetched += e.len();
        self.edges_cache.insert(v, e.clone());
        e
    }

    /// Advance until the next previously-unseen answer, or `None` with a
    /// meaningful [`StreamingEval::status`].
    pub fn next_answer(&mut self) -> Option<NodeId> {
        while let Some((q, v)) = self.queue.pop_front() {
            let mut fresh_answer = None;
            if self.nfa.is_accepting(q) && self.answered.insert(v) {
                fresh_answer = Some(v);
            }
            for &q2 in self.nfa.eps_transitions(q) {
                self.push(q2, v);
            }
            // Only expand the node if some labeled transition leaves q.
            if !self.nfa.transitions(q).is_empty() {
                if self.nodes_expanded >= self.budget && !self.edges_cache.contains_key(&v) {
                    self.status = StreamStatus::BudgetExhausted;
                    // Park the pair at the queue front so callers can
                    // resume with more budget. It stays in `seen`: dedup
                    // only gates `push`, so re-queueing directly cannot
                    // lose the pair, while *removing* it from `seen` would
                    // let a later expansion enqueue a duplicate (the pair
                    // would then be processed twice and `pairs_discovered`
                    // would undercount while it is parked).
                    self.queue.push_front((q, v));
                    return fresh_answer;
                }
                let edges = self.edges_of(v);
                let trans: Vec<_> = self.nfa.transitions(q).to_vec();
                for (sym, q2) in trans {
                    for &(label, v2) in &edges {
                        if label == sym {
                            self.push(q2, v2);
                        }
                    }
                }
            }
            if let Some(a) = fresh_answer {
                return Some(a);
            }
        }
        if self.status == StreamStatus::InProgress {
            self.status = StreamStatus::Terminated;
        }
        None
    }

    /// Drain all remaining answers (until termination or budget).
    pub fn collect_all(&mut self) -> Vec<NodeId> {
        let mut out = Vec::new();
        while let Some(a) = self.next_answer() {
            out.push(a);
        }
        out.sort_unstable();
        out
    }

    /// Current status (meaningful after `next_answer` returned `None`).
    pub fn status(&self) -> StreamStatus {
        self.status
    }

    /// Number of distinct nodes whose descriptions were fetched.
    pub fn nodes_expanded(&self) -> usize {
        self.nodes_expanded
    }

    /// Total edges fetched across all expanded nodes.
    pub fn edges_fetched(&self) -> usize {
        self.edges_fetched
    }

    /// Number of distinct `(state, node)` pairs discovered so far.
    pub fn pairs_discovered(&self) -> usize {
        self.seen.len()
    }

    /// Grant additional budget (the "keep browsing" operation).
    pub fn add_budget(&mut self, extra: usize) {
        self.budget += extra;
        if self.status == StreamStatus::BudgetExhausted {
            self.status = StreamStatus::InProgress;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{InfiniteComb, InfiniteTree, LassoLine};
    use rpq_automata::{parse_regex, Alphabet};

    #[test]
    fn terminates_on_bounded_query_over_infinite_tree() {
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "a.b").unwrap();
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let tree = InfiniteTree { labels: vec![a, b] };
        let nfa = Nfa::thompson(&r);
        let mut ev = StreamingEval::new(&nfa, &tree, 0, 1_000);
        let answers = ev.collect_all();
        assert_eq!(answers.len(), 1);
        assert_eq!(ev.status(), StreamStatus::Terminated);
        assert!(ev.nodes_expanded() <= 4);
    }

    #[test]
    fn budget_exhausts_on_unbounded_query() {
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "a*").unwrap();
        let a = ab.get("a").unwrap();
        let b = ab.intern("b");
        let tree = InfiniteTree { labels: vec![a, b] };
        let nfa = Nfa::thompson(&r);
        let mut ev = StreamingEval::new(&nfa, &tree, 0, 50);
        let answers = ev.collect_all();
        assert_eq!(ev.status(), StreamStatus::BudgetExhausted);
        assert!(!answers.is_empty(), "answers stream before exhaustion");
    }

    #[test]
    fn resume_after_budget_extension_finds_more() {
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "next*.tooth").unwrap();
        let next = ab.get("next").unwrap();
        let tooth = ab.get("tooth").unwrap();
        let comb = InfiniteComb { next, tooth };
        let nfa = Nfa::thompson(&r);
        let mut ev = StreamingEval::new(&nfa, &comb, 0, 10);
        let first = ev.collect_all();
        assert_eq!(ev.status(), StreamStatus::BudgetExhausted);
        ev.add_budget(20);
        let more = ev.collect_all();
        assert!(!more.is_empty(), "extension must surface new answers");
        for a in &more {
            assert!(!first.contains(a), "answers must not repeat");
        }
    }

    #[test]
    fn lasso_terminates_despite_star() {
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "a*").unwrap();
        let a = ab.get("a").unwrap();
        let lasso = LassoLine {
            label: a,
            prefix_len: 3,
            cycle_len: 4,
        };
        let nfa = Nfa::thompson(&r);
        let mut ev = StreamingEval::new(&nfa, &lasso, 0, 10_000);
        let answers = ev.collect_all();
        assert_eq!(answers.len(), 7);
        assert_eq!(ev.status(), StreamStatus::Terminated);
    }

    #[test]
    fn cached_revisits_are_free_and_never_flip_the_status() {
        // A lasso: 3-node tail into a 4-node cycle, 7 distinct nodes. The
        // query a* revisits cycle nodes in later automaton states, but all
        // edges are cached by then: a budget of exactly 7 fetches must
        // complete with Terminated and the full answer set — revisit order
        // must not turn an exactly-sufficient budget into BudgetExhausted.
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "a*").unwrap();
        let a = ab.get("a").unwrap();
        let lasso = LassoLine {
            label: a,
            prefix_len: 3,
            cycle_len: 4,
        };
        let nfa = Nfa::thompson(&r);
        let mut ev = StreamingEval::new(&nfa, &lasso, 0, 7);
        let answers = ev.collect_all();
        assert_eq!(answers.len(), 7);
        assert_eq!(ev.status(), StreamStatus::Terminated);
        assert_eq!(ev.nodes_expanded(), 7);
    }

    #[test]
    fn budget_is_never_exceeded_and_statuses_partition_runs() {
        // Sweep every budget on a finite source: each run must end in
        // exactly one of Terminated (complete answers) or BudgetExhausted
        // (a strict prefix), and nodes_expanded must never exceed the
        // budget. The full answer set needs 7 fetches.
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "a*").unwrap();
        let a = ab.get("a").unwrap();
        let lasso = LassoLine {
            label: a,
            prefix_len: 3,
            cycle_len: 4,
        };
        let nfa = Nfa::thompson(&r);
        for budget in 0..10 {
            let mut ev = StreamingEval::new(&nfa, &lasso, 0, budget);
            let answers = ev.collect_all();
            assert!(ev.nodes_expanded() <= budget, "budget {budget} exceeded");
            match ev.status() {
                StreamStatus::Terminated => {
                    assert_eq!(answers.len(), 7, "complete at budget {budget}")
                }
                StreamStatus::BudgetExhausted => {
                    assert!(budget < 7, "budget {budget} suffices for this source");
                    assert!(answers.len() < 7);
                }
                StreamStatus::InProgress => panic!("drained run cannot be InProgress"),
            }
        }
    }

    #[test]
    fn parked_pair_is_not_reprocessed_after_resume() {
        // Exhaust the budget so a pair parks at the queue front, then
        // resume: the pair must stay deduplicated (pairs_discovered is
        // monotone and counts each pair once) and every remaining answer
        // must arrive exactly once.
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "next*").unwrap();
        let next = ab.get("next").unwrap();
        let tooth = ab.intern("tooth");
        let comb = InfiniteComb { next, tooth };
        let nfa = Nfa::thompson(&r);
        let mut ev = StreamingEval::new(&nfa, &comb, 0, 5);
        let first = ev.collect_all();
        assert_eq!(ev.status(), StreamStatus::BudgetExhausted);
        let discovered_at_park = ev.pairs_discovered();
        ev.add_budget(5);
        let more = ev.collect_all();
        assert!(ev.pairs_discovered() >= discovered_at_park, "monotone");
        let mut all: Vec<_> = first.iter().chain(more.iter()).collect();
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "an answer was delivered twice");
    }

    #[test]
    fn answers_arrive_in_nondecreasing_discovery_order() {
        let mut ab = Alphabet::new();
        let r = parse_regex(&mut ab, "next*").unwrap();
        let next = ab.get("next").unwrap();
        let tooth = ab.intern("tooth");
        let comb = InfiniteComb { next, tooth };
        let nfa = Nfa::thompson(&r);
        let mut ev = StreamingEval::new(&nfa, &comb, 0, 12);
        let mut prev = None;
        while let Some(a) = ev.next_answer() {
            if let Some(p) = prev {
                assert!(a > p, "BFS discovers spine nodes in order");
            }
            prev = Some(a);
        }
    }
}
