//! Possibly-infinite graph sources (Section 2.1 and Remark 2.1).
//!
//! The paper motivates *infinite* instances as an abstraction of the Web:
//! every object still has finite outdegree (a page references few pages),
//! but the set of objects may be unbounded, and queries that would require
//! exhaustive exploration are "penalized by a nonterminating computation".
//!
//! [`GraphSource`] abstracts over finite [`Instance`]s and lazily generated
//! infinite graphs: an evaluator only ever asks for the outgoing edges of
//! nodes it has already reached, which is exactly the browser-machine access
//! mode of [6, 7]. Node identities are opaque `u64`s chosen by the source.

use rpq_automata::Symbol;
use rpq_graph::{CsrGraph, Instance, Oid};

/// Node identity in a (possibly infinite) graph source.
pub type NodeId = u64;

/// A graph revealed only through outgoing edges — finite or infinite.
pub trait GraphSource {
    /// The outgoing edges of `node`. Must be finite (finite outdegree) and
    /// deterministic for a given node.
    fn out_edges(&self, node: NodeId) -> Vec<(Symbol, NodeId)>;

    /// An optional display name for traces.
    fn node_label(&self, node: NodeId) -> String {
        format!("n{node}")
    }
}

impl GraphSource for Instance {
    fn out_edges(&self, node: NodeId) -> Vec<(Symbol, NodeId)> {
        Instance::out_edges(self, Oid(node as u32))
            .iter()
            .map(|&(l, t)| (l, t.0 as NodeId))
            .collect()
    }

    fn node_label(&self, node: NodeId) -> String {
        self.node_name(Oid(node as u32))
    }
}

/// A `CsrGraph` is also a [`GraphSource`], so lazy/streaming evaluators run
/// over it unchanged.
impl GraphSource for CsrGraph {
    fn out_edges(&self, node: NodeId) -> Vec<(Symbol, NodeId)> {
        self.out_pairs(Oid(node as u32))
            .map(|(l, t)| (l, t.0 as NodeId))
            .collect()
    }
}

/// An infinite `k`-ary tree: node `n` has children on each of the configured
/// labels. Evaluating `a*` from the root never terminates — the paper's
/// example of a query requiring exhaustive exploration — while bounded
/// queries such as `a.b` terminate after exploring finitely many nodes.
///
/// Node ids are the breadth-first numbering, so distinct nodes stay distinct
/// down to depth ~64/log₂(k+1); beyond that the arithmetic saturates (ids
/// collide at `u64::MAX`), which is far past any practical exploration
/// budget.
#[derive(Clone, Debug)]
pub struct InfiniteTree {
    /// Branch labels; child `i` of node `n` is `n * k + i + 1`.
    pub labels: Vec<Symbol>,
}

impl GraphSource for InfiniteTree {
    fn out_edges(&self, node: NodeId) -> Vec<(Symbol, NodeId)> {
        let k = self.labels.len() as NodeId;
        self.labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, node.saturating_mul(k).saturating_add(i as NodeId + 1)))
            .collect()
    }
}

/// An infinite "comb": a spine of `next`-labeled edges, each spine node also
/// carrying one `tooth`-labeled edge to a leaf. Queries like `next*.tooth`
/// reach infinitely many answers (eventually computable, never terminating);
/// `next.next.tooth` terminates.
#[derive(Clone, Debug)]
pub struct InfiniteComb {
    /// Label of the spine edges.
    pub next: Symbol,
    /// Label of the tooth edges.
    pub tooth: Symbol,
}

impl GraphSource for InfiniteComb {
    fn out_edges(&self, node: NodeId) -> Vec<(Symbol, NodeId)> {
        // Spine nodes are even, teeth odd.
        if node.is_multiple_of(2) {
            vec![(self.next, node + 2), (self.tooth, node + 1)]
        } else {
            Vec::new()
        }
    }
}

/// An eventually-cyclic line: `prefix_len` fresh nodes followed by a loop
/// back. Finite despite being defined procedurally; used to test that lazy
/// evaluation terminates when the reachable portion is finite.
#[derive(Clone, Debug)]
pub struct LassoLine {
    /// Label on every edge.
    pub label: Symbol,
    /// Nodes before the cycle closes.
    pub prefix_len: u64,
    /// Length of the terminal cycle.
    pub cycle_len: u64,
}

impl GraphSource for LassoLine {
    fn out_edges(&self, node: NodeId) -> Vec<(Symbol, NodeId)> {
        let last = self.prefix_len + self.cycle_len - 1;
        if node < last {
            vec![(self.label, node + 1)]
        } else if node == last {
            vec![(self.label, self.prefix_len)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Alphabet;

    #[test]
    fn instance_as_source() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut i = Instance::new();
        let x = i.add_named_node("x");
        let y = i.add_node();
        i.add_edge(x, a, y);
        let edges = GraphSource::out_edges(&i, x.0 as NodeId);
        assert_eq!(edges, vec![(a, y.0 as NodeId)]);
        assert_eq!(i.node_label(x.0 as NodeId), "x");
    }

    #[test]
    fn infinite_tree_children_are_distinct() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let t = InfiniteTree { labels: vec![a, b] };
        let e0 = t.out_edges(0);
        assert_eq!(e0.len(), 2);
        let kids: Vec<NodeId> = e0.iter().map(|&(_, n)| n).collect();
        let e1 = t.out_edges(kids[0]);
        let e2 = t.out_edges(kids[1]);
        let all: std::collections::HashSet<NodeId> =
            e1.iter().chain(e2.iter()).map(|&(_, n)| n).collect();
        assert_eq!(all.len(), 4, "grandchildren must not collide");
    }

    #[test]
    fn comb_teeth_are_leaves() {
        let mut ab = Alphabet::new();
        let n = ab.intern("next");
        let t = ab.intern("tooth");
        let comb = InfiniteComb { next: n, tooth: t };
        let e = comb.out_edges(0);
        assert_eq!(e.len(), 2);
        let tooth_node = e.iter().find(|&&(l, _)| l == t).unwrap().1;
        assert!(comb.out_edges(tooth_node).is_empty());
    }

    #[test]
    fn lasso_closes_cycle() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let l = LassoLine {
            label: a,
            prefix_len: 2,
            cycle_len: 3,
        };
        // nodes 0,1 prefix; 2,3,4 cycle; 4 -> 2
        assert_eq!(l.out_edges(4), vec![(a, 2)]);
        assert_eq!(l.out_edges(1), vec![(a, 2)]);
        // reachable set from 0 is finite
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![0u64];
        while let Some(x) = stack.pop() {
            if seen.insert(x) {
                for (_, t) in l.out_edges(x) {
                    stack.push(t);
                }
            }
        }
        assert_eq!(seen.len(), 5);
    }
}
