//! A query cost model.
//!
//! The paper deliberately leaves "simpler" open ("this could potentially
//! involve a cost measure using information not captured by our basic
//! model"). We provide three measures:
//!
//! * a *static* cost — automaton size plus a recursion penalty: recursion
//!   forces site-set exploration proportional to reachable-graph size,
//!   which is why the paper singles out nonrecursive equivalents
//!   ("guaranteed to terminate", Example 1) and cached rewrites
//!   (Example 3);
//! * an *estimated* cost — the static shape weighted by the per-label
//!   frequency statistics a [`rpq_graph::CsrGraph`] snapshot collects
//!   ([`LabelStats`]), replacing the uniform-fanout guess: a transition on
//!   a hot label costs what the data says it costs;
//! * a *measured* cost — run the query on a snapshot and count work (used
//!   by the benches to validate the static and estimated rankings).

use rpq_automata::{Nfa, Regex};
use rpq_core::eval_product_csr;
use rpq_graph::{CsrGraph, LabelStats, Oid};

use crate::compiled::CompiledQuery;

/// Static cost of a query: facts of its regex, read without building an
/// automaton.
#[derive(Clone, Debug, PartialEq)]
pub struct StaticCost {
    /// States of its Thompson NFA (message/bookkeeping size driver).
    pub states: usize,
    /// AST size (wire size driver).
    pub ast_size: usize,
    /// Is the language infinite (recursion that may explore the whole
    /// reachable graph)?
    pub recursive: bool,
}

impl StaticCost {
    /// Compute the static cost of `q`.
    pub fn of(q: &Regex) -> StaticCost {
        StaticCost::of_compiled(&CompiledQuery::new(q, 0))
    }

    /// The static cost of a query the planner has compiled.
    pub(crate) fn of_compiled(q: &CompiledQuery<'_>) -> StaticCost {
        StaticCost {
            states: q.states(),
            ast_size: q.regex().size(),
            recursive: !q.is_finite(),
        }
    }

    /// Scalar ranking: recursion dominates, then automaton size, then AST.
    pub fn score(&self) -> usize {
        (if self.recursive { 10_000 } else { 0 }) + self.states * 10 + self.ast_size
    }
}

/// Estimated evaluation cost of `q` over a graph summarized by `stats`:
/// per product-BFS visit, a transition on label `l` delivers
/// `edge_count(l)`-proportional work through the label index, so the sum
/// over the query NFA's labeled transitions estimates the per-sweep edge
/// traffic. Recursive queries pay a revisit factor (the fixpoint may sweep
/// the reachable portion several times); the AST size tie-breaks.
///
/// Unlike [`StaticCost::score`], two equivalents with the same shape but
/// different labels rank differently when the data is label-skewed —
/// exactly the case cached rewrites (`l_q = q`) exploit, since the cache
/// label is typically rare.
pub fn estimated_cost(q: &Regex, stats: &LabelStats) -> usize {
    estimated_cost_compiled(&CompiledQuery::new(q, 0), stats)
}

/// [`estimated_cost`] of a query the planner has compiled.
pub(crate) fn estimated_cost_compiled(q: &CompiledQuery<'_>, stats: &LabelStats) -> usize {
    let per_sweep = q.label_mass(stats);
    let revisit = if q.is_finite() { 1 } else { 4 };
    per_sweep * revisit + q.regex().size()
}

/// Measured cost: evaluation work counters on a concrete snapshot.
pub fn measured_cost(q: &Regex, graph: &CsrGraph, source: Oid) -> usize {
    eval_product_csr(&Nfa::thompson(q), graph, source)
        .stats
        .total_work()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::InstanceBuilder;

    #[test]
    fn recursion_dominates_cost() {
        let mut ab = Alphabet::new();
        let rec = parse_regex(&mut ab, "l*").unwrap();
        let non = parse_regex(&mut ab, "l + ()").unwrap();
        assert!(StaticCost::of(&rec).score() > StaticCost::of(&non).score());
    }

    #[test]
    fn smaller_expression_cheaper() {
        let mut ab = Alphabet::new();
        let big = parse_regex(&mut ab, "a.b.c.d.e.f + a.b.c.d.e.g").unwrap();
        let small = parse_regex(&mut ab, "a.b.c.d.e.(f+g)").unwrap();
        assert!(StaticCost::of(&small).score() <= StaticCost::of(&big).score());
    }

    #[test]
    fn measured_cost_reflects_work() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..20 {
            b.edge(&format!("n{i}"), "l", &format!("n{}", i + 1));
        }
        let (inst, names) = b.finish();
        let src = names["n0"];
        let graph = CsrGraph::from(&inst);
        let rec = parse_regex(&mut ab, "l*").unwrap();
        let non = parse_regex(&mut ab, "l + ()").unwrap();
        assert!(measured_cost(&rec, &graph, src) > measured_cost(&non, &graph, src));
    }

    #[test]
    fn estimated_cost_prefers_rare_labels() {
        // hot/cold skew: same query shape, but the cold-label variant must
        // rank cheaper once statistics are consulted — StaticCost cannot
        // tell them apart.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..40 {
            b.edge("hub", "hot", &format!("h{i}"));
        }
        b.edge("hub", "cold", "t");
        let (inst, _) = b.finish();
        let stats = CsrGraph::from(&inst).stats().clone();
        let hot = parse_regex(&mut ab, "hot.hot").unwrap();
        let cold = parse_regex(&mut ab, "cold.cold").unwrap();
        assert_eq!(StaticCost::of(&hot).score(), StaticCost::of(&cold).score());
        assert!(estimated_cost(&cold, &stats) < estimated_cost(&hot, &stats));
    }

    #[test]
    fn estimated_cost_penalizes_recursion_on_data() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("x", "l", "y");
        b.edge("y", "l", "x");
        let (inst, _) = b.finish();
        let stats = CsrGraph::from(&inst).stats().clone();
        let rec = parse_regex(&mut ab, "l*").unwrap();
        let non = parse_regex(&mut ab, "l + ()").unwrap();
        assert!(estimated_cost(&rec, &stats) > estimated_cost(&non, &stats));
    }
}
