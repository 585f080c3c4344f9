//! Seeded workload generators: the graphs the paper's scenarios live on.
//!
//! Includes the exact Figure 2 graph (used by the distributed-evaluation
//! reproduction of Figure 3), uniform and deterministic random graphs, and
//! web-like graphs for the scaling experiments. A site whose cache labels
//! hold their views is a graph from here with [`crate::satisfy::chase`]
//! applied.

use rand::prelude::*;
use rand::rngs::StdRng;
use rpq_automata::{Alphabet, Symbol};
use rpq_graph::{Instance, InstanceBuilder, Oid};

/// The graph of Figure 2: `o1 -a→ o2`, `o2 -b→ o3`, `o3 -b→ o2`, plus the
/// client site `d` (no outgoing edges). Returns `(instance, d, o1)`.
pub fn fig2_graph(alphabet: &mut Alphabet) -> (Instance, Oid, Oid) {
    let mut b = InstanceBuilder::new(alphabet);
    let d = b.node("d");
    b.edge("o1", "a", "o2");
    b.edge("o2", "b", "o3");
    b.edge("o3", "b", "o2");
    let (inst, names) = b.finish();
    (inst, d, names["o1"])
}

/// A uniformly random graph: `n` nodes, `m` edges with labels drawn from
/// `labels`. Self-loops and parallel edges with distinct labels allowed;
/// exact duplicates are retried. Degenerate inputs (no nodes or no labels)
/// degrade to an edge-less instance instead of aborting.
pub fn random_graph(rng: &mut StdRng, n: usize, m: usize, labels: &[Symbol]) -> (Instance, Oid) {
    debug_assert!(n > 0 && !labels.is_empty());
    let mut inst = Instance::new();
    for _ in 0..n {
        inst.add_node();
    }
    if n == 0 || labels.is_empty() {
        return (inst, Oid(0));
    }
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < m && attempts < m * 20 {
        attempts += 1;
        let from = Oid(rng.random_range(0..n) as u32);
        let to = Oid(rng.random_range(0..n) as u32);
        let label = labels[rng.random_range(0..labels.len())];
        if inst.add_edge(from, label, to) {
            added += 1;
        }
    }
    (inst, Oid(0))
}

/// A random **deterministic** graph: at most one outgoing edge per
/// (node, label) — the instance class of the paper's Section 5 special
/// case ("instances whose nodes have at most one outgoing edge with a
/// given label"). Each slot is filled with probability `fill_percent`.
pub fn deterministic_graph(
    rng: &mut StdRng,
    n: usize,
    labels: &[Symbol],
    fill_percent: u32,
) -> (Instance, Oid) {
    debug_assert!(n > 0 && !labels.is_empty());
    let mut inst = Instance::new();
    for _ in 0..n {
        inst.add_node();
    }
    for from in 0..n {
        for &label in labels {
            if rng.random_range(0..100) < fill_percent {
                let to = Oid(rng.random_range(0..n) as u32);
                inst.add_edge(Oid(from as u32), label, to);
            }
        }
    }
    (inst, Oid(0))
}

/// A web-like graph built by preferential attachment: node `i` links to
/// `out_links` earlier nodes, biased toward high-indegree targets (pages may
/// be referenced arbitrarily often but reference few pages — Section 2.1).
pub fn web_graph(
    rng: &mut StdRng,
    n: usize,
    out_links: usize,
    labels: &[Symbol],
) -> (Instance, Oid) {
    debug_assert!(n > 0 && !labels.is_empty());
    let mut inst = Instance::new();
    if n == 0 || labels.is_empty() {
        for _ in 0..n {
            inst.add_node();
        }
        return (inst, Oid(0));
    }
    let mut targets: Vec<Oid> = Vec::new(); // multiset for preferential choice
    for i in 0..n {
        let o = inst.add_node();
        if i == 0 {
            targets.push(o);
            continue;
        }
        for _ in 0..out_links.min(i) {
            let to = if rng.random_range(0..100) < 70 {
                targets[rng.random_range(0..targets.len())]
            } else {
                Oid(rng.random_range(0..i) as u32)
            };
            let label = labels[rng.random_range(0..labels.len())];
            if inst.add_edge(o, label, to) {
                targets.push(to);
            }
        }
        targets.push(o);
    }
    // Make everything reachable from node 0 in the forward direction by
    // adding a spanning path of "next" edges (label 0).
    for i in 0..n - 1 {
        inst.add_edge(Oid(i as u32), labels[0], Oid(i as u32 + 1));
    }
    (inst, Oid(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn fig2_shape() {
        let mut ab = Alphabet::new();
        let (inst, d, o1) = fig2_graph(&mut ab);
        assert_eq!(inst.num_nodes(), 4);
        assert_eq!(inst.num_edges(), 3);
        assert_eq!(inst.outdegree(d), 0);
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        // ab*(o1) = {o2, o3}
        let o2 = inst.node_by_name("o2").unwrap();
        let o3 = inst.node_by_name("o3").unwrap();
        assert_eq!(inst.word_targets(o1, &[a]), vec![o2]);
        assert_eq!(inst.word_targets(o1, &[a, b]), vec![o3]);
        assert_eq!(inst.word_targets(o1, &[a, b, b]), vec![o2]);
    }

    #[test]
    fn random_graph_counts() {
        let mut ab = Alphabet::new();
        let labels: Vec<Symbol> = (0..3).map(|i| ab.intern(&format!("l{i}"))).collect();
        let (inst, src) = random_graph(&mut rng(), 50, 200, &labels);
        assert_eq!(inst.num_nodes(), 50);
        assert!(inst.num_edges() > 150, "got {}", inst.num_edges());
        assert_eq!(src, Oid(0));
    }

    #[test]
    fn web_graph_is_connected_from_source() {
        let mut ab = Alphabet::new();
        let labels: Vec<Symbol> = (0..2).map(|i| ab.intern(&format!("l{i}"))).collect();
        let (inst, src) = web_graph(&mut rng(), 40, 2, &labels);
        assert_eq!(inst.reachable_from(src).len(), 40);
    }

    #[test]
    fn web_graph_deterministic_per_seed() {
        let mut ab = Alphabet::new();
        let labels: Vec<Symbol> = (0..2).map(|i| ab.intern(&format!("l{i}"))).collect();
        let (i1, _) = web_graph(&mut StdRng::seed_from_u64(3), 30, 2, &labels);
        let (i2, _) = web_graph(&mut StdRng::seed_from_u64(3), 30, 2, &labels);
        let e1: Vec<_> = i1.edges().collect();
        let e2: Vec<_> = i2.edges().collect();
        assert_eq!(e1, e2);
    }

    /// A web graph with the view `cache0 = l0.(l0 + l1)` added at its
    /// source (the site the Section 3.2 experiments run on).
    #[test]
    fn cached_site_constraint_holds() {
        use crate::satisfy::{chase, Scope};
        use rpq_automata::Regex;
        use rpq_constraints::{ConstraintSet, PathConstraint};
        let mut ab = Alphabet::new();
        let labels: Vec<Symbol> = (0..2).map(|i| ab.intern(&format!("l{i}"))).collect();
        let cache = ab.intern("cache0");
        let body = Regex::sym(labels[0]).then(Regex::union(vec![
            Regex::sym(labels[0]),
            Regex::sym(labels[1]),
        ]));
        let set =
            ConstraintSet::from_constraints([PathConstraint::equality(Regex::sym(cache), body)]);
        let (mut inst, src) = web_graph(&mut rng(), 30, 2, &labels);
        chase(&mut inst, &set, &Scope::Source(src), 1_000).unwrap();
        let mut via_cache = inst.word_targets(src, &[cache]);
        let mut direct = inst.word_targets(src, &[labels[0], labels[0]]);
        direct.extend(inst.word_targets(src, &[labels[0], labels[1]]));
        via_cache.sort();
        direct.sort();
        direct.dedup();
        assert!(!direct.is_empty());
        assert_eq!(via_cache, direct);
    }

    #[test]
    fn deterministic_graph_has_unique_labeled_out_edges() {
        use rand::SeedableRng;
        let mut ab = Alphabet::new();
        let labels = vec![ab.intern("a"), ab.intern("b")];
        let mut rng = StdRng::seed_from_u64(42);
        let (inst, src) = deterministic_graph(&mut rng, 30, &labels, 70);
        assert_eq!(src, Oid(0));
        for o in inst.nodes() {
            let mut seen: Vec<Symbol> = Vec::new();
            for &(l, _) in inst.out_edges(o) {
                assert!(!seen.contains(&l), "duplicate label at {o:?}");
                seen.push(l);
            }
        }
    }
}
