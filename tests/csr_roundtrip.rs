//! Property tests for the label-indexed snapshot: `CsrGraph::from` must be
//! a faithful, transposable round-trip of the `Instance` it freezes, and
//! the label index must make the product engine's per-step work
//! proportional to matching edges (the acceptance criterion of the
//! storage-layer refactor).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{parse_regex, Alphabet, Nfa, Symbol};
use rpq::core::{eval_product_csr, eval_product_scan};
use rpq::graph::{CsrGraph, Instance, InstanceBuilder, Oid};
use rpq_testkit::generators::random_graph;

fn random_instance(seed: u64, nodes: usize, edges: usize) -> (Alphabet, Vec<Symbol>, Instance) {
    let ab = Alphabet::from_names(["a", "b", "c", "d"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (inst, _) = random_graph(&mut rng, nodes, edges, &syms);
    (ab, syms, inst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_round_trips_instance(seed in 0u64..10_000) {
        let (_, syms, inst) = random_instance(seed, 12, 40);
        let csr = CsrGraph::from(&inst);

        // same node/edge counts
        prop_assert_eq!(csr.num_nodes(), inst.num_nodes());
        prop_assert_eq!(csr.num_edges(), inst.num_edges());

        for v in inst.nodes() {
            prop_assert_eq!(csr.outdegree(v), inst.outdegree(v));
            // same out(v, sym) sets, per label
            for &sym in &syms {
                let mut scanned: Vec<Oid> = inst
                    .out_edges(v)
                    .iter()
                    .filter(|&&(l, _)| l == sym)
                    .map(|&(_, t)| t)
                    .collect();
                scanned.sort_unstable();
                prop_assert_eq!(csr.out(v, sym), &scanned[..]);
            }
            // label groups partition the row
            let grouped: usize = csr.out_groups(v).map(|(_, ts)| ts.len()).sum();
            prop_assert_eq!(grouped, csr.outdegree(v));
        }

        // per-label statistics add up to the edge count
        let stat_total: usize = csr.stats().iter().map(|(_, c)| c).sum();
        prop_assert_eq!(stat_total, csr.num_edges());
    }

    #[test]
    fn reverse_adjacency_transposes_forward(seed in 0u64..10_000) {
        let (_, syms, inst) = random_instance(seed, 12, 40);
        let csr = CsrGraph::from(&inst);
        let mut forward_total = 0usize;
        for u in csr.nodes() {
            for &sym in &syms {
                for &v in csr.out(u, sym) {
                    forward_total += 1;
                    prop_assert!(
                        csr.rev(v, sym).contains(&u),
                        "edge {u:?}-{sym:?}->{v:?} missing from reverse index"
                    );
                }
            }
        }
        let backward_total: usize = csr.nodes().map(|v| csr.indegree(v)).sum();
        prop_assert_eq!(forward_total, csr.num_edges());
        prop_assert_eq!(backward_total, csr.num_edges());
        // and transposing twice is the identity
        for v in csr.nodes() {
            for &sym in &syms {
                for &u in csr.rev(v, sym) {
                    prop_assert!(csr.out(u, sym).contains(&v));
                }
            }
        }
    }

    #[test]
    fn word_targets_agree_between_forms(seed in 0u64..10_000) {
        let (_, syms, inst) = random_instance(seed, 8, 24);
        let csr = CsrGraph::from(&inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        use rand::Rng as _;
        let word: Vec<Symbol> = (0..rng.random_range(0..5))
            .map(|_| syms[rng.random_range(0..syms.len())])
            .collect();
        prop_assert_eq!(csr.word_targets(Oid(0), &word), inst.word_targets(Oid(0), &word));
    }
}

/// The acceptance criterion of the storage refactor: on a label-skewed
/// graph (one hot label on high-outdegree nodes), the label-indexed product
/// BFS scans a small fraction of the edges the seed's scan-and-filter loop
/// touched, while answering identically.
#[test]
fn label_index_cuts_edges_scanned_on_skewed_graph() {
    let mut ab = Alphabet::new();
    let mut b = InstanceBuilder::new(&mut ab);
    // a spine of cold edges; every spine node also fans out 64 hot edges
    let depth = 20;
    for i in 0..depth {
        b.edge(&format!("n{i}"), "cold", &format!("n{}", i + 1));
        for j in 0..64 {
            b.edge(&format!("n{i}"), "hot", &format!("h{i}_{j}"));
        }
    }
    let (inst, names) = b.finish();
    let src = names["n0"];
    let q = parse_regex(&mut ab, "cold*").unwrap();
    let nfa = Nfa::thompson(&q);

    let scan = eval_product_scan(&nfa, &inst, src);
    let indexed = eval_product_csr(&nfa, &CsrGraph::from(&inst), src);

    assert_eq!(scan.answers, indexed.answers);
    assert_eq!(indexed.answers.len(), depth + 1);
    // the indexed walk touches only the cold edges it follows (a small
    // constant per spine node, from the handful of NFA states)…
    assert!(
        indexed.stats.edges_scanned <= 4 * depth,
        "indexed scanned {}",
        indexed.stats.edges_scanned
    );
    // …while the filter loop pays the hot fanout at every spine node
    assert!(
        indexed.stats.edges_scanned * 10 < scan.stats.edges_scanned,
        "indexed {} vs scan {}",
        indexed.stats.edges_scanned,
        scan.stats.edges_scanned
    );
}
