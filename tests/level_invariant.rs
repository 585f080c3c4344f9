//! The level invariant, held against the definition.
//!
//! The product BFS keeps one contract beyond its answers: level `k` holds
//! exactly the pairs first reached by spelling `k` letters. A depth cap
//! reads it (the planner caps a finite language at its longest word), and
//! so does anything that rebuilds a shortest path from the log of reached
//! entries. It is observable from outside through the cap: a search capped
//! at depth `d` must answer exactly the objects some word of `L(p)` with at
//! most `d` letters reaches — `eval_oracle(nfa, inst, o, Some(d))`, which
//! enumerates those words. A level that expanded too far, or a sweep that
//! expanded what it found in the same level, answers more.
//!
//! Checked for every cap `0..=5`, on random small graphs and queries, on a
//! `CsrGraph` and on a `DeltaGraph` after a delta: forward from every node,
//! backward (the reversed automaton over the reverse adjacency) against the
//! oracle's inverse, and through the `Sources` / `Targets` / `Matrix` arms
//! of `run_request`, the three that read the cap.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq::automata::random::{random_regex, RegexGenConfig};
use rpq::automata::{Alphabet, Nfa, Symbol};
use rpq::core::{
    eval_oracle, run_request, search_nodes, Answers, BatchResult, Direction, EvalScratch,
    MatrixResult, Query, SearchOpts, SourceSpec, Termination,
};
use rpq::graph::generators::random_graph;
use rpq::graph::{CsrGraph, DeltaGraph, GraphView, Instance, Oid};

/// The caps checked: every depth a small query's answers can still grow at.
const CAPS: std::ops::RangeInclusive<usize> = 0..=5;

/// A random small graph, its post-delta overlay, and a random query.
fn case(seed: u64) -> (Instance, DeltaGraph, Nfa) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = rng.random_range(3..8usize);
    let (inst, _) = random_graph(&mut rng, nodes, nodes * 2, &syms);
    let cfg = RegexGenConfig {
        max_depth: rng.random_range(1..5usize),
        ..RegexGenConfig::new(syms.clone())
    };
    let nfa = Query::new(random_regex(&mut rng, &cfg), &ab).nfa().clone();

    // The delta: a new node wired in, three more adds, two deletes.
    let mut delta = DeltaGraph::from_instance(&inst);
    let fresh = delta.add_node();
    let any = |rng: &mut StdRng| Oid(rng.random_range(0..nodes) as u32);
    let sym = |rng: &mut StdRng| syms[rng.random_range(0..syms.len())];
    let (into, out) = (any(&mut rng), any(&mut rng));
    delta.add_edge(into, sym(&mut rng), fresh);
    delta.add_edge(fresh, sym(&mut rng), out);
    for _ in 0..3 {
        let (f, l, t) = (any(&mut rng), sym(&mut rng), any(&mut rng));
        delta.add_edge(f, l, t);
    }
    let doomed: Vec<(Oid, Symbol, Oid)> = delta.edges().step_by(3).take(2).collect();
    for (f, l, t) in doomed {
        delta.delete_edge(f, l, t);
    }
    (inst, delta, nfa)
}

/// The overlay as an `Instance`, for the oracle.
fn materialize(delta: &DeltaGraph) -> Instance {
    let mut inst = Instance::new();
    for _ in 0..delta.num_nodes() {
        inst.add_node();
    }
    for (f, l, t) in delta.edges() {
        inst.add_edge(f, l, t);
    }
    inst
}

fn capped(cap: usize, reverse_adj: bool) -> SearchOpts<'static> {
    SearchOpts {
        reverse_adj,
        depth_cap: Some(cap),
        ..SearchOpts::default()
    }
}

/// Every cap over one graph: the product search answers what the oracle
/// enumerates, forward, backward and through the capped request arms.
/// Returns how many `(node, cap)` searches a larger cap answered more on —
/// the searches where the cap was what stopped them.
fn check<G: GraphView>(nfa: &Nfa, graph: &G, inst: &Instance, what: &str) -> usize {
    let reversed = nfa.reverse();
    let nodes: Vec<Oid> = (0..graph.num_nodes() as u32).map(Oid).collect();
    // `by_cap[d][o]`: what words of at most `d` letters reach from `o`.
    let by_cap: Vec<Vec<Vec<Oid>>> = CAPS
        .map(|d| {
            let from = |&o: &Oid| eval_oracle(nfa, inst, o, Some(d));
            nodes.iter().map(from).collect()
        })
        .collect();
    let mut scratch = EvalScratch::new();
    let mut cut = 0;
    for d in CAPS {
        let reach = &by_cap[d];
        let into = |t: Oid| -> Vec<Oid> {
            let reaches = |o: &&Oid| reach[o.index()].binary_search(&t).is_ok();
            nodes.iter().filter(reaches).copied().collect()
        };
        for &o in &nodes {
            let ctx = format!("{what}: cap {d}, node {o:?}");
            let fwd = search_nodes(nfa, graph, o, &capped(d, false), &mut scratch).0;
            assert_eq!(fwd.answers, reach[o.index()], "forward {ctx}");
            let bwd = search_nodes(&reversed, graph, o, &capped(d, true), &mut scratch).0;
            assert_eq!(bwd.answers, into(o), "backward {ctx}");
            cut += usize::from(d < *CAPS.end() && reach[o.index()] != by_cap[d + 1][o.index()]);
        }

        let per = |f: &dyn Fn(Oid) -> Vec<Oid>| {
            Answers::Batch(BatchResult::from_per_source(
                nodes.iter().map(|&o| f(o)).collect(),
            ))
        };
        let mut matrix = MatrixResult::new(nodes.clone(), nodes.clone());
        for (i, s) in nodes.iter().enumerate() {
            for (j, t) in nodes.iter().enumerate() {
                if reach[s.index()].binary_search(t).is_ok() {
                    matrix.set(i, j);
                }
            }
        }
        let arms = [
            (
                SourceSpec::Sources(nodes.clone()),
                per(&|o| reach[o.index()].clone()),
            ),
            (SourceSpec::Targets(nodes.clone()), per(&into)),
            (
                SourceSpec::Matrix {
                    sources: nodes.clone(),
                    targets: nodes.clone(),
                },
                Answers::Matrix(matrix),
            ),
        ];
        for (spec, want) in arms {
            let opts = capped(d, false);
            let dir = Direction::Forward;
            let got = run_request(nfa, &reversed, graph, &spec, dir, &opts, &mut scratch);
            assert_eq!(got.termination, Termination::Complete);
            assert_eq!(got.answers, want, "{what}: cap {d}, {spec:?}");
        }
    }
    cut
}

/// One case on both graphs; returns the searches its caps cut short.
fn check_case(seed: u64) -> usize {
    let (inst, delta, nfa) = case(seed);
    let csr = check(&nfa, &CsrGraph::from(&inst), &inst, "csr");
    csr + check(&nfa, &delta, &materialize(&delta), "post-delta")
}

proptest! {
    /// A capped search answers exactly what words of at most the cap's
    /// length reach, in both directions and through every capped arm.
    #[test]
    fn a_capped_search_answers_exactly_the_words_of_at_most_that_length(seed in 0u64..1_000_000) {
        check_case(seed);
    }
}

/// The property cannot pass vacuously: on the first cases, caps do stop
/// searches that a larger cap lets answer more.
#[test]
fn the_caps_cut_searches_short() {
    let cut: usize = (0..16).map(check_case).sum();
    assert!(cut >= 16, "only {cut} capped searches were cut short");
}
