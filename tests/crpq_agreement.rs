//! CRPQ executor agreement: the cost-based join order, semijoin
//! propagation, and per-atom direction choices are *optimizations*, never
//! semantics changes. Every static atom order — and the planner's own —
//! must return exactly the bindings of the naive nested-loop oracle
//! ([`rpq::optimizer::execute_naive`]: every atom evaluated independently
//! with both sides free, then hash-joined), on the immutable `CsrGraph`
//! snapshot and on a post-delta `DeltaGraph` epoch. Budget and
//! cancellation controls must yield sound *subsets* (a truncated atom
//! relation joins to a subset of the full join), with complete
//! terminations exact.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use rpq::automata::{Alphabet, Symbol};
use rpq::core::{EvalControl, EvalScratch};
use rpq::graph::{CsrGraph, DeltaGraph, GraphView, Instance, Oid};
use rpq::optimizer::{
    execute_join, execute_naive, plan_join, Crpq, HeadBindings, JoinPlan, PlannerConfig, Var,
};
use rpq_testkit::draw::{random_crpq, random_star_crpq};
use rpq_testkit::generators::random_graph;

/// All atom orders for `n ≤ 3` atoms (every permutation), a sample
/// otherwise: textual, reversed, and the even positions first, then the
/// odd ones forward and backward. On a chain the last two bind atoms that
/// share no variable first, so the relation holds most of the chain's
/// variables before a closing step projects it.
fn orders(n: usize) -> Vec<Vec<usize>> {
    match n {
        1 => vec![vec![0]],
        2 => vec![vec![0, 1], vec![1, 0]],
        3 => vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ],
        _ => {
            let evens = (0..n).step_by(2);
            let odds = (1..n).step_by(2);
            vec![
                (0..n).collect(),
                (0..n).rev().collect(),
                evens.clone().chain(odds.clone()).collect(),
                evens.chain(odds.rev()).collect(),
            ]
        }
    }
}

/// Assert `execute_join` under every order (and the planned one) matches
/// the oracle on `graph`. A plan with a statically empty atom must answer
/// without scanning an edge, every atom recorded as not run.
fn assert_agreement<G: GraphView + Sync>(
    crpq: &Crpq,
    graph: &G,
    heads: HeadBindings<'_>,
) -> Result<Vec<(Oid, Oid)>, TestCaseError> {
    let (oracle, _) = execute_naive(crpq, graph, heads);
    let plan = plan_join(crpq, graph.stats(), &PlannerConfig::default(), false, false);
    let empty = plan.atoms.iter().any(|a| a.record.statically_empty);
    let mut all = orders(crpq.atoms.len());
    all.push(plan.order.clone());
    for order in all {
        let mut scratch = EvalScratch::new();
        let res = execute_join(
            crpq,
            &JoinPlan {
                order: order.clone(),
                ..plan.clone()
            },
            graph,
            heads,
            &EvalControl::UNLIMITED,
            &mut scratch,
        );
        prop_assert_eq!(&res.pairs, &oracle, "order {:?}", order);
        prop_assert!(res.termination.is_complete());
        prop_assert_eq!(res.stats.atoms.len(), crpq.atoms.len());
        if empty {
            prop_assert_eq!(res.stats.edges_scanned, 0, "order {:?}", order);
            prop_assert!(res.stats.atoms.iter().all(|a| a.direction.is_none()));
        }
    }
    Ok(oracle)
}

fn setup(seed: u64) -> (Alphabet, Instance, Crpq) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (inst, _) = random_graph(&mut rng, 7, 16, &syms);
    let atoms = 1 + (seed as usize % 2); // 1 or 2 chain atoms
    let crpq = random_crpq(&mut rng, &ab, atoms, seed.is_multiple_of(3));
    (ab, inst, crpq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every atom order (all permutations up to 3 atoms, plus the
    /// cost-based plan) returns the oracle's bindings — on the CSR
    /// snapshot, on a mutated `DeltaGraph` epoch, and under random head
    /// restrictions.
    #[test]
    fn crpq_join_orders_agree_with_the_naive_oracle(seed in 0u64..5_000) {
        let (ab, inst, crpq) = setup(seed);
        let graph = CsrGraph::from(&inst);
        let free = assert_agreement(&crpq, &graph, HeadBindings::default())?;

        // A head restriction drawn from the free answers (plus a stray
        // node) must restrict, not invent.
        if let Some(&(s, _)) = free.first() {
            let sources = [s];
            let restricted =
                assert_agreement(&crpq, &graph, HeadBindings { sources: Some(&sources), targets: None })?;
            prop_assert!(restricted.iter().all(|&(x, _)| x == s));
            prop_assert!(restricted.iter().all(|p| free.contains(p)));
        }

        // Post-delta epoch: mutate the view; both executors track the
        // overlay identically.
        let mut dg = DeltaGraph::from_instance(&inst);
        let nodes: Vec<Oid> = graph.nodes().collect();
        let syms: Vec<Symbol> = ab.symbols().collect();
        dg.add_edge(nodes[seed as usize % nodes.len()], syms[0], nodes[0]);
        dg.add_edge(nodes[0], syms[seed as usize % syms.len()], nodes[nodes.len() - 1]);
        assert_agreement(&crpq, &dg, HeadBindings::default())?;
    }

    /// Early termination is *sound*: any budget yields a subset of the
    /// full binding set with `edges_scanned` within budget, a pre-set
    /// cancellation flag yields a subset, and a complete termination is
    /// exact.
    #[test]
    fn crpq_budgets_and_cancellation_are_sound(seed in 0u64..5_000) {
        let (_ab, inst, crpq) = setup(seed);
        let graph = CsrGraph::from(&inst);
        let (full, _) = execute_naive(&crpq, &graph, HeadBindings::default());
        let plan = plan_join(&crpq, graph.stats(), &PlannerConfig::default(), false, false);

        for budget in [0usize, 1, 2, 5, 17, 1_000_000] {
            let mut scratch = EvalScratch::new();
            let control = EvalControl { budget: Some(budget), cancel: None };
            let res = execute_join(
                &crpq, &plan, &graph, HeadBindings::default(),
                &control, &mut scratch,
            );
            prop_assert!(res.stats.edges_scanned <= budget, "budget {}", budget);
            for p in &res.pairs {
                prop_assert!(full.contains(p), "unsound {:?} at budget {}", p, budget);
            }
            if res.termination.is_complete() {
                prop_assert_eq!(&res.pairs, &full, "complete at budget {}", budget);
            }
        }

        let cancelled = Arc::new(AtomicBool::new(true));
        let mut scratch = EvalScratch::new();
        let control = EvalControl { budget: None, cancel: Some(&cancelled) };
        let res = execute_join(
            &crpq, &plan, &graph, HeadBindings::default(),
            &control, &mut scratch,
        );
        prop_assert!(!res.termination.is_complete());
        for p in &res.pairs {
            prop_assert!(full.contains(p), "unsound {:?} after cancel", p);
        }
    }
}

/// The widest relation a run of `order` projects: after each step the
/// executor's relation holds the variables bound so far that are still
/// live (a head variable, or one of a later atom), and a step projects
/// when one of its columns is not. 0 when no step projects.
fn widest_projection(crpq: &Crpq, order: &[usize]) -> usize {
    let mut cols: Vec<Var> = Vec::new();
    let mut widest = 0;
    for (pos, &ai) in order.iter().enumerate() {
        let atom = &crpq.atoms[ai];
        for v in [atom.src, atom.dst] {
            if !cols.contains(&v) {
                cols.push(v);
            }
        }
        let later = &order[pos + 1..];
        let live = |v: &Var| {
            [crpq.head.0, crpq.head.1].contains(v)
                || later
                    .iter()
                    .any(|&l| crpq.atoms[l].src == *v || crpq.atoms[l].dst == *v)
        };
        if !cols.iter().all(live) {
            widest = widest.max(cols.len());
        }
        cols.retain(live);
    }
    widest
}

/// 4–5-atom chains (a third with one more atom closing a cycle back to
/// `x0`) and stars of 4–5 leaves, out of or into the centre: every order
/// of [`orders`] and the planned one bind the oracle's pairs. On a chain
/// the interleaved orders build relations of five or six columns and
/// project them, which the 1–3-atom queries above never do; a floor of
/// cases does so with a non-empty answer, so that every intermediate
/// relation had rows.
#[test]
fn wide_crpqs_agree_with_the_naive_oracle() {
    let mut wide = 0;
    for seed in 0..96u64 {
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, _) = random_graph(&mut rng, 7, 16, &syms);
        let atoms = 4 + (seed as usize / 2) % 2;
        let crpq = if seed % 2 == 0 {
            random_crpq(&mut rng, &ab, atoms, seed % 3 == 0)
        } else {
            random_star_crpq(&mut rng, &ab, atoms)
        };
        let graph = CsrGraph::from(&inst);
        let free = assert_agreement(&crpq, &graph, HeadBindings::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let widest = orders(crpq.atoms.len())
            .iter()
            .map(|order| widest_projection(&crpq, order))
            .max();
        wide += usize::from(!free.is_empty() && widest >= Some(5));
    }
    println!("{wide} of 96 cases project a relation of five or more columns");
    assert!(wide >= 24, "only {wide} cases project a wide relation");
}

/// Atoms over a label with no edges: the graph is drawn over `a`, `b` and
/// `c`, the atoms over those and `ghost`, which the join's atom plans
/// prune (and, where every word of an atom spells it, decide empty). The
/// oracle runs every atom's text on its Thompson automaton, so it shares
/// neither the pruning nor the emptiness decision, and every order of
/// [`orders`] must bind its pairs, free and source-bound. Floors: cases
/// whose join a statically empty atom annihilates, and cases whose plans
/// pruned `ghost` from an atom that still binds, with a non-empty answer.
#[test]
fn atoms_over_a_label_with_no_edges_agree_with_the_naive_oracle() {
    let (mut annihilated, mut pruned) = (0, 0);
    for seed in 0..300u64 {
        let ab = Alphabet::from_names(["a", "b", "c", "ghost"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, _) = random_graph(&mut rng, 7, 16, &syms[..3]);
        let crpq = random_crpq(&mut rng, &ab, 1 + seed as usize % 3, seed % 4 == 0);
        let graph = CsrGraph::from(&inst);
        let ctx = |e: TestCaseError| panic!("seed {seed}: {e}");
        let free = assert_agreement(&crpq, &graph, HeadBindings::default()).unwrap_or_else(ctx);
        let sources: Vec<Oid> = graph.nodes().step_by(2).collect();
        let bound = HeadBindings {
            sources: Some(&sources),
            targets: None,
        };
        assert_agreement(&crpq, &graph, bound).unwrap_or_else(ctx);

        let plan = plan_join(
            &crpq,
            graph.stats(),
            &PlannerConfig::default(),
            false,
            false,
        );
        if plan.atoms.iter().any(|a| a.record.statically_empty) {
            annihilated += 1;
        } else if !free.is_empty()
            && plan
                .atoms
                .iter()
                .any(|a| !a.record.pruned_symbols.is_empty())
        {
            pruned += 1;
        }
    }
    println!("{annihilated} of 300 cases annihilate, {pruned} prune and bind");
    assert!(annihilated >= 60, "only {annihilated} cases annihilate");
    assert!(pruned >= 90, "only {pruned} cases prune a label and bind");
}
