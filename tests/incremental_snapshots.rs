//! Property tests for the incremental-snapshot layer: random interleavings
//! of add/delete batches applied to a `DeltaGraph` must be observationally
//! equivalent to a from-scratch `CsrGraph` rebuild of the mirrored
//! `Instance` — structurally (rows, transpose, statistics) and through the
//! evaluation paths (product BFS, quotient-DFA, and `PlannedEngine`-wrapped
//! evaluation with the epoch-aware plan memo) — both before and after
//! `compact()` folds the overlay into a fresh base.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use rpq::automata::random::{random_regex, RegexGenConfig};
use rpq::automata::{Alphabet, Symbol};
use rpq::core::{eval_product_csr, eval_quotient_dfa_csr, ProductEngine, Query};
use rpq::graph::generators::random_graph;
use rpq::graph::{CsrGraph, DeltaGraph, EdgeDelta, Instance, Oid};
use rpq::optimizer::PlannedEngine;

/// Drive `batches` random mutation batches through a `DeltaGraph` while
/// mirroring them into the `Instance`, checking structural equivalence
/// after every batch. Returns the final pair.
fn mutate_in_lockstep(
    seed: u64,
    nodes: usize,
    edges: usize,
    batches: usize,
    syms: &[Symbol],
) -> (Instance, DeltaGraph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut mirror, _) = random_graph(&mut rng, nodes, edges, syms);
    let mut dg = DeltaGraph::from_instance(&mirror);

    for _ in 0..batches {
        let mut delta = EdgeDelta::new();
        // deletions of (probably) existing edges: sample from the mirror
        let existing: Vec<(Oid, Symbol, Oid)> = mirror.edges().collect();
        for _ in 0..rng.random_range(0..4) {
            if let Some(&(f, l, t)) = existing.get(rng.random_range(0..existing.len().max(1))) {
                delta.del(f, l, t);
            }
        }
        // additions of random triples (may duplicate live edges — no-ops)
        for _ in 0..rng.random_range(0..6) {
            let f = Oid(rng.random_range(0..nodes as u32));
            let t = Oid(rng.random_range(0..nodes as u32));
            let l = syms[rng.random_range(0..syms.len())];
            delta.add(f, l, t);
        }
        let epoch_before = dg.epoch();
        let applied = dg.apply_delta(&delta);
        // mirror the same batch in the same order (dels first, then adds)
        let mut mirrored = 0;
        for &(f, l, t) in &delta.dels {
            mirrored += usize::from(mirror.remove_edge(f, l, t));
        }
        for &(f, l, t) in &delta.adds {
            mirrored += usize::from(mirror.add_edge(f, l, t));
        }
        assert_eq!(applied, mirrored, "delta and mirror must agree on effect");
        assert_eq!(dg.epoch().base, epoch_before.base);
        assert_eq!(dg.epoch().version, epoch_before.version + 1);
        assert_structurally_equal(&dg, &mirror, syms);
    }
    (mirror, dg)
}

/// Rows, transpose, counts, and statistics of the overlay equal those of a
/// from-scratch rebuild.
fn assert_structurally_equal(dg: &DeltaGraph, mirror: &Instance, syms: &[Symbol]) {
    let rebuilt = CsrGraph::from(mirror);
    assert_eq!(dg.num_nodes(), rebuilt.num_nodes());
    assert_eq!(dg.num_edges(), rebuilt.num_edges());
    assert!(
        dg.stats().agrees_with(rebuilt.stats()),
        "incremental stats diverged from rebuild"
    );
    for v in rebuilt.nodes() {
        for &sym in syms {
            let overlay: Vec<Oid> = dg.out(v, sym).collect();
            assert_eq!(overlay, rebuilt.out(v, sym), "out({v:?}, {sym:?})");
            let overlay_rev: Vec<Oid> = dg.rev(v, sym).collect();
            assert_eq!(overlay_rev, rebuilt.rev(v, sym), "rev({v:?}, {sym:?})");
        }
        let grouped: usize = dg.out_groups(v).map(|(_, ts)| ts.len()).sum();
        assert_eq!(grouped, rebuilt.outdegree(v), "groups of {v:?}");
    }
}

/// Evaluation agreement on one (query, source) across the three engine
/// families the refactor touches.
fn assert_eval_equal(dg: &DeltaGraph, rebuilt: &CsrGraph, ab: &Alphabet, query: &Query, s: Oid) {
    let nfa = query.nfa();
    let expected = eval_product_csr(nfa, rebuilt, s).answers;
    assert_eq!(
        eval_product_csr(nfa, dg, s).answers,
        expected,
        "product over delta"
    );
    assert_eq!(
        eval_quotient_dfa_csr(nfa, dg, s).answers,
        expected,
        "quotient-DFA over delta"
    );
    let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
    assert_eq!(
        planned.eval_view(query, dg, s).answers,
        expected,
        "planned eval_view over delta"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline equivalence: random mutation interleavings, evaluated
    /// through the overlay, agree with the rebuild — before and after
    /// compaction — for a random regex from every node.
    #[test]
    fn delta_evaluation_agrees_with_rebuild(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let (mirror, mut dg) = mutate_in_lockstep(seed, 8, 20, 3, &syms);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xde17a);
        let cfg = RegexGenConfig::new(syms.clone());
        let regex = random_regex(&mut rng, &cfg);
        let query = Query::new(regex, &ab);
        let rebuilt = CsrGraph::from(&mirror);

        for s in rebuilt.nodes() {
            assert_eval_equal(&dg, &rebuilt, &ab, &query, s);
        }

        // compaction folds the overlay: same answers, fresh lineage
        let lineage = dg.epoch().base;
        dg.compact();
        prop_assert!(dg.epoch().base != lineage);
        assert_structurally_equal(&dg, &mirror, &syms);
        for s in rebuilt.nodes() {
            assert_eval_equal(&dg, &rebuilt, &ab, &query, s);
        }
    }

    /// Backward evaluation over the overlay's reverse logs agrees with the
    /// transpose semantics of the rebuild.
    #[test]
    fn delta_backward_agrees_with_rebuild(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let (mirror, dg) = mutate_in_lockstep(seed, 7, 16, 2, &syms);
        let rebuilt = CsrGraph::from(&mirror);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbac);
        let cfg = RegexGenConfig::new(syms.clone());
        let query = Query::new(random_regex(&mut rng, &cfg), &ab);
        for t in rebuilt.nodes() {
            let over = rpq::core::eval_to(&query, &dg, t).answers;
            let full = rpq::core::eval_to(&query, &rebuilt, t).answers;
            prop_assert_eq!(over, full, "backward from {:?}", t);
        }
    }
}

/// The plan-memo acceptance test of the incremental-snapshots issue: plans
/// survive small-delta epochs (cache *hits*, no recompilation) and die at
/// compaction (fresh lineage).
#[test]
fn plan_memo_hits_across_delta_epochs_and_invalidates_on_compaction() {
    let mut ab = Alphabet::new();
    let mut b = rpq::graph::InstanceBuilder::new(&mut ab);
    for i in 0..64 {
        b.edge("s", "hot", &format!("m{i}"));
        b.edge(&format!("m{i}"), "cold", "t");
    }
    let (inst, names) = b.finish();
    let mut dg = DeltaGraph::from_instance(&inst);
    let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
    let query = {
        let mut ab2 = ab.clone();
        Query::parse(&mut ab2, "hot.cold").unwrap()
    };
    let hot = ab.get("hot").unwrap();

    // first evaluation compiles the plan
    let first = planned.eval_view(&query, &dg, names["s"]);
    assert_eq!(first.stats.plan_cache_misses, 1);

    // three small delta epochs: every one reuses the plan
    for i in 0..3 {
        let mut delta = EdgeDelta::new();
        delta.add(names[format!("m{i}").as_str()], hot, names["t"]);
        assert_eq!(dg.apply_delta(&delta), 1);
        let res = planned.eval_view(&query, &dg, names["s"]);
        assert_eq!(
            (res.stats.plan_cache_hits, res.stats.plan_cache_misses),
            (1, 0),
            "epoch {i} must reuse the memoized plan"
        );
    }
    assert_eq!(planned.plan_cache_hits(), 3);
    assert_eq!(planned.plan_cache_misses(), 1);

    // compaction starts a fresh lineage: the next evaluation recompiles
    dg.compact();
    let after = planned.eval_view(&query, &dg, names["s"]);
    assert_eq!(after.stats.plan_cache_misses, 1);
    assert_eq!(planned.plan_cache_misses(), 2);
    assert_eq!(after.answers, first.answers);
}
