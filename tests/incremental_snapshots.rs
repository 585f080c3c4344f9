//! Property tests for the incremental-snapshot layer: random interleavings
//! of add/delete batches applied to a `DeltaGraph` must be observationally
//! equivalent to a from-scratch `CsrGraph` rebuild of the mirrored
//! `Instance` — structurally (rows, transpose, statistics) and through the
//! evaluation paths (product BFS, quotient-DFA, and `PlannedEngine`-wrapped
//! evaluation with the epoch-aware plan memo) — both before and after
//! `compact()` folds the overlay into a new base. The `Instance` rebuild
//! is also the oracle the fold itself is compared with, row for row in
//! both orientations (`the_fold_equals_the_rebuild`): this file is the
//! only place that round trip still exists.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use rpq::automata::{Alphabet, Symbol};
use rpq::core::{
    eval_product_csr, search_nodes, EvalRequest, EvalScratch, ProductEngine, Query, SearchOpts,
};
use rpq::graph::{CsrGraph, DeltaGraph, EdgeDelta, Instance, Oid, ViewEdges};
use rpq::optimizer::PlannedEngine;
use rpq::paper::eval_quotient_dfa_csr;
use rpq_testkit::generators::random_graph;
use rpq_testkit::random::{random_regex, RegexGenConfig};

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
        planned.run_view(query, dg, &EvalRequest::source(s)).nodes(),
        Some(&expected[..]),
        "planned request over delta"
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

        // compaction folds the overlay: same answers, same lineage, one
        // step further (none when the three batches left nothing to fold)
        let (before, folds) = (dg.epoch(), dg.log_len() > 0);
        dg.compact();
        prop_assert_eq!(dg.epoch().base, before.base);
        prop_assert_eq!(dg.epoch().version, before.version + u64::from(folds));
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
        let reversed = query.reversed();
        let backward = SearchOpts { reverse_adj: true, ..SearchOpts::default() };
        for t in rebuilt.nodes() {
            let over = search_nodes(reversed, &dg, t, &backward, &mut EvalScratch::new()).0;
            let full = search_nodes(reversed, &rebuilt, t, &backward, &mut EvalScratch::new()).0;
            prop_assert_eq!(over.answers, full.answers, "backward from {:?}", t);
        }
    }
}

/// A `DeltaGraph` and the `Instance` it must equal, mutated in lockstep:
/// every mutation goes to both and must report the same effect.
struct Lockstep {
    dg: DeltaGraph,
    mirror: Instance,
}

impl Lockstep {
    fn live(&self, f: Oid, l: Symbol, t: Oid) -> bool {
        let live = self.mirror.out_edges(f).binary_search(&(l, t)).is_ok();
        assert_eq!(self.dg.has_edge(f, l, t), live);
        live
    }

    fn add(&mut self, f: Oid, l: Symbol, t: Oid) {
        assert_eq!(self.dg.add_edge(f, l, t), self.mirror.add_edge(f, l, t));
    }

    fn del(&mut self, f: Oid, l: Symbol, t: Oid) {
        assert_eq!(
            self.dg.delete_edge(f, l, t),
            self.mirror.remove_edge(f, l, t)
        );
    }

    /// Delete the edge if it is live, add it if not: always takes effect.
    fn toggle(&mut self, f: Oid, l: Symbol, t: Oid) {
        if self.live(f, l, t) {
            self.del(f, l, t);
        } else {
            self.add(f, l, t);
        }
    }

    fn add_node(&mut self) -> Oid {
        let v = self.dg.add_node();
        assert_eq!(v, self.mirror.add_node());
        v
    }

    /// The first and the last row of the row block that holds `v`'s.
    fn block_ends(&self, v: Oid) -> (Oid, Oid) {
        let same = |w: &u32| CsrGraph::block_of(Oid(*w)) == CsrGraph::block_of(v);
        let n = self.dg.num_nodes() as u32;
        let first = (0..=v.0).rev().take_while(same).last().unwrap_or(v.0);
        let last = (v.0..n).take_while(same).last().unwrap_or(v.0);
        (Oid(first), Oid(last))
    }

    /// `compact()`, then everything the fold promises: the new base equals
    /// the rebuild row for row in both orientations, it shares with the old base exactly the blocks the overlay named no row
    /// of, nothing a reader can see moved, and the lineage is kept.
    fn fold_and_check(&mut self, syms: &[Symbol]) {
        let before = self.dg.clone();
        let edges_before: Vec<_> = before.edges().collect();
        let folds = before.log_len() > 0 || before.num_nodes() > before.base().num_nodes();
        let built = self.dg.compact();

        let (dg, rebuilt) = (&self.dg, CsrGraph::from(&self.mirror));
        let mut expect_built = 0;
        for reverse in [false, true] {
            // a row the overlay patches is a row it answers by a merge
            let patched: Vec<usize> = before
                .nodes()
                .filter(|&v| {
                    syms.iter().any(|&l| {
                        let row = if reverse {
                            before.rev(v, l)
                        } else {
                            before.out(v, l)
                        };
                        matches!(row, ViewEdges::Overlay(_))
                    })
                })
                .map(CsrGraph::block_of)
                .collect();
            let old_blocks = before
                .base()
                .blocks_shared_with(before.base(), reverse)
                .len();
            let shared = dg.base().blocks_shared_with(before.base(), reverse);
            for (b, &shared) in shared.iter().enumerate() {
                // with nothing to fold the base is not replaced at all
                let kept = !folds || (b < old_blocks && !patched.contains(&b));
                assert_eq!(shared, kept, "block {b}, reverse {reverse}");
                expect_built += usize::from(!shared);
            }
        }
        assert_eq!(built, expect_built);
        assert_eq!(dg.log_len(), 0);
        assert_eq!(dg.base().num_nodes(), rebuilt.num_nodes());
        assert_eq!(dg.base().num_edges(), rebuilt.num_edges());
        assert_eq!(dg.num_edges(), rebuilt.num_edges());
        for v in rebuilt.nodes() {
            let (out, rev): (Vec<_>, Vec<_>) = (
                dg.base().out_pairs(v).collect(),
                dg.base().rev_pairs(v).collect(),
            );
            assert_eq!(out, rebuilt.out_pairs(v).collect::<Vec<_>>(), "out {v:?}");
            assert_eq!(rev, rebuilt.rev_pairs(v).collect::<Vec<_>>(), "in {v:?}");
        }
        assert!(dg.stats().agrees_with(rebuilt.stats()));
        assert!(dg.base().stats().agrees_with(rebuilt.stats()));
        assert_eq!(dg.edges().collect::<Vec<_>>(), edges_before);

        assert_eq!(dg.epoch().base, before.epoch().base);
        assert_eq!(
            dg.epoch().version,
            before.epoch().version + u64::from(folds)
        );
        assert_eq!(dg.shares_base_with(&before), !folds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The fold against the rebuild it replaced, under every shape of
    /// overlay we could think of: three rounds of mutations, each closed
    /// by a `compact()`. Round 0 touches a few rows between long untouched
    /// spans (`churn-mixed`'s regime), round 1 at least half of all rows
    /// (the default policy's, a log a quarter of the base), round 2 again
    /// a few, on a base that is itself the product of two folds.
    #[test]
    fn the_fold_equals_the_rebuild(seed in 0u64..1_000_000) {
        let ab = Alphabet::from_names(["a", "b", "c", "d"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // a base smaller than one row block, or one of up to four
        let nodes = if rng.random_bool(0.3) { rng.random_range(1..24usize) } else { rng.random_range(24..200usize) };
        let edges = rng.random_range(0..=3 * nodes);
        // the base never sees `c` and `d`
        let (mirror, _) = random_graph(&mut rng, nodes, edges, &syms[..2]);
        let mut ls = Lockstep { dg: DeltaGraph::from_instance(&mirror), mirror };

        for round in 0..3 {
            // a reader's snapshot from before the round
            let pinned = ls.dg.clone();
            let (pinned_epoch, pinned_edges) = (pinned.epoch(), pinned.edges().collect::<Vec<_>>());
            let node = |rng: &mut StdRng, ls: &Lockstep| Oid(rng.random_range(0..ls.dg.num_nodes()) as u32);
            let label = |rng: &mut StdRng| syms[rng.random_range(0..syms.len())];

            if round == 1 {
                // one effective mutation on two rows of every three; the
                // log is empty, so each is one log entry
                let n = ls.dg.num_nodes();
                for v in (0..n).filter(|v| v % 3 != 2) {
                    let (l, t) = (label(&mut rng), node(&mut rng, &ls));
                    ls.toggle(Oid(v as u32), l, t);
                }
                prop_assert_eq!(ls.dg.log_len(), n - n / 3);
                prop_assert!(2 * ls.dg.log_len() >= n);
            }
            for _ in 0..rng.random_range(0..6) {
                let (u, v, l) = (node(&mut rng, &ls), node(&mut rng, &ls), label(&mut rng));
                let last = Oid(ls.dg.num_nodes() as u32 - 1);
                let some_edge = ls.mirror.edges().nth(rng.random_range(0..64));
                match rng.random_range(0..13) {
                    // a new node that stays without edges
                    0 => { ls.add_node(); }
                    // a new node with edges out, in and onto itself
                    1 => {
                        let w = ls.add_node();
                        ls.add(w, l, u);
                        ls.add(v, l, w);
                        ls.add(w, syms[3], w);
                    }
                    // a label the base never saw
                    2 => ls.add(u, syms[2 + rng.random_range(0..2)], v),
                    // tombstone an edge, then resurrect it
                    3 => if let Some((f, l, t)) = some_edge {
                        ls.del(f, l, t);
                        ls.add(f, l, t);
                    },
                    // add an edge, then delete it (unless it was live)
                    4 => if !ls.live(u, l, v) {
                        ls.add(u, l, v);
                        ls.del(u, l, v);
                    },
                    // empty a row entirely: out-row of u, in-row of v
                    5 => {
                        for (l, t) in ls.mirror.out_edges(u).to_vec() {
                            ls.del(u, l, t);
                        }
                        let into_v: Vec<_> = ls.mirror.edges().filter(|e| e.2 == v).collect();
                        for (f, l, _) in into_v {
                            ls.del(f, l, v);
                        }
                    }
                    // the first and the last row, in both orientations
                    6 => {
                        ls.toggle(Oid(0), l, u);
                        ls.toggle(last, l, v);
                        ls.toggle(u, l, Oid(0));
                        ls.toggle(v, l, last);
                    }
                    // adjacent rows
                    7 => {
                        let next = Oid((u.0 + 1).min(last.0));
                        ls.toggle(u, l, v);
                        ls.toggle(next, l, v);
                        ls.toggle(v, l, next);
                    }
                    // the first and the last row of a block, both ways
                    8 => {
                        let (first, end) = ls.block_ends(u);
                        ls.toggle(first, l, v);
                        ls.toggle(end, l, v);
                        ls.toggle(v, l, first);
                        ls.toggle(v, l, end);
                    }
                    // the two rows a block boundary separates
                    9 => {
                        let end = ls.block_ends(u).1;
                        let next = Oid((end.0 + 1).min(last.0));
                        ls.toggle(end, l, next);
                        ls.toggle(next, l, end);
                    }
                    // new nodes up to the one that opens a new block, which
                    // takes an edge every other time
                    10 => {
                        let mut w = ls.add_node();
                        while ls.dg.num_nodes() < 400 && ls.block_ends(w).0 != w {
                            w = ls.add_node();
                        }
                        if rng.random_bool(0.5) {
                            ls.add(w, l, u);
                            ls.add(v, l, w);
                        }
                    }
                    // a block left without an out-edge: every row of it emptied
                    11 => {
                        let (first, end) = ls.block_ends(u);
                        for w in first.0..=end.0 {
                            for (l, t) in ls.mirror.out_edges(Oid(w)).to_vec() {
                                ls.del(Oid(w), l, t);
                            }
                        }
                    }
                    _ => ls.toggle(u, l, v),
                }
            }
            assert_structurally_equal(&ls.dg, &ls.mirror, &syms);
            ls.fold_and_check(&syms);
            assert_structurally_equal(&ls.dg, &ls.mirror, &syms);
            // the reader still holds the snapshot it pinned
            prop_assert_eq!(pinned.epoch(), pinned_epoch);
            prop_assert_eq!(pinned.edges().collect::<Vec<_>>(), pinned_edges);
        }
    }
}

/// The plan-memo acceptance test of the incremental-snapshots issue: plans
/// survive small-delta epochs (cache *hits*, no recompilation) and survive
/// compaction, which keeps the lineage and every statistic (an exact hit).
#[test]
fn plan_memo_hits_across_delta_epochs_and_compaction() {
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
    let first = planned.run_view(&query, &dg, &EvalRequest::source(names["s"]));
    assert_eq!(first.stats.plan_cache_misses, 1);

    // three small delta epochs: every one reuses the plan
    for i in 0..3 {
        let mut delta = EdgeDelta::new();
        delta.add(names[format!("m{i}").as_str()], hot, names["t"]);
        assert_eq!(dg.apply_delta(&delta), 1);
        let res = planned.run_view(&query, &dg, &EvalRequest::source(names["s"]));
        assert_eq!(
            (res.stats.plan_cache_hits, res.stats.plan_cache_misses),
            (1, 0),
            "epoch {i} must reuse the memoized plan"
        );
    }
    assert_eq!(planned.plan_cache_hits(), 3);
    assert_eq!(planned.plan_cache_misses(), 1);

    // compaction keeps the lineage: the next evaluation hits the memo
    let before = dg.epoch();
    dg.compact();
    assert_eq!(dg.epoch().base, before.base);
    assert!(dg.epoch().version > before.version);
    let after = planned.run_view(&query, &dg, &EvalRequest::source(names["s"]));
    assert_eq!(
        (after.stats.plan_cache_hits, after.stats.plan_cache_misses),
        (1, 0),
        "a fold must not cost the plan"
    );
    assert_eq!(planned.plan_cache_hits(), 4);
    assert_eq!(planned.plan_cache_misses(), 1);
    assert_eq!(after.answers, first.answers);
}
