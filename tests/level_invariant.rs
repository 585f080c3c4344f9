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
//!
//! The search reads its counters and answers off the log of the levels it
//! answer-checked, and a search stopped part-way has marked cells that no
//! level of that log holds: the level a tripped budget left half expanded,
//! the level a cancellation stopped before its check, the rest of the
//! level a `stop_at` hit cut. So the same definition of the levels is also
//! held against every way a search stops early: a budget that trips inside
//! a level, a cancellation raised while some level is swept, and a pair
//! search that stops at its target. Its answers must be exactly the nodes
//! with an accepting pair in the levels checked, and `pairs_visited` and
//! `frontier_peak` the sums and the largest of those levels. (A search that
//! read its answers off the table even when it did not complete fails
//! here.)

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq::automata::{Alphabet, Nfa, StateId, Symbol};
use rpq::core::{
    eval_oracle, run_request, search_nodes, search_pair, Answers, BatchResult, Direction,
    EvalControl, EvalScratch, MatrixResult, Query, SearchOpts, SourceSpec, Termination,
};
use rpq::graph::{
    CsrGraph, DeltaGraph, Epoch, GraphView, Instance, LabelStats, Oid, ViewEdges, ViewGroups,
};
use rpq_testkit::generators::random_graph;
use rpq_testkit::random::{random_regex, RegexGenConfig};

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

/// The levels of the search from `seed` by definition: level `k` holds
/// every `(state, node)` pair first reached by spelling `k` letters (the
/// start's ε-closure at the seed is level 0), and a level's cost is what
/// its sweep scans — a row's length per pair and labeled transition that
/// follows it.
struct Levels {
    pairs: Vec<Vec<(StateId, Oid)>>,
    cost: Vec<usize>,
}

impl Levels {
    fn of<G: GraphView>(nfa: &Nfa, graph: &G, seed: Oid) -> Levels {
        let start = nfa.eps_closure(&[nfa.start()]);
        let mut level: Vec<(StateId, Oid)> = start.into_iter().map(|q| (q, seed)).collect();
        let mut seen: HashSet<(StateId, Oid)> = level.iter().copied().collect();
        let mut out = Levels {
            pairs: Vec::new(),
            cost: Vec::new(),
        };
        while !level.is_empty() {
            let (mut next, mut cost) = (Vec::new(), 0);
            for &(q, v) in &level {
                for &(sym, q1) in nfa.transitions(q) {
                    let row: Vec<Oid> = graph.out(v, sym).collect();
                    cost += row.len();
                    for v2 in row {
                        for q2 in nfa.eps_closure(&[q1]) {
                            if seen.insert((q2, v2)) {
                                next.push((q2, v2));
                            }
                        }
                    }
                }
            }
            out.pairs.push(level);
            out.cost.push(cost);
            level = next;
        }
        out
    }

    /// What a search that answer-checked the first `checked` levels
    /// reports: its answers — the nodes with an accepting pair in those
    /// levels, sorted — its `pairs_visited` and its `frontier_peak`.
    fn through(&self, nfa: &Nfa, checked: usize) -> (Vec<Oid>, usize, usize) {
        let levels = &self.pairs[..checked];
        let mut answers: Vec<Oid> = levels
            .iter()
            .flatten()
            .filter(|(q, _)| nfa.is_accepting(*q))
            .map(|&(_, v)| v)
            .collect();
        answers.sort_unstable();
        answers.dedup();
        let pairs = levels.iter().map(Vec::len).sum();
        let peak = levels.iter().map(Vec::len).max().unwrap_or(0);
        (answers, pairs, peak)
    }
}

/// A graph that raises `cancel` as its `after`-th row is looked up — a
/// cancellation that arrives while some level is being swept — and counts
/// the rows looked up.
struct CancelAfter<'a, G> {
    graph: &'a G,
    rows: AtomicUsize,
    after: usize,
    cancel: &'a AtomicBool,
}

impl<'a, G: GraphView> CancelAfter<'a, G> {
    fn new(graph: &'a G, after: usize, cancel: &'a AtomicBool) -> Self {
        cancel.store(after == 0, Ordering::Relaxed);
        CancelAfter {
            graph,
            rows: AtomicUsize::new(0),
            after,
            cancel,
        }
    }

    fn tick(&self) {
        if self.rows.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
            self.cancel.store(true, Ordering::Relaxed);
        }
    }
}

impl<G: GraphView> GraphView for CancelAfter<'_, G> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
    fn stats(&self) -> &LabelStats {
        self.graph.stats()
    }
    fn epoch(&self) -> Epoch {
        self.graph.epoch()
    }
    fn out(&self, v: Oid, label: Symbol) -> ViewEdges<'_> {
        self.tick();
        self.graph.out(v, label)
    }
    fn rev(&self, v: Oid, label: Symbol) -> ViewEdges<'_> {
        self.tick();
        self.graph.rev(v, label)
    }
    fn out_groups(&self, v: Oid) -> ViewGroups<'_> {
        self.graph.out_groups(v)
    }
}

/// How often the early stops of one case cut where the table and the log
/// disagree: a tripped level's successor, or a cancelled level, holding an
/// answer the checked levels do not; a `stop_at` hit before the last pair
/// of its level.
#[derive(Default)]
struct Cuts {
    tripped: usize,
    cancelled: usize,
    mid_level_hits: usize,
}

impl Cuts {
    fn add(self, other: Cuts) -> Cuts {
        Cuts {
            tripped: self.tripped + other.tripped,
            cancelled: self.cancelled + other.cancelled,
            mid_level_hits: self.mid_level_hits + other.mid_level_hits,
        }
    }
}

fn with_budget(budget: usize) -> SearchOpts<'static> {
    SearchOpts {
        control: EvalControl {
            budget: Some(budget),
            cancel: None,
        },
        ..SearchOpts::default()
    }
}

/// Every early stop over one graph, from every node, against the levels.
fn check_early_stops<G: GraphView>(nfa: &Nfa, graph: &G, rng: &mut StdRng, what: &str) -> Cuts {
    let mut cuts = Cuts::default();
    let mut scratch = EvalScratch::new();
    for o in (0..graph.num_nodes() as u32).map(Oid) {
        let levels = Levels::of(nfa, graph, o);
        let depth = levels.pairs.len();
        let expect = |checked: usize| levels.through(nfa, checked);
        let report = |(res, term): (rpq::core::EvalResult, Termination)| {
            let stats = (res.stats.pairs_visited, res.stats.frontier_peak);
            (term, (res.answers, stats.0, stats.1))
        };

        // A budget that trips inside level `l`: everything before it fits.
        let mut spent = 0;
        for l in 0..depth {
            let cost = levels.cost[l];
            if cost > 0 {
                let budget = spent + rng.random_range(0..cost);
                let got = report(search_nodes(
                    nfa,
                    graph,
                    o,
                    &with_budget(budget),
                    &mut scratch,
                ));
                let ctx = format!("{what}: node {o:?}, budget {budget} trips level {l}");
                assert_eq!(got, (Termination::BudgetExhausted, expect(l + 1)), "{ctx}");
                cuts.tripped += usize::from(l + 1 < depth && expect(l + 2).0 != expect(l + 1).0);
            }
            spent += cost;
        }
        let got = report(search_nodes(
            nfa,
            graph,
            o,
            &with_budget(spent),
            &mut scratch,
        ));
        assert_eq!(got, (Termination::Complete, expect(depth)), "{what}: {o:?}");

        // Rows looked up through each level: a search capped at depth `d`
        // sweeps levels `0..d`.
        let cancel = AtomicBool::new(false);
        let rows_through: Vec<usize> = (0..=depth)
            .map(|d| {
                let counting = CancelAfter::new(graph, usize::MAX, &cancel);
                let capped = SearchOpts {
                    depth_cap: Some(d),
                    ..SearchOpts::default()
                };
                search_nodes(nfa, &counting, o, &capped, &mut scratch);
                counting.rows.into_inner()
            })
            .collect();
        let total = rows_through[depth];
        let after = rng.random_range(0..=total);
        let cancelling = CancelAfter::new(graph, after, &cancel);
        let opts = SearchOpts {
            control: EvalControl {
                budget: None,
                cancel: Some(&cancel),
            },
            ..SearchOpts::default()
        };
        let got = report(search_nodes(nfa, &cancelling, o, &opts, &mut scratch));
        // Raised in the sweep of level `l`, the flag stops level `l + 1`
        // before its check; raised before the search, it stops level 0. A
        // flag raised in the last level's sweep stops nothing.
        let stopped = match after {
            0 => 0,
            _ => rows_through
                .iter()
                .position(|&rows| rows >= after)
                .unwrap_or(depth),
        };
        let want = if stopped < depth {
            cuts.cancelled += usize::from(expect(stopped + 1).0 != expect(stopped).0);
            (Termination::Cancelled, expect(stopped))
        } else {
            (Termination::Complete, expect(depth))
        };
        let ctx = format!("{what}: node {o:?}, cancelled at row {after} of {total}");
        assert_eq!(got, want, "{ctx}");

        // `stop_at`: the search stops in the level of the target's first
        // accepting pair, which counts whole for `frontier_peak`; its pairs
        // count up to that entry.
        let reversed = nfa.reverse();
        for t in (0..graph.num_nodes() as u32).map(Oid) {
            let (pair, term) = search_pair(
                nfa,
                &reversed,
                graph,
                o,
                t,
                Direction::Forward,
                &SearchOpts::default(),
                &mut scratch,
            );
            assert_eq!(term, Termination::Complete);
            let first = levels
                .pairs
                .iter()
                .position(|level| level.iter().any(|&(q, v)| v == t && nfa.is_accepting(q)));
            let ctx = format!("{what}: pair {o:?} -> {t:?}");
            assert_eq!(pair.reachable, first.is_some(), "{ctx}");
            let (pairs, peak) = (pair.stats.pairs_visited, pair.stats.frontier_peak);
            match first {
                None => assert_eq!((pairs, peak), (expect(depth).1, expect(depth).2), "{ctx}"),
                Some(l) => {
                    let (before, through) = (expect(l).1, expect(l + 1).1);
                    assert_eq!(peak, expect(l + 1).2, "{ctx}");
                    assert!(before < pairs && pairs <= through, "{ctx}: {pairs} pairs");
                    cuts.mid_level_hits += usize::from(pairs < through);
                }
            }
        }
    }
    cuts
}

/// One case's early stops on both graphs.
fn check_early_stops_case(seed: u64) -> Cuts {
    let (inst, delta, nfa) = case(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let csr = check_early_stops(&nfa, &CsrGraph::from(&inst), &mut rng, "csr");
    csr.add(check_early_stops(&nfa, &delta, &mut rng, "post-delta"))
}

proptest! {
    /// A search stopped by its budget, by cancellation or at its target
    /// answers, and counts, exactly the levels it answer-checked.
    #[test]
    fn an_early_stop_answers_exactly_the_levels_it_checked(seed in 0u64..1_000_000) {
        check_early_stops_case(seed);
    }
}

/// The early-stop property cannot pass vacuously: on the first cases,
/// budgets and cancellations stop searches where the unchecked level holds
/// a new answer, and pair searches stop before the end of a level.
#[test]
fn early_stops_cut_where_table_and_log_disagree() {
    let cuts = (0..16)
        .map(check_early_stops_case)
        .fold(Cuts::default(), Cuts::add);
    let counts = (cuts.tripped, cuts.cancelled, cuts.mid_level_hits);
    assert!(
        counts.0 >= 64 && counts.1 >= 32 && counts.2 >= 32,
        "{counts:?}"
    );
}
