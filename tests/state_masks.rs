//! The node-major state-mask table at every width.
//!
//! The product BFS keeps one cell of 32 state bits per node and mask word,
//! and an automaton wider than a word uses several cells per node *in the
//! same loop*. Nothing the serving benchmark issues has more than five
//! states, so the word boundaries are covered here: automata of 1, 31, 32,
//! 33, 63, 64, 65 and 130 states — unions of words, every state on an
//! accepting path, so the width survives `trim` — answer every request
//! shape like the definitional oracle, on a CSR snapshot and on a post-delta `DeltaGraph`; and their Kleene closures
//! (ε-moves from every word's end back to the start, so closures span mask
//! words) answer like the scan-and-filter baseline.
//!
//! An answer is read off the table: a node answers when its cells meet the
//! accepting mask in any word. Two automata pin that read across words: a
//! node that first answers through its second word, a level after it was
//! first reached, and a node that accepts in two words, answered once.
//!
//! One arena serves search after search, so the table is also checked
//! across them: any sequence of searches — automaton size, graph size and
//! direction varying from one to the next — may share one arena and
//! answer like a fresh one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{Alphabet, Nfa, StateId, Symbol};
use rpq::core::{
    eval_oracle, eval_product_scan, run_request, search_nodes, search_pair, Answers, BatchResult,
    Direction, EvalControl, EvalScratch, Query, SearchOpts, SourceSpec, Termination,
};
use rpq::graph::{CsrGraph, DeltaGraph, GraphView, Instance, Oid};
use rpq_testkit::generators::random_graph;
use rpq_testkit::random::{random_regex, RegexGenConfig};

const WIDTHS: [usize; 8] = [1, 31, 32, 33, 63, 64, 65, 130];

/// Longest word of a [`word_union`].
const WORD_LEN: usize = 4;

/// An automaton of exactly `states` states accepting a union of words of
/// up to [`WORD_LEN`] letters: a start, one accepting end, and a chain of
/// fresh interior states per word. Letters come from a fixed recurrence, so
/// branches differ and share prefixes only by accident.
fn word_union(states: usize, syms: &[Symbol]) -> Nfa {
    if states == 1 {
        return Nfa::epsilon();
    }
    let mut nfa = Nfa::empty();
    let end = nfa.add_state(true);
    let mut interior = states - 2;
    let mut x = states as u64;
    let mut letter = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        syms[(x >> 33) as usize % syms.len()]
    };
    loop {
        // a word of k letters spends k - 1 interior states
        let spend = interior.min(WORD_LEN - 1);
        let mut at = nfa.start();
        for _ in 0..spend {
            let next = nfa.add_state(false);
            nfa.add_transition(at, letter(), next);
            at = next;
        }
        nfa.add_transition(at, letter(), end);
        interior -= spend;
        if interior == 0 {
            break;
        }
    }
    assert_eq!(nfa.num_states(), states);
    assert_eq!(nfa.trim().num_states(), states, "every state is useful");
    nfa
}

fn setup() -> (Vec<Symbol>, Instance, DeltaGraph) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(2_1);
    let (inst, _) = random_graph(&mut rng, 26, 90, &syms);
    // The post-delta epoch: adds (one onto a new node) and tombstones.
    let mut delta = DeltaGraph::from_instance(&inst);
    let fresh = delta.add_node();
    delta.add_edge(Oid(3), syms[0], fresh);
    delta.add_edge(fresh, syms[1], Oid(7));
    delta.add_edge(Oid(0), syms[2], Oid(11));
    let doomed: Vec<(Oid, Symbol, Oid)> = delta.edges().step_by(13).take(5).collect();
    for (f, l, t) in doomed {
        delta.delete_edge(f, l, t);
    }
    (syms, inst, delta)
}

/// The post-delta graph as an `Instance`, for the oracle.
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

fn shapes(n: usize) -> Vec<SourceSpec> {
    let pick = |count: usize, stride: usize, off: usize| -> Vec<Oid> {
        (0..count)
            .map(|i| Oid(((i * stride + off) % n) as u32))
            .collect()
    };
    vec![
        SourceSpec::Source(Oid(0)),
        SourceSpec::Target(Oid((n / 2) as u32)),
        SourceSpec::Sources(pick(7, 5, 1)),
        SourceSpec::Targets(pick(6, 7, 2)),
        SourceSpec::Pair {
            source: Oid(0),
            target: Oid((n / 3) as u32),
        },
        SourceSpec::Pair {
            source: Oid(2),
            target: Oid(2),
        },
        SourceSpec::Matrix {
            sources: pick(5, 3, 0),
            targets: pick(4, 11, 4),
        },
        SourceSpec::Conjunctive {
            sources: Some(pick(6, 5, 3)),
            targets: None,
        },
        SourceSpec::Conjunctive {
            sources: None,
            targets: Some(pick(6, 7, 1)),
        },
        SourceSpec::Conjunctive {
            sources: Some(pick(5, 3, 2)),
            targets: Some(pick(9, 2, 0)),
        },
        SourceSpec::Conjunctive {
            sources: None,
            targets: None,
        },
    ]
}

/// What `spec` must answer, given `p(s, I)` for every node `s`.
fn expected(spec: &SourceSpec, all: &[Vec<Oid>]) -> Answers {
    let reaches = |s: Oid, t: Oid| all[s.index()].binary_search(&t).is_ok();
    let nodes = || (0..all.len() as u32).map(Oid);
    let into = |t: Oid| -> Vec<Oid> { nodes().filter(|&s| reaches(s, t)).collect() };
    let pairs = |ss: &[Oid], ts: Option<&[Oid]>| -> Vec<(Oid, Oid)> {
        let mut out: Vec<(Oid, Oid)> = ss
            .iter()
            .flat_map(|&s| all[s.index()].iter().map(move |&t| (s, t)))
            .filter(|(_, t)| ts.is_none_or(|ts| ts.contains(t)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    let everyone: Vec<Oid> = nodes().collect();
    match spec {
        SourceSpec::Source(s) => Answers::Nodes(all[s.index()].clone()),
        SourceSpec::Target(t) => Answers::Nodes(into(*t)),
        SourceSpec::Sources(ss) => Answers::Batch(rpq::core::BatchResult::from_per_source(
            ss.iter().map(|s| all[s.index()].clone()).collect(),
        )),
        SourceSpec::Targets(ts) => Answers::Batch(rpq::core::BatchResult::from_per_source(
            ts.iter().map(|&t| into(t)).collect(),
        )),
        SourceSpec::Pair { source, target } => Answers::Reachable(reaches(*source, *target)),
        SourceSpec::Matrix { sources, targets } => {
            let mut m = rpq::core::MatrixResult::new(sources.clone(), targets.clone());
            for (i, &s) in sources.iter().enumerate() {
                for (j, &t) in targets.iter().enumerate() {
                    if reaches(s, t) {
                        m.set(i, j);
                    }
                }
            }
            Answers::Matrix(m)
        }
        SourceSpec::Conjunctive { sources, targets } => Answers::Bindings(pairs(
            sources.as_deref().unwrap_or(&everyone),
            targets.as_deref(),
        )),
    }
}

/// Every shape over `graph` answers `expected`.
fn check_all_shapes<G: GraphView>(nfa: &Nfa, graph: &G, all: &[Vec<Oid>], what: &str) {
    let reversed = nfa.reverse();
    // One arena for the whole sweep: widths and shapes interleave on it.
    let mut scratch = EvalScratch::new();
    let opts = SearchOpts::default();
    for spec in shapes(graph.num_nodes()) {
        let want = expected(&spec, all);
        // Only a pair question has an end to start from.
        let ends: &[Direction] = match spec {
            SourceSpec::Pair { .. } => &[Direction::Forward, Direction::Backward],
            _ => &[Direction::Forward],
        };
        for &direction in ends {
            let got = run_request(nfa, &reversed, graph, &spec, direction, &opts, &mut scratch);
            assert_eq!(got.termination, Termination::Complete);
            assert_eq!(
                got.answers,
                want,
                "{what}: {} states, {spec:?}, pairs {direction:?}",
                nfa.num_states()
            );
        }
    }
}

/// `nfa` answers every shape like `reference` — `p(s, I)` by some other
/// means — on the CSR snapshot and on the post-delta overlay.
fn check_both_graphs(nfa: &Nfa, reference: impl Fn(&Instance, Oid) -> Vec<Oid>) {
    let (_, inst, delta) = setup();
    let after = materialize(&delta);
    let all = |graph: &Instance| -> Vec<Vec<Oid>> {
        graph.nodes().map(|s| reference(graph, s)).collect()
    };
    check_all_shapes(nfa, &CsrGraph::from(&inst), &all(&inst), "csr");
    check_all_shapes(nfa, &delta, &all(&after), "post-delta");
}

#[test]
fn every_width_answers_every_shape_like_the_oracle() {
    let (syms, ..) = setup();
    for states in WIDTHS {
        let nfa = word_union(states, &syms);
        check_both_graphs(&nfa, |graph, s| eval_oracle(&nfa, graph, s, Some(WORD_LEN)));
    }
}

/// The Kleene closure of each union: one more state (the widths become 2,
/// 32, 33, 34, 64, 65, 66, 131), ε-moves from the shared end back to the
/// start, an infinite language — so the search runs many levels deep with
/// every word's states live at once.
#[test]
fn closures_of_every_width_answer_like_the_scan_baseline() {
    let (syms, ..) = setup();
    for states in WIDTHS {
        let nfa = Nfa::star(&word_union(states, &syms));
        assert_eq!(nfa.trim().num_states(), states + 1);
        check_both_graphs(&nfa, |graph, s| eval_product_scan(&nfa, graph, s).answers);
    }
}

/// Wide automata on a graph big enough for wide levels: their states fan
/// out across two and five mask words, and a level marks cells of every
/// word. Answers equal the scan baseline's, and a warm arena reports
/// every counter a fresh one does.
#[test]
fn wide_automata_fan_out_to_the_same_counters() {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(33);
    let (inst, _) = random_graph(&mut rng, 2500, 20_000, &syms);
    let csr = CsrGraph::from(&inst);
    let mut warm = EvalScratch::new();
    for states in [33usize, 130] {
        let nfa = Nfa::star(&word_union(states, &syms));
        let want = eval_product_scan(&nfa, &inst, Oid(0)).answers;
        let spec = SourceSpec::Source(Oid(0));
        let run = |scratch: &mut EvalScratch| {
            let resp = run_request(
                &nfa,
                &nfa.reverse(),
                &csr,
                &spec,
                Direction::Forward,
                &SearchOpts::default(),
                scratch,
            );
            assert_eq!(
                resp.answers,
                Answers::Nodes(want.clone()),
                "{states} states"
            );
            resp.stats
        };
        let fresh = run(&mut EvalScratch::new());
        let mut reused = run(&mut warm);
        reused.scratch_reused = fresh.scratch_reused;
        assert_eq!(reused, fresh, "{states} states");
        assert_eq!(fresh.parallel_levels, 0);
    }
}

/// One arena across searches of different automaton sizes: small-|Q|
/// (twice, so the marks carry two generations) → larger-|Q| (the arena
/// regrows) → the first query again. The arena has exactly one mark table,
/// regrown with the rest, so the last search must see no stale mark:
/// answers and `edges_scanned` equal a fresh-arena run. (With a second,
/// separately grown table, as parallel searches once had, the restarted
/// generation counter collided with old stamps and the last search
/// returned 0 of 400 answers.)
#[test]
fn marks_survive_a_regrow_between_searches() {
    let mut ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let n = 400u32;
    let mut inst = Instance::new();
    for _ in 0..n {
        inst.add_node();
    }
    for i in 0..n {
        inst.add_edge(Oid(i), syms[0], Oid((i * 7 + 1) % n));
        inst.add_edge(Oid(i), syms[1], Oid((i * 13 + 5) % n));
        if i % 3 == 0 {
            inst.add_edge(Oid(i), syms[2], Oid((i * 31 + 2) % n));
        }
    }
    let graph = CsrGraph::from(&inst);
    let small = Query::parse(&mut ab, "(a+b+c)*").unwrap();
    let large = Query::parse(&mut ab, "(a.b.c.a.b.c+a+b+c)*").unwrap();
    assert!(large.nfa().num_states() > small.nfa().num_states());

    let opts = SearchOpts::default();
    let fresh = search_nodes(small.nfa(), &graph, Oid(0), &opts, &mut EvalScratch::new()).0;
    assert_eq!(fresh.answers.len(), 400);

    let mut arena = EvalScratch::new();
    for (step, query) in [&small, &small, &large, &small].into_iter().enumerate() {
        let (res, term) = search_nodes(query.nfa(), &graph, Oid(0), &opts, &mut arena);
        assert_eq!(term, Termination::Complete);
        assert_eq!(res.answers, fresh.answers, "answers at step {step}");
        if std::ptr::eq(query, &small) {
            assert_eq!(
                res.stats.edges_scanned, fresh.stats.edges_scanned,
                "edges_scanned at step {step}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The general form of the regression above: any sequence of searches
    /// — automaton size, graph size and direction all varying from one to
    /// the next — may share one arena. Each answer set
    /// equals a fresh-arena run and contains the definitional oracle's
    /// (equals it where the oracle's word bound is authoritative).
    #[test]
    fn any_search_sequence_may_share_one_arena(seed in 0u64..10_000) {
        use rand::Rng;
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = EvalScratch::new();
        for step in 0..10 {
            let nodes = rng.random_range(3..9usize);
            let (inst, _) = random_graph(&mut rng, nodes, nodes * 2, &syms);
            let graph = CsrGraph::from(&inst);
            let cfg = RegexGenConfig {
                max_depth: rng.random_range(1..5usize),
                ..RegexGenConfig::new(syms.clone())
            };
            let nfa = Query::new(random_regex(&mut rng, &cfg), &ab).nfa().clone();
            let seed_node = Oid(rng.random_range(0..nodes) as u32);
            let backward = rng.random_range(0..2) == 1;
            let opts = SearchOpts {
                reverse_adj: backward,
                ..SearchOpts::default()
            };
            let auto = if backward { nfa.reverse() } else { nfa.clone() };
            let shared = search_nodes(&auto, &graph, seed_node, &opts, &mut arena).0;
            let fresh = search_nodes(&auto, &graph, seed_node, &opts, &mut EvalScratch::new()).0;
            prop_assert_eq!(&shared.answers, &fresh.answers, "step {} {:?}", step, opts);
            prop_assert_eq!(shared.stats.edges_scanned, fresh.stats.edges_scanned);

            // p(o, I) by definition; backward, every o whose set holds the seed
            let oracle: Vec<Oid> = if backward {
                graph
                    .nodes()
                    .filter(|&o| eval_oracle(&nfa, &inst, o, Some(8)).contains(&seed_node))
                    .collect()
            } else {
                eval_oracle(&nfa, &inst, seed_node, Some(8))
            };
            for o in &oracle {
                prop_assert!(shared.answers.binary_search(o).is_ok(), "step {} lost {:?}", step, o);
            }
            if nfa.num_states() * nodes <= 8 {
                prop_assert_eq!(&shared.answers, &oracle, "step {}", step);
            }
        }
    }
}

/// An automaton of `states` states whose `accepting` states accept and
/// whose transitions are `moves`; the states nothing names pad the mask
/// table out to `⌈states / 32⌉` words.
fn padded(states: usize, accepting: &[StateId], moves: &[(StateId, Symbol, StateId)]) -> Nfa {
    let mut nfa = Nfa::empty();
    for q in 1..states as StateId {
        nfa.add_state(accepting.contains(&q));
    }
    for &(from, sym, to) in moves {
        nfa.add_transition(from, sym, to);
    }
    nfa
}

/// `s -a-> x` and a `b` loop at `x`, as a snapshot and as an overlay that
/// adds the loop; `(s, x)` are nodes 0 and 1.
fn loop_graphs(a: Symbol, b: Symbol) -> (CsrGraph, DeltaGraph) {
    let mut inst = Instance::new();
    let (s, x) = (inst.add_node(), inst.add_node());
    inst.add_edge(s, a, x);
    let mut delta = DeltaGraph::from_instance(&inst);
    delta.add_edge(x, b, x);
    inst.add_edge(x, b, x);
    (CsrGraph::from(&inst), delta)
}

fn capped_at(cap: Option<usize>) -> SearchOpts<'static> {
    SearchOpts {
        depth_cap: cap,
        ..SearchOpts::default()
    }
}

/// `x` is first reached at level 1 in a state of word 0 that does not
/// accept, and becomes an answer at level 2 through an accepting state of
/// word 1. The answer is read off the second word of its cells, at the
/// level it was reached there, and not before.
#[test]
fn a_node_becomes_an_answer_through_a_second_word_at_a_later_level() {
    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let nfa = padded(41, &[40], &[(0, a, 1), (1, b, 40)]);
    let (csr, delta) = loop_graphs(a, b);
    later_in_word_1(&nfa, &csr, "csr");
    later_in_word_1(&nfa, &delta, "post-delta");
}

fn later_in_word_1<G: GraphView>(nfa: &Nfa, graph: &G, what: &str) {
    let (s, x) = (Oid(0), Oid(1));
    let mut scratch = EvalScratch::new();
    for (cap, want) in [(Some(1), vec![]), (Some(2), vec![x]), (None, vec![x])] {
        let (res, term) = search_nodes(nfa, graph, s, &capped_at(cap), &mut scratch);
        assert_eq!(term, Termination::Complete, "{what}");
        assert_eq!(res.answers, want, "{what}: cap {cap:?}");
        if cap.is_none() {
            let stats = res.stats;
            let counts = (stats.pairs_visited, stats.frontier_peak, stats.answers);
            assert_eq!(counts, (3, 1, 1), "{what}: one pair a level");
        }
    }
    let (pair, _) = search_pair(
        nfa,
        &nfa.reverse(),
        graph,
        s,
        x,
        Direction::Forward,
        &SearchOpts::default(),
        &mut scratch,
    );
    assert!(pair.reachable, "{what}");
    assert_eq!(
        pair.stats.pairs_visited, 3,
        "{what}: the hit is the last pair"
    );
}

/// `x` holds accepting states in word 0 and in word 1 at level 1, and
/// another in word 1 at level 2: one answer, whether the answers are read
/// off the table (the search ran to the end) or off the log (a budget
/// stopped it after level 1 was checked).
#[test]
fn a_node_accepting_in_two_words_is_answered_once() {
    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let nfa = padded(42, &[5, 40, 41], &[(0, a, 5), (0, a, 40), (5, b, 41)]);
    let (csr, delta) = loop_graphs(a, b);
    answered_once(&nfa, &csr, "csr");
    answered_once(&nfa, &delta, "post-delta");
}

fn answered_once<G: GraphView>(nfa: &Nfa, graph: &G, what: &str) {
    let x = Oid(1);
    let mut scratch = EvalScratch::new();
    let reversed = nfa.reverse();
    let mut run = |spec: &SourceSpec, opts: &SearchOpts<'_>| {
        let dir = Direction::Forward;
        run_request(nfa, &reversed, graph, spec, dir, opts, &mut scratch)
    };
    let spec = SourceSpec::Source(Oid(0));
    let full = run(&spec, &SearchOpts::default());
    assert_eq!(full.termination, Termination::Complete);
    assert_eq!(full.answers, Answers::Nodes(vec![x]), "{what}");
    let counts = (full.stats.pairs_visited, full.stats.frontier_peak);
    assert_eq!((counts, full.stats.answers), ((4, 2), 1), "{what}");

    // Level 0 scans `s`'s `a` row once per `a` move (2), level 1 `x`'s `b`
    // row (1): a budget of 2 stops level 1's sweep before its row.
    let opts = SearchOpts {
        control: EvalControl {
            budget: Some(2),
            cancel: None,
        },
        ..SearchOpts::default()
    };
    let cut = run(&spec, &opts);
    assert_eq!(cut.termination, Termination::BudgetExhausted, "{what}");
    assert_eq!(cut.answers, Answers::Nodes(vec![x]), "{what}");
    assert_eq!(
        (cut.stats.pairs_visited, cut.stats.answers),
        (3, 1),
        "{what}"
    );

    let sources = SourceSpec::Sources(vec![Oid(0), x]);
    let both = run(&sources, &SearchOpts::default());
    let per = BatchResult::from_per_source(vec![vec![x], vec![]]);
    assert_eq!(both.answers, Answers::Batch(per), "{what}");
}
