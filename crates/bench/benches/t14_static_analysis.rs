//! T14 — static query analysis (plan-time facts payoff). Six claims,
//! asserted at registration time so `--test` mode (the CI bench smoke)
//! enforces the acceptance criteria without paying measurement time:
//!
//! * **Empty on alphabet** — a query that must cross a label with zero
//!   edges in the snapshot is statically empty: the `PlannedEngine`
//!   answers it with `edges_scanned == 0` and `pairs_visited == 0` (no
//!   frontier is ever allocated), where the plain product engine pays a
//!   real traversal to discover the same emptiness.
//! * **Trimmed NFA** — dead alternation arms are erased before
//!   determinization; the plan records `states_trimmed > 0` and the
//!   trimmed plan answers exactly like the unanalyzed original.
//! * **Certified rewrite** — on the cached-site workload the constraint
//!   rewrite (`(a.b)* → l`) is certified by a two-sided inclusion check at
//!   plan time (`rewrites_certified == 1`), and the certified plan's
//!   answers match the plain engine's.
//!
//! * **Compile once** — on the `plan-cold` shapes of `bench_e2e` a cold
//!   plan's search builds no Thompson automaton of its query — a cache
//!   body that begins with the query's first label is a one-word body
//!   that a later leading label of the query contradicts, which the view
//!   search's word gate drops on the regexes (it was probed, one build,
//!   before) — none of a candidate it scores, and no subset construction
//!   of it (`PlanRecord::thompson_builds` / `determinizations`): no regex of
//!   these finite languages is smaller than the text, and a cached text's
//!   cover is the text itself. The analysis trims no automaton
//!   (`PlanRecord::trims`), for none of these queries has an `∅` subterm.
//!   Every count is read off the one record `optimize_and_analyze` builds,
//!   the record a planned engine keeps with the plan.
//! * **Prove once** — on the same shapes a rewritten cold plan considers
//!   one candidate and decides its one claim once (`PlanRecord::considered
//!   == 1`, `claims_proved == 1`: the view search, the only code that
//!   substitutes a cache, proposes and decides it). The claim `u·t = l·t`
//!   under `l = u` is one rewrite step each way, so the view search
//!   reports the proof `"one-step"`, the plan builds no `RewriteTo` closure
//!   (`closure_builds == 0`) and its certification, by the same method,
//!   builds none and runs no inclusion test
//!   (`PlanRecord::certify_closure_builds == 0`, `certify_inclusions == 0`);
//!   it took two closures and two certifying inclusion tests before. A
//!   text no cache prefixes decides nothing and builds nothing. Example 3's
//!   text under its regex cache `l = (a.b)*` is no such step: its claim is
//!   decided by the closure test, and its certification runs the two
//!   inclusion tests against the closures that decision built, building
//!   none.
//! * **Allocate per artefact, not per subset** — on the same shapes a
//!   warm `optimize_and_analyze` asks the allocator for at most
//!   [`COLD_PLAN_BUFFERS`] buffers per text of each class (counted by this
//!   binary's `#[global_allocator]`: 10 / 35–47 / 11; 17–20 / 40–52 /
//!   19–22 while the search built an `Optimized`, a word body was probed,
//!   a cache's first labels were read off its body per plan and the
//!   Thompson construction grew its tables state by state; a cached text
//!   took 195–213 while its claim built two closures). The subset
//!   constructions, inclusion tests, Moore rounds and closure saturations
//!   of a plan intern their state sets in one arena per construction, and
//!   the facts a regex states are read off it, minimality included; the
//!   minimal-DFA round trip on every text that is not a word and the
//!   remainder's DFA difference on a cover that is the text took 21 /
//!   418–562 / 122–123, a Thompson automaton per scored candidate and a
//!   trim per plan 60 / 565–700 / 161–162, a `Vec` per subset state 65 /
//!   1 461–1 842 / 224, and a second cache rewriter beside the view search
//!   61 / 744–943 / 162–163.
//!   And a
//!   rewritten text's certifying inclusion test over the text repeated
//!   [`REPEATS`] times — that many times the pairs — asks for at most
//!   [`REPEAT_SLACK`] more buffers than over the text itself (13 → 34; a
//!   `Vec` per pair took 41 → 701, and one cloned set per antichain node
//!   16 → 130).
//!
//! The counted columns of each class — those buffers, the buffers of one
//! plan-memo miss of a `PlannedEngine` (search, analysis, plan and memo
//! entry: 13 / 38–51 / 15), and the Thompson automata and closures the
//! searches built — are the `cold_plan` rows of the per-layer trajectory
//! `BENCH_layers.jsonl` (written with `-- --json <file> --pr <n> --side
//! <parent|change>`). A `--test` run re-counts them and requires them
//! equal to the class's last committed row, so the file cannot go stale:
//! a plan miss that builds the reversal again, for one, moves the miss
//! count.
//!
//! The measured series compare the planned engine (analysis amortized via
//! the plan memo) against the plain product engine on all three shapes;
//! `cold_plan/{uncached, cached, union_tail}` is the cold planner alone —
//! one pass over each class of `plan-cold` text against an empty memo.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::{parse_regex, Alphabet, Nfa, Regex};
use rpq_bench::{
    cold_plan_workload, distributed_workload, last_layer_row, skewed_workload, ColdPlanWorkload,
    LAYERS_FILE,
};
use rpq_constraints::{Closures, ConstraintSet};
use rpq_core::{Engine, EvalRequest, ProductEngine, Query};
use rpq_graph::{CsrGraph, Instance};
use rpq_optimizer::{optimize_and_analyze, rewrite_with_views, PlannedEngine};

/// The system allocator, counting every buffer handed out — each
/// allocation and each reallocation — for the allocation gate.
struct Counting;

static BUFFERS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments, unchanged, to `System` and
// returns what `System` returns, so each keeps `System`'s guarantees; the
// counter is a statistic and publishes no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BUFFERS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BUFFERS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Acceptance 6's bound on the buffers one warm `optimize_and_analyze`
/// asks for, per class of `plan-cold` text: the measured maxima plus one.
const COLD_PLAN_BUFFERS: [(&str, usize); 3] =
    [("uncached", 11), ("cached", 49), ("union_tail", 12)];

/// How many times acceptance 6 repeats a rewritten text to multiply the
/// pairs its certifying inclusion test visits.
const REPEATS: usize = 32;

/// How many more buffers acceptance 6 lets the inclusion test over the
/// repeated text ask for than the one over the text itself: the growth of
/// its few buffers, never one per pair.
const REPEAT_SLACK: usize = 48;

/// The texts of one class of the cold-plan workload.
fn class<'w>(w: &'w ColdPlanWorkload, name: &str) -> &'w [Regex] {
    match name {
        "uncached" => &w.uncached,
        "cached" => &w.cached,
        _ => &w.union_tail,
    }
}

/// The counted work of a cold plan of each text of one class — the
/// counted columns of its `cold_plan` row in the per-layer trajectory
/// ([`LAYERS_FILE`]): the buffers one warm `optimize_and_analyze` asks for
/// and those one plan-memo miss of a `PlannedEngine` asks for (the search,
/// the analysis, the plan and the memo entry), each as min and max over
/// the texts, and the Thompson automata and closures the searches built,
/// summed. Every text is planned once first, to warm the set's compiled
/// artefacts.
fn cold_plan_counts(
    w: &ColdPlanWorkload,
    graph: &CsrGraph,
    texts: &[Regex],
) -> [(&'static str, u64); 6] {
    let plan = |q: &Regex| optimize_and_analyze(&w.constraints, q, &w.alphabet, graph.stats());
    let (mut thompson_builds, mut closure_builds) = (0, 0);
    for q in texts {
        let record = plan(q).record;
        thompson_builds += record.thompson_builds;
        closure_builds += record.closure_builds;
    }
    let counted = |f: &mut dyn FnMut(&Regex)| {
        let counts: Vec<usize> = texts
            .iter()
            .map(|q| {
                let before = BUFFERS.load(Ordering::Relaxed);
                f(q);
                BUFFERS.load(Ordering::Relaxed) - before
            })
            .collect();
        (*counts.iter().min().unwrap(), *counts.iter().max().unwrap())
    };
    let (min, max) = counted(&mut |q| {
        black_box(plan(q));
    });
    let engine = PlannedEngine::new(ProductEngine, w.constraints.clone(), w.alphabet.clone());
    let queries: Vec<Query> = texts
        .iter()
        .map(|q| Query::new(q.clone(), &w.alphabet))
        .collect();
    let mut next = queries.iter();
    let (miss_min, miss_max) = counted(&mut |_| {
        black_box(engine.plan(next.next().unwrap(), graph));
    });
    assert_eq!(engine.plan_cache_misses(), texts.len(), "every plan missed");
    [
        ("buffers_min", min),
        ("buffers_max", max),
        ("miss_buffers_min", miss_min),
        ("miss_buffers_max", miss_max),
        ("thompson_builds", thompson_builds),
        ("closure_builds", closure_builds),
    ]
    .map(|(name, n)| (name, n as u64))
}

/// Acceptance 6, run first, while this is the only thread that allocates:
/// the counted work of each class, its buffers held to
/// [`COLD_PLAN_BUFFERS`]. In a `--test` run the counted columns must also
/// equal those of the class's last row in [`LAYERS_FILE`], so they cannot
/// go stale. Returns each class's counts, for its measured row.
fn cold_plan_allocation_gate(check_layers: bool) -> Vec<[(&'static str, u64); 6]> {
    let w = cold_plan_workload();
    let graph = CsrGraph::from(&w.instance);
    let plan = |q| optimize_and_analyze(&w.constraints, q, &w.alphabet, graph.stats());
    let layers = if check_layers {
        std::fs::read_to_string(LAYERS_FILE).expect("the per-layer trajectory is committed")
    } else {
        String::new()
    };
    let mut all = Vec::new();
    for (name, bound) in COLD_PLAN_BUFFERS {
        let counts = cold_plan_counts(&w, &graph, class(&w, name));
        let field = |k: &str| counts.iter().find(|(n, _)| *n == k).unwrap().1;
        let (min, max) = (field("buffers_min"), field("buffers_max"));
        println!(
            "t14 cold-plan allocations, {name}: {min}–{max} buffers per plan \
             ({}–{} per plan-memo miss, bound {bound})",
            field("miss_buffers_min"),
            field("miss_buffers_max"),
        );
        assert!(
            max as usize <= bound,
            "a cold {name} plan asked for {max} buffers (bound {bound}) — subset \
             states must be interned in the construction's arena, not allocated \
             one by one, and a regex's facts read off it, not off an automaton"
        );
        if check_layers {
            let row = last_layer_row(&layers, "t14_static_analysis/cold_plan", name)
                .unwrap_or_else(|| panic!("no cold_plan/{name} row in {LAYERS_FILE}"));
            for (column, n) in counts {
                let committed = row
                    .iter()
                    .find(|(k, _)| k == column)
                    .map(|(_, v)| v.as_str());
                assert_eq!(
                    committed,
                    Some(n.to_string().as_str()),
                    "cold_plan/{name}: {column} is {n}; the last committed row says \
                     {committed:?} — re-measure and append a row with `--json`"
                );
            }
        }
        all.push(counts);
    }
    // The certifying inclusion test of a rewritten text, `L(q) ⊆
    // L(closure(r))`, against a closure already built, with `q` followed
    // by `k - 1` more copies of itself on both sides (a rewrite applies to
    // a prefix, so `q^k → r·q^(k-1)`): `k` times the pairs, the same arena.
    let q = &w.cached[0];
    let r = plan(q).record.winner.expect("a cached text is rewritten");
    let closures = Closures::new(&w.constraints);
    let buffers = |k: usize| {
        let tail = vec![q.clone(); k - 1];
        let q = Regex::concat([vec![q.clone()], tail.clone()].concat());
        let r = Regex::concat([vec![r.clone()], tail].concat());
        let nq = Nfa::thompson(&q);
        assert!(
            closures.includes(&nq, &r).is_ok(),
            "{q:?} ⊆ {r:?} certifies"
        );
        let before = BUFFERS.load(Ordering::Relaxed);
        black_box(closures.includes(&nq, &r).is_ok());
        BUFFERS.load(Ordering::Relaxed) - before
    };
    let (once, repeated) = (buffers(1), buffers(REPEATS));
    println!(
        "t14 cold-plan allocations, certification: {once} buffers for one text, \
         {repeated} for it {REPEATS} times over (slack {REPEAT_SLACK})"
    );
    assert!(
        repeated <= once + REPEAT_SLACK,
        "an inclusion test over {REPEATS} times the pairs asked for {repeated} \
         buffers, {once} over one — an antichain node must carry a set id, not a set"
    );
    all
}

fn bench(c: &mut Criterion) {
    let counts = cold_plan_allocation_gate(c.is_test_mode());

    let mut group = c.benchmark_group("t14_static_analysis");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(200));

    for &depth in &[64usize, 256] {
        let mut w = skewed_workload(depth, 32);
        // `ghost` is interned but never attached to an edge, so any query
        // that must cross it is unsatisfiable on this snapshot.
        let ghost_q = parse_regex(&mut w.alphabet, "ghost.cold*").unwrap();
        let ghost_query = Query::new(ghost_q, &w.alphabet);
        // A live spine query with a dead alternation arm: analysis erases
        // the `ghost.hot*` branch and trims the orphaned NFA states.
        let trimmed_q = parse_regex(&mut w.alphabet, "cold* + ghost.hot*").unwrap();
        let trimmed_query = Query::new(trimmed_q, &w.alphabet);
        let graph = CsrGraph::from(&w.instance);
        let planned = PlannedEngine::unconstrained(ProductEngine, w.alphabet.clone());

        // Acceptance 1: statically empty answers touch no edges and
        // allocate no frontier.
        let plan = planned.plan(&ghost_query, &graph);
        assert!(
            plan.record.statically_empty,
            "ghost-crossing query must be statically empty at depth {depth}"
        );
        let res = planned.eval(&ghost_query, &graph, w.source);
        assert!(res.answers.is_empty(), "statically empty query answered");
        assert_eq!(
            (res.stats.edges_scanned, res.stats.pairs_visited),
            (0, 0),
            "statically empty query must not touch the graph at depth {depth}"
        );
        assert!(
            !plan.record.pruned_symbols.is_empty(),
            "ghost must be pruned"
        );
        let batch = planned.run(&ghost_query, &graph, &EvalRequest::sources(vec![w.source]));
        assert_eq!(
            (batch.stats.edges_scanned, batch.stats.pairs_visited),
            (0, 0),
            "statically empty batch must not touch the graph"
        );
        // The plain engine pays a real traversal for the same answer.
        let plain = ProductEngine.eval(&ghost_query, &graph, w.source);
        assert!(plain.answers.is_empty());

        // Acceptance 2: the dead arm is trimmed and answers are unchanged.
        let tplan = planned.plan(&trimmed_query, &graph);
        assert!(
            tplan.record.states_trimmed > 0,
            "dead `ghost.hot*` arm must trim NFA states at depth {depth}"
        );
        let tres = planned.eval(&trimmed_query, &graph, w.source);
        let tref = ProductEngine.eval(&trimmed_query, &graph, w.source);
        assert_eq!(tres.answers, tref.answers, "trimmed plan diverged");

        group.bench_with_input(
            BenchmarkId::new("empty_on_alphabet_planned", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    black_box(
                        planned
                            .eval(&ghost_query, &graph, black_box(w.source))
                            .answers
                            .len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("empty_on_alphabet_plain", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    black_box(
                        ProductEngine
                            .eval(&ghost_query, &graph, black_box(w.source))
                            .answers
                            .len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("trimmed_nfa_planned", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    black_box(
                        planned
                            .eval(&trimmed_query, &graph, black_box(w.source))
                            .answers
                            .len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("trimmed_nfa_plain", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    black_box(
                        ProductEngine
                            .eval(&trimmed_query, &graph, black_box(w.source))
                            .answers
                            .len(),
                    )
                })
            },
        );
    }

    // Acceptance 3: the cached-site rewrite certifies and the certified
    // plan answers exactly like the plain engine.
    for &depth in &[32usize, 128] {
        let w = distributed_workload(depth);
        let query = Query::new(w.query.clone(), &w.alphabet);
        let graph = CsrGraph::from(&w.instance);
        let planned = PlannedEngine::new(ProductEngine, w.constraints.clone(), w.alphabet.clone());
        let plan = planned.plan(&query, &graph);
        assert_eq!(
            (
                plan.record.rewrites_certified,
                plan.record.rewrites_rejected
            ),
            (1, 0),
            "cache-substitution rewrite must certify at depth {depth}"
        );
        let res = planned.eval(&query, &graph, w.source);
        let plain = ProductEngine.eval(&query, &graph, w.source);
        assert_eq!(res.answers, plain.answers, "certified rewrite diverged");

        group.bench_with_input(
            BenchmarkId::new("certified_rewrite_planned", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    black_box(
                        planned
                            .eval(&query, &graph, black_box(w.source))
                            .answers
                            .len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("certified_rewrite_plain", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    black_box(
                        ProductEngine
                            .eval(&query, &graph, black_box(w.source))
                            .answers
                            .len(),
                    )
                })
            },
        );
    }

    // Acceptance 5 under a regex cache: Example 3's claim is no one-step
    // rewrite, so the closure test decides it, and certification runs its
    // two inclusion tests against the closures that built, building none.
    {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
        let q = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
        let mut inst = Instance::new();
        let o = inst.add_node();
        for s in ab.symbols() {
            inst.add_edge(o, s, o);
        }
        let record = optimize_and_analyze(&set, &q, &ab, inst.stats()).record;
        assert!(record.applied.is_some(), "Example 3 rewrites to l.a.c");
        assert_eq!(
            (
                record.claims_proved,
                record.certify_closure_builds,
                record.certify_inclusions
            ),
            (1, 0, 2),
            "Example 3's regex cache"
        );
    }

    // The cold planner in isolation (`optimizer.plan_us` of `bench_e2e`'s
    // `plan-cold`): a new engine per pass, so every plan misses the memo.
    let w = cold_plan_workload();
    let graph = CsrGraph::from(&w.instance);
    for ((name, _), counts) in COLD_PLAN_BUFFERS.into_iter().zip(&counts) {
        let texts = class(&w, name);
        // Acceptance 4: a cold plan's search builds no automaton. Every
        // cache is dropped on the regexes before its probe: a body no
        // word of the text begins with by the first-label gate, a one-word
        // body that a leading label of the text contradicts (`f0.f1` under
        // `f0.f2.f3`) by the word gate, and a cached text's own body has
        // its tail read off the tree. Scoring a candidate builds none —
        // the cost models read the regex, and `thompson_builds` counts the
        // scored candidates' builds too. The planned automaton is built
        // once, by the analysis, and is trim as built, so the analysis
        // trims nothing. No
        // subset construction runs: no regex of these finite languages is
        // smaller than the text (the simplifier's count), and a cached
        // text's cover is the text itself, so it has no remainder to take.
        //
        // Acceptance 5: a cold plan proves its claim once — the view
        // search's one candidate, `u·t = l·t`, one rewrite step each way —
        // and builds no closure for it, nor does certification, which goes
        // through the same method.
        for q in texts.iter() {
            let record = optimize_and_analyze(&w.constraints, q, &w.alphabet, graph.stats()).record;
            assert_eq!(record.thompson_builds, 0, "{name}: {q:?}");
            assert_eq!(record.trims, 0, "{name}: {q:?}");
            assert_eq!(record.determinizations, 0, "{name}: {q:?}");
            assert_eq!(record.applied.is_some(), name == "cached", "{name}: {q:?}");
            let work = (
                record.claims_proved,
                record.closure_builds,
                record.certify_closure_builds,
                record.certify_inclusions,
            );
            match name {
                "cached" => {
                    assert_eq!(record.considered, 1, "{name}: {q:?}");
                    assert_eq!(work, (1, 0, 0, 0), "{name}: {q:?}");
                    let views = rewrite_with_views(&w.constraints, q, &w.alphabet);
                    assert_eq!(
                        views.iter().map(|v| v.proof).collect::<Vec<_>>(),
                        ["one-step"],
                        "{name}: {q:?}"
                    );
                }
                "uncached" => assert_eq!(work, (0, 0, 0, 0), "{name}: {q:?}"),
                _ => {}
            }
        }
        let queries: Vec<Query> = texts
            .iter()
            .map(|q| Query::new(q.clone(), &w.alphabet))
            .collect();
        group.bench_counted(BenchmarkId::new("cold_plan", name), counts, |b| {
            b.iter(|| {
                let engine =
                    PlannedEngine::new(ProductEngine, w.constraints.clone(), w.alphabet.clone());
                for q in &queries {
                    black_box(engine.plan(q, &graph));
                }
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
