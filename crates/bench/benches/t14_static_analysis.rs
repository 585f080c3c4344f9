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
//!   plan builds one Thompson automaton of its query and runs at most one
//!   subset construction of it (`Optimized::thompson_builds` /
//!   `determinizations`), and none at all for a word no cache body
//!   prefixes.
//! * **Prove once** — on the same shapes a rewritten cold plan decides its
//!   one claim once (`Optimized::claims_proved == 1`: the view search
//!   takes over the cache family's proof of the identical candidate),
//!   builds two `RewriteTo` closures (`closure_builds == 2`), and its
//!   certification runs both inclusion tests against them without
//!   building any (`Analysis::certify_closure_builds == 0`,
//!   `certify_inclusions == 2`); a text no cache prefixes decides nothing
//!   and builds nothing. Example 3's text under its regex cache
//!   `l = (a.b)*` certifies without a build too: every claim is decided by
//!   the two inclusion tests certification runs.
//! * **Allocate per artefact, not per subset** — on the same shapes a
//!   warm `optimize_and_analyze` asks the allocator for at most
//!   [`COLD_PLAN_BUFFERS`] buffers per text of each class (counted by this
//!   binary's `#[global_allocator]`: 61 / 744–943 / 162–163). The subset
//!   constructions, inclusion tests, Moore rounds and closure saturations
//!   of a plan intern their state sets in one arena per construction; a
//!   `Vec` per subset state, as before, took 65 / 1 461–1 842 / 224. And a
//!   rewritten text's certifying inclusion test over the text repeated
//!   [`REPEATS`] times — that many times the pairs — asks for at most
//!   [`REPEAT_SLACK`] more buffers than over the text itself (12 → 33; a
//!   `Vec` per pair took 41 → 701, and one cloned set per antichain node
//!   16 → 130).
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
use rpq_bench::{cold_plan_workload, distributed_workload, skewed_workload};
use rpq_constraints::{Closures, ConstraintSet};
use rpq_core::{Engine, EvalRequest, ProductEngine, Query};
use rpq_graph::{CsrGraph, Instance};
use rpq_optimizer::{optimize_and_analyze, PlannedEngine};

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
/// asks for, per class of `plan-cold` text.
const COLD_PLAN_BUFFERS: [(&str, usize); 3] =
    [("uncached", 72), ("cached", 1_100), ("union_tail", 180)];

/// How many times acceptance 6 repeats a rewritten text to multiply the
/// pairs its certifying inclusion test visits.
const REPEATS: usize = 32;

/// How many more buffers acceptance 6 lets the inclusion test over the
/// repeated text ask for than the one over the text itself: the growth of
/// its few buffers, never one per pair.
const REPEAT_SLACK: usize = 48;

/// Acceptance 6, run first, while this is the only thread that allocates:
/// every text of each class is planned once to warm the set's compiled
/// artefacts, then once more under the counter.
fn cold_plan_allocation_gate() {
    let w = cold_plan_workload();
    let graph = CsrGraph::from(&w.instance);
    let plan = |q| optimize_and_analyze(&w.constraints, q, &w.alphabet, graph.stats());
    for (name, bound) in COLD_PLAN_BUFFERS {
        let texts = match name {
            "uncached" => &w.uncached,
            "cached" => &w.cached,
            _ => &w.union_tail,
        };
        for q in texts.iter() {
            black_box(plan(q));
        }
        let counts: Vec<usize> = texts
            .iter()
            .map(|q| {
                let before = BUFFERS.load(Ordering::Relaxed);
                black_box(plan(q));
                BUFFERS.load(Ordering::Relaxed) - before
            })
            .collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        println!(
            "t14 cold-plan allocations, {name}: {min}–{max} buffers per plan \
             (mean {mean:.1}, {} texts, bound {bound})",
            counts.len()
        );
        assert!(
            *max <= bound,
            "a cold {name} plan asked for {max} buffers (bound {bound}) — subset \
             states must be interned in the construction's arena, not allocated \
             one by one"
        );
    }
    // The certifying inclusion test of a rewritten text, `L(q) ⊆
    // L(closure(r))`, against a closure already built, with `q` followed
    // by `k - 1` more copies of itself on both sides (a rewrite applies to
    // a prefix, so `q^k → r·q^(k-1)`): `k` times the pairs, the same arena.
    let q = &w.cached[0];
    let r = plan(q).0.query;
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
}

fn bench(c: &mut Criterion) {
    cold_plan_allocation_gate();

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
            plan.facts.statically_empty,
            "ghost-crossing query must be statically empty at depth {depth}"
        );
        let res = planned.eval(&ghost_query, &graph, w.source);
        assert!(res.answers.is_empty(), "statically empty query answered");
        assert_eq!(
            (res.stats.edges_scanned, res.stats.pairs_visited),
            (0, 0),
            "statically empty query must not touch the graph at depth {depth}"
        );
        assert!(res.stats.symbols_pruned >= 1, "ghost must be pruned");
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
            tplan.facts.states_trimmed > 0,
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
            (plan.facts.rewrites_certified, plan.facts.rewrites_rejected),
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

    // Acceptance 5 under a regex cache: Example 3's claim is decided by
    // the inclusion tests certification runs, so certification builds no
    // closure here either.
    {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
        let q = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
        let mut inst = Instance::new();
        let o = inst.add_node();
        for s in ab.symbols() {
            inst.add_edge(o, s, o);
        }
        let (opt, analysis) = optimize_and_analyze(&set, &q, &ab, inst.stats());
        assert!(opt.improved(), "Example 3 rewrites to l.a.c");
        assert_eq!(
            (
                opt.claims_proved,
                analysis.certify_closure_builds,
                analysis.certify_inclusions
            ),
            (1, 0, 2),
            "Example 3's regex cache"
        );
    }

    // The cold planner in isolation (`optimizer.plan_us` of `bench_e2e`'s
    // `plan-cold`): a new engine per pass, so every plan misses the memo.
    let w = cold_plan_workload();
    let graph = CsrGraph::from(&w.instance);
    for (name, texts) in [
        ("uncached", &w.uncached),
        ("cached", &w.cached),
        ("union_tail", &w.union_tail),
    ] {
        // Acceptance 4: a cold plan compiles its query once. One Thompson
        // automaton serves the cost models and every rewrite family; the
        // subset construction runs at most once, and not at all for a word
        // no cache body prefixes (the view search is gated out and a word
        // is its own minimal-DFA regex).
        //
        // Acceptance 5: a cold plan proves its claim once and builds each
        // closure once — certification reads the two its decision built.
        for q in texts.iter() {
            let (opt, analysis) =
                optimize_and_analyze(&w.constraints, q, &w.alphabet, graph.stats());
            assert_eq!(opt.thompson_builds, 1, "{name}: {q:?}");
            assert_eq!(
                opt.determinizations,
                usize::from(name != "uncached"),
                "{name}: {q:?}"
            );
            assert_eq!(opt.improved(), name == "cached", "{name}: {q:?}");
            let work = (
                opt.claims_proved,
                opt.closure_builds,
                analysis.certify_closure_builds,
                analysis.certify_inclusions,
            );
            match name {
                "cached" => assert_eq!(work, (1, 2, 0, 2), "{name}: {q:?}"),
                "uncached" => assert_eq!(work, (0, 0, 0, 0), "{name}: {q:?}"),
                _ => {}
            }
        }
        let queries: Vec<Query> = texts
            .iter()
            .map(|q| Query::new(q.clone(), &w.alphabet))
            .collect();
        group.bench_function(BenchmarkId::new("cold_plan", name), |b| {
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
