//! Golden work counters: "bit-identical" made executable.
//!
//! Every request shape × control is driven through the three entry points
//! the serving path uses — `PlannedEngine::run_view`, `Engine::run` on
//! `ProductEngine`, and `execute_join` — over seeded graphs (flat CSR
//! snapshots and post-delta `DeltaGraph` overlays), and the answers hash,
//! `termination`, `edges_scanned`, `pairs_visited`, `push_levels`,
//! `pull_levels`, `frontier_peak`, `threads_used`, `parallel_levels` and
//! `rows_resolved` of each run are compared with
//! `tests/fixtures/kernel_golden.txt` (`pull_levels` reads 0 since every
//! level is one push sweep, `threads_used` and `parallel_levels` since no
//! level fans out; the columns stay, so lines written before that compare
//! as they are). Only the pool-dependent `scratch_reused` is left out.
//! A fixture line is `<key> <control> <record>`.
//!
//! A kernel refactor that moves any counter on any request fails here.
//! Regenerate (only when a counter is *meant* to move) with
//! `KERNEL_GOLDEN_BLESS=1 cargo test --test kernel_golden`. A bless cannot
//! hide a regression: it compares the new lines with the committed ones
//! first and refuses to write if an answers hash changed on a run no budget
//! stopped, or if `edges_scanned`, `pairs_visited` or a level count *rose*
//! anywhere but on a tripped budget (whose tripping row depends on the
//! order within a level) or an early-exit pair; otherwise it prints how
//! many lines moved, per column and per kind of line, names the lines that
//! moved, and writes. (A join line hashes each atom's `edges_scanned` with
//! its bindings, so its hash may move where its `edges_scanned` fell; its
//! bindings are held against `execute_naive` as the lines are generated.)
//!
//! Two rules are checked on the generated lines themselves, fixture or no
//! fixture: a control that never binds changes nothing, so wherever a key
//! has both a `none` line (no control) and a `full` line (a budget that is
//! never reached), the two are equal; and an uncontrolled join binds what
//! the naive oracle binds.

use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{Alphabet, Symbol};
use rpq::core::{
    Answers, Engine, EvalControl, EvalRequest, EvalResponse, EvalScratch, EvalStats, ProductEngine,
    Query, SourceSpec, Termination,
};
use rpq::graph::{CsrGraph, DeltaGraph, GraphView, Instance, Oid};
use rpq::optimizer::{
    execute_join, execute_naive, parse_crpq, plan_join, HeadBindings, PlannedEngine, PlannerConfig,
};
use rpq_testkit::generators::random_graph;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/kernel_golden.txt"
);

/// ε-accepting, finite (depth-capped by the planner), closure, and
/// union-heavy queries over the labels `a`, `b`, `c`.
const QUERIES: [&str; 12] = [
    "()",
    "a*",
    "a",
    "a.b",
    "a.(b+c).a",
    "(a+b).(a+b).(a+b)",
    "a.b*",
    "(a.b)*",
    "(a+b+c)*",
    "(a.b+c)*.a",
    "(a+b).(b+c)*.(a+c)",
    "(a.b.c+b.a+c.c+a.c)*",
];

/// Run on the mid graph: fifteen labeled transitions each, over a graph
/// with twelve edges a node. One closure, one finite language of five
/// letters, one mixed.
const MID_QUERIES: [&str; 3] = [
    "(a.b.c.a.b.c+a.c.b+b.a.c+c.c.a)*",
    "(a+b+c).(a+b+c).(a+b+c).(a+b+c).(a+b+c)",
    "(a.b+c)*.(a+b+c).(a+b+c).(a.b.c+b.a+c)*",
];

/// Run on the big graph, where levels are wide.
const BIG_QUERIES: [&str; 3] = [
    "(a+b+c)*",
    "(a.b.c+a.c+b.a+c.b)*",
    "(a+b).(a+b).(a+b).(a+c)",
];

/// The last two name `d`, a label with no edge: the join's atom plans
/// prune it from `a.(b+d)` and decide `b.d` empty, which empties the join
/// without a scan.
const CRPQS: [&str; 5] = [
    "ans(x, z) :- x -[a]-> y, y -[b*]-> z",
    "ans(x, w) :- x -[(a+b)*]-> y, y -[c]-> z, z -[a+b]-> w",
    "ans(x, y) :- x -[a.b]-> y, y -[(b+c)*]-> x",
    "ans(x, z) :- x -[a.(b+d)]-> y, y -[c*]-> z",
    "ans(x, z) :- x -[a]-> y, y -[b.d]-> z",
];

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn hash_oids(h: &mut u64, oids: &[Oid]) {
    fnv(h, oids.len() as u64);
    for o in oids {
        fnv(h, u64::from(o.0));
    }
}

fn hash_pairs(h: &mut u64, pairs: &[(Oid, Oid)]) {
    fnv(h, pairs.len() as u64);
    for &(s, t) in pairs {
        fnv(h, u64::from(s.0));
        fnv(h, u64::from(t.0));
    }
}

fn hash_answers(answers: &Answers) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    match answers {
        Answers::Nodes(ns) => {
            fnv(&mut h, 1);
            hash_oids(&mut h, ns);
        }
        Answers::Batch(b) => {
            fnv(&mut h, 2);
            hash_oids(&mut h, b.union());
            for per in b.per_source().unwrap_or(&[]) {
                hash_oids(&mut h, per);
            }
        }
        Answers::Reachable(r) => {
            fnv(&mut h, 3);
            fnv(&mut h, u64::from(*r));
        }
        Answers::Matrix(m) => {
            fnv(&mut h, 4);
            for i in 0..m.sources().len() {
                for j in 0..m.targets().len() {
                    fnv(&mut h, u64::from(m.reachable(i, j)));
                }
            }
        }
        Answers::Bindings(bs) => {
            fnv(&mut h, 5);
            hash_pairs(&mut h, bs);
        }
    }
    h
}

fn term_char(t: Termination) -> char {
    match t {
        Termination::Complete => 'C',
        Termination::BudgetExhausted => 'B',
        Termination::Cancelled => 'X',
    }
}

fn record(hash: u64, term: Termination, s: &EvalStats) -> String {
    format!(
        "{hash:016x},{},{},{},{},{},{},{},{},{}",
        term_char(term),
        s.edges_scanned,
        s.pairs_visited,
        s.push_levels,
        s.pull_levels,
        s.frontier_peak,
        s.threads_used,
        s.parallel_levels,
        s.rows_resolved
    )
}

/// The counters of a record, in the order [`record`] writes them after the
/// answers hash and the termination. The first four must not rise.
const COLUMNS: [&str; 8] = [
    "edges_scanned",
    "pairs_visited",
    "push_levels",
    "pull_levels",
    "frontier_peak",
    "threads_used",
    "parallel_levels",
    "rows_resolved",
];
const MUST_NOT_RISE: usize = 4;

fn record_response(resp: &EvalResponse) -> String {
    record(hash_answers(&resp.answers), resp.termination, &resp.stats)
}

/// One fixture line: the key, the control, the record.
fn emit(out: &mut String, key: &str, record: &str) {
    let _ = writeln!(out, "{key} {record}");
}

fn seeded(seed: u64, nodes: usize, edges: usize) -> (Alphabet, Instance) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (inst, _) = random_graph(&mut rng, nodes, edges, &syms);
    (ab, inst)
}

/// A post-delta epoch: a handful of inserts and deletes over the frozen
/// base, so the overlay adjacency (not just the flat CSR) is on record.
fn post_delta(inst: &Instance, ab: &Alphabet) -> DeltaGraph {
    let mut dg = DeltaGraph::from_instance(inst);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let n = dg.num_nodes() as u32;
    for i in 0..8u32 {
        dg.add_edge(Oid(i * 5 % n), syms[i as usize % 3], Oid((i * 11 + 3) % n));
    }
    let doomed: Vec<(Oid, Symbol, Oid)> = dg.edges().step_by(17).take(6).collect();
    for (f, l, t) in doomed {
        dg.delete_edge(f, l, t);
    }
    dg
}

fn picks(n: usize, count: usize, stride: usize, offset: usize) -> Vec<Oid> {
    (0..count)
        .map(|i| Oid(((i * stride + offset) % n) as u32))
        .collect()
}

/// Every `SourceSpec` shape over an `n`-node graph with `many` seeds per
/// multi-seed shape; `free_conj` adds the all-free conjunctive form (every
/// candidate node seeds a search — kept off the big graphs).
fn shapes(n: usize, many: usize, free_conj: bool) -> Vec<(&'static str, SourceSpec)> {
    let srcs = picks(n, many, 7, 0);
    let tgts = picks(n, many, 5, 2);
    let few_s = picks(n, 9, 3, 1);
    let few_t = picks(n, 6, 11, 4);
    let mut v = vec![
        ("source", SourceSpec::Source(Oid(0))),
        ("target", SourceSpec::Target(Oid((n / 2) as u32))),
        ("sources", SourceSpec::Sources(srcs.clone())),
        ("targets", SourceSpec::Targets(tgts.clone())),
        (
            "pair",
            SourceSpec::Pair {
                source: Oid(0),
                target: Oid((n / 3) as u32),
            },
        ),
        (
            "pair-self",
            SourceSpec::Pair {
                source: Oid(1),
                target: Oid(1),
            },
        ),
        (
            "matrix",
            SourceSpec::Matrix {
                sources: few_s.clone(),
                targets: few_t.clone(),
            },
        ),
        (
            "conj-s",
            SourceSpec::Conjunctive {
                sources: Some(srcs),
                targets: None,
            },
        ),
        (
            "conj-t",
            SourceSpec::Conjunctive {
                sources: None,
                targets: Some(tgts),
            },
        ),
        (
            "conj-st",
            SourceSpec::Conjunctive {
                sources: Some(few_s),
                targets: Some(few_t),
            },
        ),
    ];
    if free_conj {
        v.push((
            "conj-free",
            SourceSpec::Conjunctive {
                sources: None,
                targets: None,
            },
        ));
    }
    v
}

const UNREACHABLE_BUDGET: usize = usize::MAX >> 2;

/// Which controlled runs a sweep records beside `none` and `cancel`.
#[derive(Copy, Clone, PartialEq)]
enum Budgets {
    /// None (the big graph: budgeted runs there would add more test time
    /// than coverage).
    Off,
    /// 25 % and 50 % of the uncontrolled run's `edges_scanned`.
    Quarters,
    /// `Quarters`, plus the controlled path run to completion.
    QuartersAndFull,
}

/// Run one (runner, spec) under every control and append the fixture
/// lines.
fn sweep_controls(
    out: &mut String,
    key: &str,
    spec: &SourceSpec,
    budgets: Budgets,
    run: &mut dyn FnMut(&EvalRequest) -> EvalResponse,
) {
    let base = || EvalRequest::new(spec.clone());

    let free = run(&base());
    assert_eq!(free.termination, Termination::Complete, "{key}");
    emit(out, &format!("{key} none"), &record_response(&free));

    let flag = Arc::new(AtomicBool::new(true));
    let cancelled = run(&base().with_cancel(flag));
    emit(out, &format!("{key} cancel"), &record_response(&cancelled));

    if budgets == Budgets::QuartersAndFull {
        let r = run(&base().with_budget(UNREACHABLE_BUDGET));
        assert_eq!(
            hash_answers(&r.answers),
            hash_answers(&free.answers),
            "{key}: a never-binding budget changed the answers"
        );
        emit(out, &format!("{key} full"), &record_response(&r));
    }
    if budgets == Budgets::Off {
        return;
    }
    for (name, num) in [("b25", 1usize), ("b50", 2)] {
        let budget = free.stats.edges_scanned * num / 4;
        let r = run(&base().with_budget(budget));
        assert!(r.stats.edges_scanned <= budget, "{key} {name}: over budget");
        emit(out, &format!("{key} {name}"), &record_response(&r));
    }
}

/// `PlannedEngine::run_view` over one graph: one engine per query, so its
/// plan memo and scratch pool serve every shape and control.
fn sweep_planned<G: GraphView>(
    out: &mut String,
    gname: &str,
    ab: &Alphabet,
    graph: &G,
    queries: &[&str],
    specs: &[(&'static str, SourceSpec)],
    budgets: Budgets,
) {
    for qs in queries {
        let mut qab = ab.clone();
        let query = Query::parse(&mut qab, qs).unwrap();
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        for (sname, spec) in specs {
            let key = format!("planned {gname} [{qs}] {sname}");
            sweep_controls(out, &key, spec, budgets, &mut |req| {
                planned.run_view(&query, graph, req)
            });
        }
    }
}

fn sweep_product(
    out: &mut String,
    gname: &str,
    ab: &Alphabet,
    graph: &CsrGraph,
    specs: &[(&'static str, SourceSpec)],
) {
    for qs in QUERIES {
        let mut qab = ab.clone();
        let query = Query::parse(&mut qab, qs).unwrap();
        for (sname, spec) in specs {
            let key = format!("product {gname} [{qs}] {sname}");
            sweep_controls(out, &key, spec, Budgets::QuartersAndFull, &mut |req| {
                ProductEngine.run(&query, graph, req)
            });
        }
    }
}

/// `execute_join` over one graph: five CRPQs × free / source-bound (70
/// picks over 48 nodes: every head oid repeats) / both-bound heads.
fn sweep_join<G: GraphView>(out: &mut String, gname: &str, ab: &Alphabet, graph: &G) {
    let n = graph.num_nodes();
    let srcs = picks(n, 70, 7, 0);
    let few_s = picks(n, 9, 3, 1);
    let few_t = picks(n, 6, 11, 4);
    let heads: [(&str, HeadBindings<'_>); 3] = [
        ("free", HeadBindings::default()),
        (
            "src",
            HeadBindings {
                sources: Some(&srcs),
                targets: None,
            },
        ),
        (
            "both",
            HeadBindings {
                sources: Some(&few_s),
                targets: Some(&few_t),
            },
        ),
    ];
    for text in CRPQS {
        let mut qab = ab.clone();
        let crpq = parse_crpq(&mut qab, text).unwrap();
        for (hname, head) in heads {
            let plan = plan_join(
                &crpq,
                graph.stats(),
                &PlannerConfig::default(),
                head.sources.is_some(),
                head.targets.is_some(),
            );
            let key = format!("join {gname} [{text}] {hname}");
            let run = |control: &EvalControl<'_>| {
                let mut scratch = EvalScratch::new();
                let res = execute_join(&crpq, &plan, graph, head, control, &mut scratch);
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                hash_pairs(&mut h, &res.pairs);
                for a in &res.stats.atoms {
                    fnv(&mut h, a.atom as u64);
                    fnv(&mut h, a.edges_scanned as u64);
                    fnv(&mut h, a.bindings as u64);
                }
                (record(h, res.termination, &res.stats), res)
            };
            let budgeted = |budget: usize| EvalControl {
                budget: Some(budget),
                cancel: None,
            };
            let flag = AtomicBool::new(true);
            let cancel = EvalControl {
                budget: None,
                cancel: Some(&flag),
            };
            let (naive, _) = execute_naive(&crpq, graph, head);
            let (none, free) = run(&EvalControl::UNLIMITED);
            assert_eq!(
                free.pairs, naive,
                "{key}: bindings differ from execute_naive"
            );
            emit(out, &format!("{key} none"), &none);
            emit(out, &format!("{key} cancel"), &run(&cancel).0);
            emit(
                out,
                &format!("{key} full"),
                &run(&budgeted(UNREACHABLE_BUDGET)).0,
            );
            for (name, num) in [("b25", 1), ("b50", 2)] {
                let budget = free.stats.edges_scanned * num / 4;
                let (rec, res) = run(&budgeted(budget));
                assert!(res.stats.edges_scanned <= budget, "{key}: over budget");
                emit(out, &format!("{key} {name}"), &rec);
            }
        }
    }
}

/// Small graphs: every query × every shape × every control.
fn small_sections() -> String {
    let mut out = String::new();
    let (ab, inst) = seeded(7, 48, 190);
    let csr = CsrGraph::from(&inst);
    let delta = post_delta(&inst, &ab);
    let small = shapes(48, 66, true);
    let all = Budgets::QuartersAndFull;
    sweep_planned(&mut out, "small-csr", &ab, &csr, &QUERIES, &small, all);
    sweep_planned(&mut out, "small-delta", &ab, &delta, &QUERIES, &small, all);
    sweep_product(&mut out, "small-csr", &ab, &csr, &small);
    sweep_join(&mut out, "small-csr", &ab, &csr);
    sweep_join(&mut out, "small-delta", &ab, &delta);
    out
}

/// Mid overlay: many-transition automata over enough label mass that
/// levels are priced, budgets included.
fn mid_section() -> String {
    let mut out = String::new();
    let (ab, inst) = seeded(11, 300, 3600);
    let delta = post_delta(&inst, &ab);
    let mid = shapes(300, 66, false);
    let quarters = Budgets::Quarters;
    sweep_planned(
        &mut out,
        "mid-delta",
        &ab,
        &delta,
        &MID_QUERIES,
        &mid,
        quarters,
    );
    out
}

/// Big snapshot: wide levels. Few seeds per multi-item shape — answer
/// volume, not the kernel, would dominate.
fn big_section() -> String {
    let mut out = String::new();
    let (ab, inst) = seeded(13, 4000, 36000);
    let csr = CsrGraph::from(&inst);
    let big = shapes(4000, 3, false);
    sweep_planned(
        &mut out,
        "big-csr",
        &ab,
        &csr,
        &BIG_QUERIES,
        &big,
        Budgets::Off,
    );
    out
}

/// The fixture text. The sections share nothing (each builds its graphs
/// and engines), so they are generated side by side and concatenated in
/// fixture order.
fn generate() -> String {
    std::thread::scope(|s| {
        let sections = [
            s.spawn(small_sections),
            s.spawn(mid_section),
            s.spawn(big_section),
        ];
        let done = sections.map(|h| h.join().expect("section panicked"));
        done.concat()
    })
}

/// `(key, control, record)` of one fixture line: the record is the last
/// word, the control the word before it.
fn split_line(line: &str) -> (&str, &str, &str) {
    let (rest, record) = line.rsplit_once(' ').expect("a record");
    let (key, control) = rest.rsplit_once(' ').expect("key, then control");
    (key, control, record)
}

/// What kind of line a record belongs to, for the bless rules: `tripped`
/// (a budget stopped either side), `pair` (an early-exit pair), `plain`.
fn kind_of(key: &str, old: &[&str], new: &[&str]) -> &'static str {
    if old[1] == "B" || new[1] == "B" {
        "tripped"
    } else if key.ends_with(" pair") || key.ends_with(" pair-self") {
        "pair"
    } else {
        "plain"
    }
}

/// Compare a regenerated fixture with the committed one, line by line (see
/// the module docs for the rules). `Ok` is the summary
/// of what moved, `Err` the lines that forbid the bless.
fn bless_report(committed: &str, regenerated: &str) -> Result<String, String> {
    use std::collections::BTreeMap;
    let old_lines: BTreeMap<(&str, &str), &str> = committed
        .lines()
        .map(|l| {
            let (key, control, rec) = split_line(l);
            ((key, control), rec)
        })
        .collect();
    let mut moved: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut moved_lines: Vec<String> = Vec::new();
    let mut refusals: Vec<String> = Vec::new();
    let (mut fresh, mut same) = (0usize, 0usize);
    for line in regenerated.lines() {
        let (key, control, rec) = split_line(line);
        let Some(old_rec) = old_lines.get(&(key, control)) else {
            fresh += 1;
            continue;
        };
        let mut line_moved: Vec<(&str, &str)> = Vec::new();
        let (old, new): (Vec<&str>, Vec<&str>) =
            (old_rec.split(',').collect(), rec.split(',').collect());
        let kind = kind_of(key, &old, &new);
        // A join line's hash mixes in each atom's work.
        let edges = |r: &[&str]| r[2].parse::<u64>().expect("count");
        let join_work_fell = key.starts_with("join ") && edges(&new) < edges(&old);
        if old[0] != new[0] {
            line_moved.push(("answers", kind));
            if kind != "tripped" && !join_work_fell {
                refusals.push(format!("{key} {control}: answers hash changed"));
            }
        }
        if old[1] != new[1] {
            line_moved.push(("termination", kind));
        }
        // A fixture from before a column existed has nothing to compare.
        for (i, (o, n)) in old[2..].iter().zip(&new[2..]).enumerate() {
            let (o, n): (u64, u64) = (o.parse().expect("count"), n.parse().expect("count"));
            if o != n {
                line_moved.push((COLUMNS[i], kind));
                if n > o && i < MUST_NOT_RISE && kind == "plain" {
                    refusals.push(format!("{key} {control}: {} rose {o} -> {n}", COLUMNS[i]));
                }
            }
        }
        same += usize::from(line_moved.is_empty());
        if !line_moved.is_empty() {
            moved_lines.push(format!("{key} {control}"));
        }
        for m in line_moved {
            *moved.entry(m).or_default() += 1;
        }
    }
    if !refusals.is_empty() {
        refusals.truncate(20);
        return Err(refusals.join("\n"));
    }
    let mut summary = format!(
        "kernel_golden bless: {} lines, {same} unchanged, {fresh} new; lines moved per column and kind:",
        regenerated.lines().count()
    );
    for ((column, kind), lines) in moved {
        let _ = write!(summary, "\n  {column:<16} {kind:<8} {lines}");
    }
    const NAMED: usize = 40;
    if !moved_lines.is_empty() {
        let _ = write!(summary, "\nlines moved:");
        for line in moved_lines.iter().take(NAMED) {
            let _ = write!(summary, "\n  {line}");
        }
        if moved_lines.len() > NAMED {
            let _ = write!(summary, "\n  … and {} more", moved_lines.len() - NAMED);
        }
    }
    Ok(summary)
}

#[test]
fn bless_refuses_regressions_and_counts_what_moved() {
    let old = "k [q] source none aa,C,10,5,2,0,3,0,0\n\
               k [q] source b50 aa,B,5,3,1,0,3,0,0\n\
               k [q] pair none bb,C,10,4,2,0,3,0,0\n";
    // A new column alone moves nothing; a tripped budget and an early-exit
    // pair may move; a plain line may only go down.
    let fine = "k [q] source none aa,C,10,5,2,0,3,0,0,7\n\
                k [q] source b50 cc,B,4,4,1,0,3,0,0,2\n\
                k [q] pair none bb,C,10,5,2,0,3,0,0,7\n\
                k [q] target none dd,C,1,1,1,0,1,0,0,1\n";
    let summary = bless_report(old, fine).expect("nothing here is a regression");
    assert!(summary.contains("4 lines, 1 unchanged, 1 new"), "{summary}");
    assert!(summary.contains("pairs_visited    pair     1"), "{summary}");
    assert!(summary.contains("answers          tripped  1"), "{summary}");
    assert!(
        summary.contains("lines moved:\n  k [q] source b50\n  k [q] pair none"),
        "{summary}"
    );
    for (bad, why) in [
        (
            "k [q] source none aa,C,11,5,2,0,3,0,0,7\n",
            "edges_scanned rose 10 -> 11",
        ),
        (
            "k [q] source none aa,C,10,5,3,0,3,0,0,7\n",
            "push_levels rose 2 -> 3",
        ),
        (
            "k [q] source none ab,C,10,5,2,0,3,0,0,7\n",
            "answers hash changed",
        ),
        (
            "k [q] pair none bc,C,10,4,2,0,3,0,0,7\n",
            "answers hash changed",
        ),
        (
            "k [q] source none aa,C,10,6,2,0,3,0,0,7\n",
            "pairs_visited rose 5 -> 6",
        ),
    ] {
        let refusal = bless_report(old, bad).expect_err(why);
        assert!(refusal.contains(why), "{refusal}");
    }
    // fewer edges on a plain line is what an optimisation looks like
    assert!(bless_report(old, "k [q] source none aa,C,9,5,2,0,3,0,0,7\n").is_ok());
    // a join line's hash carries its atoms' work: it moves with fewer
    // edges, and not otherwise
    let join = "join g [q] src none aa,C,10,5,2,0,3,0,0,7\n";
    assert!(bless_report(join, "join g [q] src none ab,C,8,5,2,0,3,0,0,7\n").is_ok());
    let refusal = bless_report(join, "join g [q] src none ab,C,10,5,2,0,3,0,0,7\n")
        .expect_err("same work, other bindings");
    assert!(refusal.contains("answers hash changed"), "{refusal}");
}

#[test]
fn kernel_counters_match_the_golden_fixture() {
    let got = generate();
    let mut unbound: Vec<(&str, &str)> = Vec::new();
    for line in got.lines() {
        match split_line(line) {
            (key, "none", recs) => unbound.push((key, recs)),
            (key, "full", recs) => {
                let (nkey, none) = unbound.pop().expect("a `none` line before every `full`");
                assert_eq!(nkey, key);
                assert_eq!(none, recs, "{key}: a never-binding budget moved a counter");
            }
            _ => {}
        }
    }
    if std::env::var_os("KERNEL_GOLDEN_BLESS").is_some() {
        if let Ok(committed) = std::fs::read_to_string(FIXTURE) {
            match bless_report(&committed, &got) {
                Ok(summary) => eprintln!("{summary}"),
                Err(refusal) => panic!("bless refused, fixture left as it was:\n{refusal}"),
            }
        }
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("tests/fixtures/kernel_golden.txt");
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let diffs: Vec<String> = got_lines
        .iter()
        .zip(&want_lines)
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("line {}:\n  want {w}\n  got  {g}", i + 1))
        .collect();
    assert!(
        diffs.is_empty() && got_lines.len() == want_lines.len(),
        "{} of {} golden lines differ (got {} lines); first few:\n{}",
        diffs.len(),
        want_lines.len(),
        got_lines.len(),
        diffs[..diffs.len().min(8)].join("\n")
    );
}
