//! Golden cold plans: what the planner decides, pinned before it moves.
//!
//! One line per `(constraint set, query)`, read off one
//! `optimize_and_analyze` call — the cold plan a planned engine (and so
//! the server) builds — and its `PlanRecord`: the rewrite winner, the
//! rule that produced it, how many candidates were considered, and what
//! the analysis made of the winner (the planned regex, pruned symbols,
//! certification verdict, depth cap, NFA states).
//! Four corpora:
//!
//! * `bench` / `bench-perm` — the 396 `plan-cold` shapes of `bench_e2e`
//!   (every `x.y.z` and `x.y.(z+w)` over six roles) under its constraint
//!   shape `{c0 = a.b, c1 = c.d, c2 ⊆ b.c}` and its 13-label alphabet,
//!   once with the roles in label order and once permuted;
//! * `paper-*` — Examples 1–3 of the paper;
//! * `tests-*` — the constraint sets of `optimizer_integration.rs` and
//!   `constraints_soundness.rs`;
//! * `rand-*` — seeded random regexes against word / union / star cache
//!   sets, among them a cache whose body is `∅` and queries over a symbol
//!   interned after every constraint symbol.
//!
//! A planner refactor that changes any winner, count or fact fails here.
//! Regenerate (only when a plan is *meant* to move) with
//! `PLAN_GOLDEN_BLESS=1 cargo test --test plan_golden`; the bless compares
//! with the committed fixture first and refuses to write if a winner
//! changed to a query that `certify_rewrite` rejects.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{parse_regex, Alphabet, Regex, Symbol};
use rpq::constraints::ConstraintSet;
use rpq::graph::{Instance, LabelStats};
use rpq::optimizer::optimize_and_analyze;
use rpq_testkit::random::{random_regex, RegexGenConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/plan_golden.txt"
);

/// Edges per label, by symbol index: skewed, so the estimated cost ranks
/// equivalents the static score cannot separate.
const EDGE_COUNTS: [usize; 8] = [3, 1, 4, 1, 5, 9, 2, 6];

/// Label statistics over `alphabet`: `EDGE_COUNTS` by index, or `uniform`
/// edges for every label; labels named `ghost…` get no edge at all.
fn stats_for(alphabet: &Alphabet, uniform: Option<usize>) -> LabelStats {
    let mut inst = Instance::new();
    let nodes: Vec<_> = (0..10).map(|_| inst.add_node()).collect();
    for sym in alphabet.symbols() {
        if alphabet.name(sym).starts_with("ghost") {
            continue;
        }
        let n = uniform.unwrap_or(EDGE_COUNTS[sym.index() % EDGE_COUNTS.len()]);
        for i in 0..n {
            inst.add_edge(nodes[0], sym, nodes[i % nodes.len()]);
        }
    }
    inst.stats().clone()
}

fn render(q: &Regex, ab: &Alphabet) -> String {
    q.display(ab).to_string()
}

/// One golden line: `case | query => winner | facts`.
fn plan_line(
    case: &str,
    set: &ConstraintSet,
    ab: &Alphabet,
    stats: &LabelStats,
    q: &Regex,
) -> String {
    let analysis = optimize_and_analyze(set, q, ab, stats);
    let f = &analysis.record;
    let pruned: Vec<&str> = f.pruned_symbols.iter().map(|&s| ab.name(s)).collect();
    format!(
        "{case} | {} => {} | applied={} considered={} planned={} pruned=[{}] cert={} rej={} maxlen={} states={}",
        render(q, ab),
        render(f.winner.as_ref().unwrap_or(q), ab),
        f.applied.map_or("-".to_string(), |r| format!("{r:?}")),
        f.considered,
        render(&analysis.regex, ab),
        pruned.join(","),
        f.rewrites_certified,
        f.rewrites_rejected,
        f.max_word_len.map_or("-".to_string(), |n| n.to_string()),
        analysis.nfa.num_states(),
    )
}

/// The `plan-cold` schedule of `bench_e2e/src/sched.rs`, with `roles[i]`
/// the `f` label playing role `a + i`.
fn bench_corpus(out: &mut String, case: &str, roles: [usize; 6]) {
    let mut names: Vec<String> = (0..6).map(|i| format!("f{i}")).collect();
    names.extend((0..3).map(|i| format!("c{i}")));
    names.extend(["r", "p", "q", "t"].map(String::from));
    let mut ab = Alphabet::from_names(names.iter());
    let f = |role: usize| format!("f{}", roles[role]);
    let set = ConstraintSet::parse(
        &mut ab,
        [
            format!("c0 = {}.{}", f(0), f(1)),
            format!("c1 = {}.{}", f(2), f(3)),
            format!("c2 <= {}.{}", f(1), f(2)),
        ],
    )
    .unwrap();
    assert_eq!(ab.len(), 13, "the benchmark's world alphabet");
    // The navigation region gives every f and c label one edge per node.
    let stats = stats_for(&ab, Some(8));
    let arms = [(0, 4), (1, 5), (2, 4), (3, 5), (4, 5)];
    for x in 0..6 {
        for y in 0..6 {
            let mut texts: Vec<String> = (0..6)
                .map(|z| format!("{}.{}.{}", f(x), f(y), f(z)))
                .collect();
            texts.extend(
                arms.iter()
                    .map(|&(z, w)| format!("{}.{}.({}+{})", f(x), f(y), f(z), f(w))),
            );
            for text in texts {
                let q = parse_regex(&mut ab, &text).unwrap();
                writeln!(out, "{}", plan_line(case, &set, &ab, &stats, &q)).unwrap();
            }
        }
    }
}

/// Fixed `(constraint lines, queries)` cases: the paper's examples and the
/// sets the integration tests plan under. `ghost` has no edge.
const FIXED: [(&str, &[&str], &[&str]); 12] = [
    (
        "paper-ex1",
        &["(a+b+d+l)*.l = ()"],
        &["(l.a + l.b)*.d", "(a+b).d", "l.a.d", "l*.a"],
    ),
    (
        "paper-ex2-incl",
        &["l.l <= l"],
        &["l*", "l.l*", "l.l.l", "(l.l)*"],
    ),
    (
        "paper-ex2-eq",
        &["l.l = l"],
        &["l*", "l.l*", "l.l.l", "l* + ghost"],
    ),
    (
        "paper-ex3",
        &["l = (a.b)*"],
        &[
            "a.(b.a)*.c",
            "(a.b)*",
            "a.(b.a)*.b",
            "(a.b)*.a",
            "a.(b.a)*.c + d.e",
            "z.z",
            "a.(b.a)*.ghost + c",
        ],
    ),
    (
        "tests-cites",
        &["cites.cites = cites"],
        &["cites*", "cites.cites*", "cites.cites.cites"],
    ),
    (
        "tests-two-caches",
        &["l1 = (a.b)*", "l2 = (c.d)*"],
        &["a.(b.a)*.x + c.(d.c)*.y", "a.(b.a)*.x", "(c.d)*.c"],
    ),
    (
        "tests-mixed",
        &["l = (a.b)*", "m.m = m"],
        &["a.(b.a)*.c", "m*", "m.m.a"],
    ),
    ("tests-idem", &["a.a = a"], &["a*", "(a+b)*", "a.a.a + b"]),
    ("tests-cube", &["a.a.a = ()"], &["a*", "a.a.a.a", "(a.a)*"]),
    (
        "tests-absorb",
        &["b.a = a", "b.b = b"],
        &["b*.a", "b.b.a", "b*"],
    ),
    (
        "tests-union-body",
        &["a = b + c"],
        &["a.x", "b.x", "(b+c).x", "b.x + c.x"],
    ),
    (
        "tests-path-incl",
        &["a* <= a + ()"],
        &["a*", "a.a*", "a.a.a"],
    ),
];

fn fixed_corpus(out: &mut String) {
    for (case, lines, queries) in FIXED {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let qs: Vec<Regex> = queries
            .iter()
            .map(|t| parse_regex(&mut ab, t).unwrap())
            .collect();
        let stats = stats_for(&ab, None);
        for q in &qs {
            writeln!(out, "{}", plan_line(case, &set, &ab, &stats, q)).unwrap();
        }
    }
}

/// Cache-shaped sets for the random corpus; the base labels `a b c d` are
/// interned first, `z` after every constraint symbol.
const RANDOM_SETS: [(&str, &[&str]); 8] = [
    ("rand-word", &["l0 = a.b", "l1 = c.d", "l2 <= b.c"]),
    ("rand-word3", &["l0 = a.b.c", "l1 = a.a", "b.b <= b"]),
    ("rand-union", &["l0 = a.b + c", "l1 = (a+b).d"]),
    ("rand-star", &["l0 = (a.b)*", "l1 = c.d*"]),
    ("rand-star-word", &["l0 = a*.b", "l1 = b.c", "d.d <= d"]),
    ("rand-empty-body", &["l0 = []", "l1 = a.b"]),
    ("rand-eps-body", &["l0 = () + a.b", "l1 = a"]),
    ("rand-flipped", &["a.b = l0", "(c+d).a = l1"]),
];
const RANDOM_QUERIES_PER_SET: usize = 30;

fn random_corpus(out: &mut String) {
    for (i, (case, lines)) in RANDOM_SETS.iter().enumerate() {
        let mut ab = Alphabet::from_names(["a", "b", "c", "d"]);
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let z = ab.intern("z");
        assert!(set.symbols().iter().all(|s| s.index() < z.index()));
        let stats = stats_for(&ab, None);
        let base: Vec<Symbol> = "abcd"
            .chars()
            .map(|c| ab.get(&c.to_string()).unwrap())
            .collect();
        let mut with_z = base.clone();
        with_z.push(z);
        let mut rng = StdRng::seed_from_u64(0x901DE + i as u64);
        for k in 0..RANDOM_QUERIES_PER_SET {
            let mut cfg = RegexGenConfig::new(if k % 3 == 2 {
                with_z.clone()
            } else {
                base.clone()
            });
            // A `∅` body makes every tail `Σ*`: keep those queries small.
            cfg.max_depth = if case.contains("empty") { 2 } else { 3 };
            cfg.star_weight = 15;
            let mut q = random_regex(&mut rng, &cfg);
            if k % 3 == 1 {
                // Head the query with words of a cache body so that the
                // cache families have something to find.
                let heads = [
                    "a.b", "c.d", "a.b.c", "b.c", "a.a", "(a+b).d", "c + a.b", "a.a*.b",
                ];
                let head = parse_regex(&mut ab, heads[k / 3 % heads.len()]).unwrap();
                q = head.then(q);
            }
            writeln!(out, "{}", plan_line(case, &set, &ab, &stats, &q)).unwrap();
        }
    }
}

fn generate() -> String {
    let mut out = String::new();
    bench_corpus(&mut out, "bench", [0, 1, 2, 3, 4, 5]);
    bench_corpus(&mut out, "bench-perm", [3, 0, 5, 1, 4, 2]);
    fixed_corpus(&mut out);
    random_corpus(&mut out);
    out
}

/// `(case | query, winner, facts)` of a golden line.
fn split_line(line: &str) -> (&str, &str, &str) {
    let (key, rest) = line.split_once(" => ").expect("`=>` in a golden line");
    let (winner, facts) = rest.split_once(" | ").expect("facts in a golden line");
    (key, winner, facts)
}

/// The `name=value` facts of a golden line, in order; a token without `=`
/// continues the value before it (a rendered regex may hold spaces).
fn fields(facts: &str) -> Vec<(&str, String)> {
    let mut out: Vec<(&str, String)> = Vec::new();
    for token in facts.split(' ') {
        match (token.split_once('='), out.last_mut()) {
            (Some((name, value)), _) => out.push((name, value.to_string())),
            (None, Some((_, value))) => {
                value.push(' ');
                value.push_str(token);
            }
            (None, None) => {}
        }
    }
    out
}

/// What a bless would change, or why it must not: a winner that moved to a
/// query certification rejects is a planner bug, not a new golden. The
/// report counts moved winners, relabelled rules, lines where only counts
/// or facts changed (per fact) and new keys, and names every moved or
/// relabelled line.
fn bless_report(old: &str, new: &str) -> Result<String, String> {
    let committed: HashMap<&str, (&str, &str)> = old
        .lines()
        .map(split_line)
        .map(|(key, winner, facts)| (key, (winner, facts)))
        .collect();
    let (mut moved, mut relabelled, mut fresh) = (Vec::new(), Vec::new(), 0usize);
    let (mut facts_only, mut by_fact) = (0usize, BTreeMap::<&str, usize>::new());
    for line in new.lines() {
        let (key, winner, facts) = split_line(line);
        let Some(&(was, was_facts)) = committed.get(key) else {
            fresh += 1;
            continue;
        };
        let (now, before) = (fields(facts), fields(was_facts));
        let changed: Vec<&str> = now
            .iter()
            .zip(&before)
            .filter(|(n, b)| n != b)
            .map(|(n, _)| n.0)
            .collect();
        if was != winner {
            if now
                .iter()
                .any(|(name, value)| *name == "rej" && value != "0")
            {
                return Err(format!(
                    "winner moved to a query `certify_rewrite` rejects:\n  {line}\n  was {was}"
                ));
            }
            moved.push(format!(
                "  moved {key}\n    was {was} | {was_facts}\n    now {winner} | {facts}"
            ));
        } else if changed.contains(&"applied") {
            relabelled.push(format!(
                "  relabelled {key} => {winner}\n    was {was_facts}\n    now {facts}"
            ));
        } else if !changed.is_empty() {
            facts_only += 1;
            for name in changed {
                *by_fact.entry(name).or_default() += 1;
            }
        }
    }
    let by_fact: Vec<String> = by_fact
        .iter()
        .map(|(name, n)| format!("{name} on {n}"))
        .collect();
    let mut report = format!(
        "{} lines ({} committed): {} winners moved, {} rules relabelled, \
         {facts_only} lines with only counts or facts changed [{}], {fresh} new keys",
        new.lines().count(),
        old.lines().count(),
        moved.len(),
        relabelled.len(),
        by_fact.join(", "),
    );
    for line in moved.iter().chain(&relabelled) {
        report.push('\n');
        report.push_str(line);
    }
    Ok(report)
}

#[test]
fn bless_refuses_a_winner_certification_rejects() {
    let old = "c | a.b => l | applied=CacheSubstitution considered=1 planned=l pruned=[] cert=1 rej=0 maxlen=1 states=2\n";
    let bad = "c | a.b => m | applied=CacheSubstitution considered=1 planned=a.b pruned=[] cert=0 rej=1 maxlen=2 states=3\n";
    let ok = "c | a.b => m | applied=CacheSubstitution considered=1 planned=m pruned=[] cert=1 rej=0 maxlen=1 states=2\n";
    assert!(bless_report(old, bad).unwrap_err().contains("rejects"));
    let moved = bless_report(old, ok).unwrap();
    assert!(
        moved.contains("1 winners moved, 0 rules relabelled"),
        "{moved}"
    );
    assert!(moved.contains("moved c | a.b"), "{moved}");
    assert!(bless_report(old, old).unwrap().contains(
        "0 winners moved, 0 rules relabelled, 0 lines with only counts or facts changed [], 0 new keys"
    ));
}

#[test]
fn bless_reports_what_moved_by_kind() {
    let old = "\
c | a.b => l | applied=CacheSubstitution considered=2 planned=l pruned=[] cert=1 rej=0 maxlen=1 states=2
c | a.c + d => a.c + d | applied=- considered=0 planned=a.c + d pruned=[] cert=0 rej=0 maxlen=2 states=5
c | x => y | applied=ViewCover considered=1 planned=y pruned=[] cert=1 rej=0 maxlen=1 states=2
";
    let new = "\
c | a.b => l | applied=CacheSubstitution considered=1 planned=l pruned=[] cert=1 rej=0 maxlen=1 states=2
c | a.c + d => a.c + d | applied=- considered=0 planned=a.c + d pruned=[] cert=0 rej=0 maxlen=2 states=5
c | x => y | applied=CacheSubstitution considered=1 planned=y pruned=[] cert=1 rej=0 maxlen=1 states=2
c | z => z | applied=- considered=0 planned=z pruned=[] cert=0 rej=0 maxlen=1 states=2
";
    let report = bless_report(old, new).unwrap();
    assert!(
        report.contains(
            "0 winners moved, 1 rules relabelled, \
             1 lines with only counts or facts changed [considered on 1], 1 new keys"
        ),
        "{report}"
    );
    assert!(report.contains("relabelled c | x => y"), "{report}");
    assert!(!report.contains("c | a.b"), "{report}");
    // a rendered regex with spaces is one fact
    assert_eq!(
        fields("applied=- planned=a.c + d rej=0"),
        [
            ("applied", "-".to_string()),
            ("planned", "a.c + d".to_string()),
            ("rej", "0".to_string())
        ]
    );
}

#[test]
fn cold_plans_match_the_golden_fixture() {
    let got = generate();
    if std::env::var_os("PLAN_GOLDEN_BLESS").is_some() {
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
    let want = std::fs::read_to_string(FIXTURE).expect("tests/fixtures/plan_golden.txt");
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
