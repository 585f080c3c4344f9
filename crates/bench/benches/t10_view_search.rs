//! T10 — the Section 5 view-rewriting search: cost of the bounded
//! Boolean-combination search (universal quotients, subset enumeration,
//! verification) as the number of caches and the query size grow.
//!
//! Expected shape: exponential in the number of caches (2^k subsets —
//! exactly the paper's "exhaustive search of Boolean combination"), mild
//! in query size while the DFA budgets hold; the axiomatic-prover fast
//! path keeps verification out of the saturation engine for the common
//! cache shapes.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::{parse_regex, Alphabet, Regex};
use rpq_constraints::ConstraintSet;
use rpq_optimizer::rewrite_with_views;

/// `k` caches `li = (ai.bi)*` and the union query of their tails.
fn view_workload(k: usize) -> (Alphabet, ConstraintSet, Regex) {
    let mut ab = Alphabet::new();
    let mut lines = Vec::new();
    let mut arms = Vec::new();
    for i in 0..k {
        lines.push(format!("l{i} = (a{i}.b{i})*"));
        arms.push(format!("a{i}.(b{i}.a{i})*.x{i}"));
    }
    let set = ConstraintSet::parse(&mut ab, lines.iter().map(String::as_str)).unwrap();
    let q = parse_regex(&mut ab, &arms.join(" + ")).unwrap();
    (ab, set, q)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t10_view_search");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(150));

    for &k in &[1usize, 2, 3, 4] {
        let (ab, set, q) = view_workload(k);
        // sanity + series print (once per size)
        {
            let rs = rewrite_with_views(&set, &q, &ab);
            let total = rs
                .iter()
                .filter(|r| r.kind == rpq_optimizer::ViewKind::Total)
                .count();
            eprintln!(
                "t10 caches={k}: {} rewritings ({} total covers), best = {}",
                rs.len(),
                total,
                rs.first()
                    .map(|r| format!("{}", r.query.display(&ab)))
                    .unwrap_or_else(|| "-".into())
            );
            assert!(!rs.is_empty());
        }
        group.bench_with_input(BenchmarkId::new("caches", k), &k, |b, _| {
            b.iter(|| black_box(rewrite_with_views(&set, &q, &ab).len()))
        });
    }

    // Query-size sweep at a fixed cache count.
    for &reps in &[1usize, 2, 4] {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
        let tail: Vec<String> = (0..reps).map(|i| format!("c{i}")).collect();
        let q = parse_regex(&mut ab, &format!("a.(b.a)*.{}", tail.join("."))).unwrap();
        group.bench_with_input(BenchmarkId::new("tail_len", reps), &reps, |b, _| {
            b.iter(|| black_box(rewrite_with_views(&set, &q, &ab).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
