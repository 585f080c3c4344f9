//! T6 — general path-constraint implication (Theorem 4.2: decidable in
//! 2-EXPSPACE; our engine proves by the prefix-rewriting closure and
//! refutes by a budgeted search, with certified verdicts). Expected shape:
//! the exact word route is fastest; closure proofs under regex rules cost
//! more; refutation search cost is dominated by the chase budget. Each
//! row's verdict is asserted at registration time — none is `Unknown` —
//! so `--test` mode (the CI bench smoke) checks it without paying
//! measurement time.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::Alphabet;
use rpq_constraints::general::Budget;
use rpq_constraints::{parse_constraint, ConstraintSet};
use rpq_paper::general_implication::{check, Verdict};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t6_general_implication");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(150));

    // X2 — exact word route (Theorem 4.3 inside the general engine)
    {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
        let claim = parse_constraint(&mut ab, "l* = l + ()").unwrap();
        let verdict = check(&set, &claim, &Budget::default());
        assert!(
            matches!(
                verdict,
                Verdict::Implied {
                    method: "word-exact"
                }
            ),
            "x2: {verdict:?}"
        );
        group.bench_function(BenchmarkId::new("word_exact", "x2"), |b| {
            b.iter(|| black_box(check(&set, &claim, &Budget::default()).is_implied()))
        });
    }

    // X3 — closure proof under a regex cache rule (cache substitution)
    {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
        let claim = parse_constraint(&mut ab, "a.(b.a)*.c = l.a.c").unwrap();
        let verdict = check(&set, &claim, &Budget::default());
        assert!(verdict.is_implied(), "x3: {verdict:?}");
        group.bench_function(BenchmarkId::new("saturation_proof", "x3"), |b| {
            b.iter(|| black_box(check(&set, &claim, &Budget::default()).is_implied()))
        });
    }

    // X1 — refutation by counterexample search
    {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["(a+b+d+l)*.l = ()"]).unwrap();
        let claim = parse_constraint(&mut ab, "(l.a + l.b)*.d = (a+b).d").unwrap();
        let verdict = check(&set, &claim, &Budget::default());
        assert!(verdict.is_refuted(), "x1: {verdict:?}");
        group.bench_function(BenchmarkId::new("refutation", "x1"), |b| {
            b.iter(|| black_box(check(&set, &claim, &Budget::default()).is_refuted()))
        });
    }

    // closure proofs with growing tails (proof cost growth)
    for &depth in &[1usize, 2, 3] {
        let mut ab = Alphabet::new();
        let body = "(a.b)*".to_string().to_string();
        let mut tail = String::from("c");
        for _ in 0..depth {
            tail = format!("a.{tail}");
        }
        let set = ConstraintSet::parse(&mut ab, [format!("l = {body}")]).unwrap();
        let claim = parse_constraint(&mut ab, &format!("l.{tail} = (a.b)*.{tail}")).unwrap();
        let verdict = check(&set, &claim, &Budget::default());
        assert!(verdict.is_implied(), "proof_depth {depth}: {verdict:?}");
        group.bench_with_input(BenchmarkId::new("proof_depth", depth), &depth, |b, _| {
            b.iter(|| black_box(check(&set, &claim, &Budget::default()).is_implied()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
