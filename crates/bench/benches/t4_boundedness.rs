//! T4 — boundedness under word equalities (Theorem 4.10: decidable,
//! EXPTIME construction). The decision walks the product of the query's
//! automaton with the fold of the equalities — the finite part of the
//! Armstrong instance, at most `1 + Σ|sides|` nodes — so its cost tracks
//! the query and the equalities' total length, not Lemma 4.9's K-sphere,
//! which grows with the alphabet (`caches` and `commute3` pass 200 000
//! sphere nodes). Each system's verdict is asserted at registration time,
//! so `--test` mode (the CI bench smoke) checks it without paying
//! measurement time.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::{parse_regex, Alphabet};
use rpq_bench::boundedness_systems;
use rpq_constraints::{decide_boundedness, Boundedness, Closures, ConstraintSet};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t4_boundedness");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(150));

    for (name, lines, query, bounded) in boundedness_systems() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let p = parse_regex(&mut ab, query).unwrap();

        // Acceptance: the verdict, decided (and a bounded one certified)
        // within the planner's word cap.
        let verdict = decide_boundedness(&Closures::new(&set), &p, 64);
        assert!(
            matches!(
                (&verdict, bounded),
                (Ok(Boundedness::Bounded { .. }), true) | (Ok(Boundedness::Unbounded), false)
            ),
            "{name}: expected bounded = {bounded}, got {verdict:?}"
        );

        group.bench_with_input(BenchmarkId::new("decide", name), &name, |b, _| {
            b.iter(|| black_box(decide_boundedness(&Closures::new(&set), &p, 64).is_ok()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
