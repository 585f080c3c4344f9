//! T3 — implication of path constraints by word constraints
//! (Theorem 4.3(ii): PSPACE; the bound is tight since regex equivalence is
//! already PSPACE-complete). Ablation: the antichain inclusion check versus
//! full determinization. Expected shape: both grow with expression size;
//! antichain dominates as the expressions grow. Each depth's verdicts are
//! asserted at registration time, so `--test` mode (the CI bench smoke)
//! checks them without paying measurement time.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::Nfa;
use rpq_bench::{regex_pair, word_system};
use rpq_constraints::implication::{word_implies_path, word_implies_path_naive, WordImplication};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t3_path_implication");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(150));

    for &depth in &[2usize, 5, 8, 12] {
        // constraints over the same alphabet as the regexes (a, b)
        let (mut ab, _) = word_system(3, 2, 4, 3);
        // reuse alphabet letters a/b by interning them now
        ab.intern("a");
        ab.intern("b");
        let set = {
            let lines = vec!["a.a <= a", "b.a = a.b"];
            rpq_constraints::ConstraintSet::parse(&mut ab, lines).unwrap()
        };
        let (p, q) = regex_pair(&mut ab, depth);
        let sigma = ab.len();

        // Acceptance (Theorem 4.3(ii)): E ⊨ p ⊆ q, since L(p) ⊆ L(q); E ⊭
        // q ⊆ p, refuted by a word of L(q) outside L(p) — no rewrite under
        // E reaches the prefix (a.b)^d from a word that lacks it. Where
        // the ablation runs, full determinization gives both verdicts too.
        assert!(
            word_implies_path(&set, &p, &q).is_implied(),
            "depth {depth}: E ⊨ p ⊆ q"
        );
        let WordImplication::Refuted(w) = word_implies_path(&set, &q, &p) else {
            panic!("depth {depth}: E ⊨ q ⊆ p, expected a refutation");
        };
        assert!(
            Nfa::thompson(&q).accepts(&w) && !Nfa::thompson(&p).accepts(&w),
            "depth {depth}: the witness is in L(q) \\ L(p)"
        );
        if depth <= 8 {
            assert!(word_implies_path_naive(&set, &p, &q, sigma).is_implied());
            assert!(!word_implies_path_naive(&set, &q, &p, sigma).is_implied());
        }

        group.bench_with_input(BenchmarkId::new("antichain", depth), &depth, |b, _| {
            b.iter(|| black_box(word_implies_path(&set, &p, &q).is_implied()))
        });
        if depth <= 8 {
            group.bench_with_input(
                BenchmarkId::new("naive_determinize", depth),
                &depth,
                |b, _| {
                    b.iter(|| black_box(word_implies_path_naive(&set, &p, &q, sigma).is_implied()))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
