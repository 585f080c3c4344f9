//! T3 — implication of path constraints by word constraints
//! (Theorem 4.3(ii): PSPACE; the bound is tight since regex equivalence is
//! already PSPACE-complete). Ablation: the antichain inclusion check versus
//! full determinization. Expected shape: both grow with expression size;
//! antichain dominates as the expressions grow. Two series: the regex
//! depth under a fixed two-rule `E`, and `|E|` at a fixed depth. Every
//! verdict is asserted at registration time, so `--test` mode (the CI
//! bench smoke) checks them without paying measurement time.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::{Alphabet, Nfa, Regex};
use rpq_bench::{regex_pair, word_system};
use rpq_constraints::rewrite::rewrite_closure_nfa;
use rpq_constraints::ConstraintSet;
use rpq_paper::implication::{word_implies_path, word_implies_path_naive, WordImplication};

/// The two rules over the regexes' letters that every series decides under.
const RULES: [&str; 2] = ["a.a <= a", "b.a = a.b"];

/// The depth of the `|E|` series' `(p, q)` pair.
const RULES_DEPTH: usize = 5;

/// Theorem 4.3(ii)'s verdicts on `regex_pair`: `E ⊨ p ⊆ q`, since
/// `L(p) ⊆ L(q)`; `E ⊭ q ⊆ p`, refuted by a word of `L(q)` outside `L(p)` —
/// no rewrite under `E` reaches the prefix `(a.b)^d` from a word that lacks
/// it. With `naive`, full determinization over `sigma` symbols must give
/// both verdicts too.
fn assert_verdicts(set: &ConstraintSet, p: &Regex, q: &Regex, sigma: usize, naive: bool, at: &str) {
    assert!(
        word_implies_path(set, p, q).unwrap().is_implied(),
        "{at}: E ⊨ p ⊆ q"
    );
    let WordImplication::Refuted(w) = word_implies_path(set, q, p).unwrap() else {
        panic!("{at}: E ⊨ q ⊆ p, expected a refutation");
    };
    assert!(
        Nfa::thompson(q).accepts(&w) && !Nfa::thompson(p).accepts(&w),
        "{at}: the witness is in L(q) \\ L(p)"
    );
    if naive {
        assert!(
            word_implies_path_naive(set, p, q, sigma)
                .unwrap()
                .is_implied(),
            "{at}: naive E ⊨ p ⊆ q"
        );
        assert!(
            !word_implies_path_naive(set, q, p, sigma)
                .unwrap()
                .is_implied(),
            "{at}: naive E ⊭ q ⊆ p"
        );
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t3_path_implication");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(150));

    for &depth in &[2usize, 5, 8, 12] {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, RULES).unwrap();
        let (p, q) = regex_pair(&mut ab, depth);
        let sigma = ab.len();
        assert_verdicts(&set, &p, &q, sigma, depth <= 8, &format!("depth {depth}"));

        group.bench_with_input(BenchmarkId::new("antichain", depth), &depth, |b, _| {
            b.iter(|| black_box(word_implies_path(&set, &p, &q).unwrap().is_implied()))
        });
        if depth <= 8 {
            group.bench_with_input(
                BenchmarkId::new("naive_determinize", depth),
                &depth,
                |b, _| {
                    b.iter(|| {
                        black_box(
                            word_implies_path_naive(&set, &p, &q, sigma)
                                .unwrap()
                                .is_implied(),
                        )
                    })
                },
            );
        }
    }

    // |E|: the two rules plus `word_system`'s n rules (|E| = 6, 17, 57: the
    // set drops repeats). Those use only the `w*` symbols, which no word of
    // p or q spells, so the verdicts are the two-rule ones, and no closure
    // embeds those rules (the `served_closure` series below).
    for &n in &[4usize, 16, 64] {
        let (ab, set, p, q) = rules_system(n);
        let sigma = ab.len();
        assert_verdicts(&set, &p, &q, sigma, true, &format!("|E| = 2 + {n}"));

        group.bench_with_input(BenchmarkId::new("antichain_rules", n), &n, |b, _| {
            b.iter(|| black_box(word_implies_path(&set, &p, &q).unwrap().is_implied()))
        });
        group.bench_with_input(
            BenchmarkId::new("naive_determinize_rules", n),
            &n,
            |b, _| {
                b.iter(|| {
                    black_box(
                        word_implies_path_naive(&set, &p, &q, sigma)
                            .unwrap()
                            .is_implied(),
                    )
                })
            },
        );
    }

    // The served closure of q under the same sets (the one the planner's
    // `Closures` builds): a derivation into q can use no rule over the
    // `w*` symbols, so none is embedded, and the closure at |E| = 57 has
    // no more states than under the two rules alone.
    let mut states = Vec::new();
    for &n in &[0usize, 4, 16, 64] {
        let (_, set, _, q) = rules_system(n);
        let target = Nfa::thompson(&q);
        states.push((
            set.len(),
            rewrite_closure_nfa(&set, &target).nfa.num_states(),
        ));
        group.bench_with_input(BenchmarkId::new("served_closure", n), &n, |b, _| {
            b.iter(|| black_box(rewrite_closure_nfa(&set, &target).nfa.num_states()))
        });
    }
    println!("t3 served closure states by |E|: {states:?}");
    let (first, last) = (states[0], states[states.len() - 1]);
    assert!(
        last.1 <= first.1,
        "the closure at |E| = {} has {} states, at |E| = {} {}: it embeds rules no \
         derivation into q can use",
        last.0,
        last.1,
        first.0,
        first.1
    );
    group.finish();
}

/// The two rules plus `word_system`'s `n` rules over `w0`, `w1`, and the
/// `(p, q)` pair at [`RULES_DEPTH`].
fn rules_system(n: usize) -> (Alphabet, ConstraintSet, Regex, Regex) {
    let (mut ab, extra) = word_system(3, 2, n, 3);
    let mut set = ConstraintSet::parse(&mut ab, RULES).unwrap();
    for rule in extra.iter() {
        set.add(rule.clone());
    }
    let (p, q) = regex_pair(&mut ab, RULES_DEPTH);
    (ab, set, p, q)
}

criterion_group!(benches, bench);
criterion_main!(benches);
