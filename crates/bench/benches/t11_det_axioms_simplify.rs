//! T11 — ablations for the Section 5 machinery built in this repo:
//!
//! * deterministic-instance implication (congruence closure) vs the general
//!   Theorem 4.3(i) procedure (prefix-rewrite saturation) on the same word
//!   systems — both PTIME, very different constants;
//! * the axiomatic prover on the paper's worked examples vs the Theorem
//!   4.2 engine, whose closure test is what the optimizer decides claims
//!   with (the prover reproduces Section 5's future work and is off the
//!   served path);
//! * the algebraic simplifier: syntactic vs deep mode on seeded random
//!   regexes, with the size-reduction series printed;
//! * Moore minimization on the subset-blowup family, where determinization
//!   produces ~2^k states.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpq_automata::simplify::{simplify, simplify_deep};
use rpq_automata::{parse_regex, Alphabet};
use rpq_bench::word_system;
use rpq_constraints::general::Budget;
use rpq_constraints::{parse_constraint, ConstraintSet};
use rpq_paper::axioms::{Prover, ProverConfig};
use rpq_paper::deterministic::det_implies_word;
use rpq_paper::general_implication::check;
use rpq_paper::implication::word_implies_word;
use rpq_testkit::random::{random_regex, RegexGenConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t11_det_axioms_simplify");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(700));
    group.warm_up_time(Duration::from_millis(150));

    // --- deterministic vs general word implication -------------------------
    for &rules in &[4usize, 16, 64] {
        let (ab, set) = word_system(0x7B, 3, rules, 4);
        let u: Vec<_> = ab.symbols().take(2).collect();
        let v: Vec<_> = ab.symbols().skip(1).take(2).collect();
        group.bench_with_input(BenchmarkId::new("word_general", rules), &rules, |b, _| {
            b.iter(|| black_box(word_implies_word(&set, &u, &v)))
        });
        group.bench_with_input(BenchmarkId::new("word_det", rules), &rules, |b, _| {
            b.iter(|| black_box(det_implies_word(&set, &u, &v).unwrap().is_implied()))
        });
    }

    // --- rule ablation: which inference rules are load-bearing -------------
    {
        let corpus: Vec<(&[&str], &str)> = vec![
            (&["l.l <= l"], "l* <= l + ()"),
            (&["l = (a.b)*"], "a.(b.a)*.c = l.a.c"),
            (&["(l+a+b+d)*.l <= ()"], "(l.a + l.b)*.d <= (() + a + b).d"),
            (&["u <= v", "v.w <= x"], "u.w <= x"),
            (&["m = s"], "m.x.y <= s.x.y"),
        ];
        let variants: Vec<(&str, ProverConfig)> = vec![
            ("full", ProverConfig::default()),
            (
                "-star-induction",
                ProverConfig {
                    enable_star_induction: false,
                    ..ProverConfig::default()
                },
            ),
            (
                "-suffix-strip",
                ProverConfig {
                    enable_suffix_strip: false,
                    ..ProverConfig::default()
                },
            ),
            (
                "-suffix-intro",
                ProverConfig {
                    enable_suffix_intro: false,
                    ..ProverConfig::default()
                },
            ),
            (
                "-prefix-rewrite",
                ProverConfig {
                    enable_prefix_rewrite: false,
                    ..ProverConfig::default()
                },
            ),
        ];
        for (name, cfg) in &variants {
            let mut proved = 0;
            for (axioms, goal) in &corpus {
                let mut ab = Alphabet::new();
                let set = ConstraintSet::parse(&mut ab, axioms.iter().copied()).unwrap();
                let c = parse_constraint(&mut ab, goal).unwrap();
                if Prover::new(&set, cfg.clone())
                    .prove_constraint(&c)
                    .is_some()
                {
                    proved += 1;
                }
            }
            eprintln!(
                "t11 prover ablation {name}: {proved}/{} goals proved",
                corpus.len()
            );
        }
    }

    // --- axiomatic prover vs saturation engine on the worked examples ------
    let cases: Vec<(&str, Vec<&str>, &str)> = vec![
        ("x2", vec!["l.l <= l"], "l* <= l + ()"),
        ("x3", vec!["l = (a.b)*"], "a.(b.a)*.c = l.a.c"),
        ("chain", vec!["u <= v", "v.w <= x"], "u.w <= x"),
    ];
    for (name, axioms, goal) in cases {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, axioms.iter().copied()).unwrap();
        let c0 = parse_constraint(&mut ab, goal).unwrap();
        {
            let prover = Prover::new(&set, ProverConfig::default());
            assert!(prover.prove_constraint(&c0).is_some(), "{name}");
            assert!(check(&set, &c0, &Budget::default()).is_implied(), "{name}");
        }
        group.bench_function(BenchmarkId::new("axiomatic", name), |b| {
            b.iter(|| {
                let prover = Prover::new(&set, ProverConfig::default());
                black_box(prover.prove_constraint(&c0).is_some())
            })
        });
        group.bench_function(BenchmarkId::new("saturation", name), |b| {
            b.iter(|| black_box(check(&set, &c0, &Budget::default()).is_implied()))
        });
    }

    // --- simplifier ---------------------------------------------------------
    let mut ab = Alphabet::new();
    let syms = vec![ab.intern("a"), ab.intern("b"), ab.intern("c")];
    let mut cfg = RegexGenConfig::new(syms);
    cfg.max_depth = 5;
    let mut rng = StdRng::seed_from_u64(0x7B11);
    let inputs: Vec<_> = (0..64).map(|_| random_regex(&mut rng, &cfg)).collect();
    {
        let before: usize = inputs.iter().map(|r| r.size()).sum();
        let syntactic: usize = inputs.iter().map(|r| simplify(r).size()).sum();
        let deep: usize = inputs.iter().map(|r| simplify_deep(r).size()).sum();
        eprintln!("t11 simplify: total size {before} → syntactic {syntactic} → deep {deep}");
    }
    group.bench_function("simplify_syntactic", |b| {
        b.iter(|| black_box(inputs.iter().map(|r| simplify(r).size()).sum::<usize>()))
    });
    group.bench_function("simplify_deep", |b| {
        b.iter(|| {
            black_box(
                inputs
                    .iter()
                    .map(|r| simplify_deep(r).size())
                    .sum::<usize>(),
            )
        })
    });

    // --- DFA minimization on the subset-blowup family ----------------------
    // (a+b)*a(a+b)^k makes determinization produce ~2^k states.
    for &k in &[6usize, 9, 12] {
        let mut ab = Alphabet::new();
        let src = format!("(a+b)*.a{}", ".(a+b)".repeat(k));
        let r = parse_regex(&mut ab, &src).unwrap();
        let dfa = rpq_automata::Dfa::from_nfa(&rpq_automata::Nfa::thompson(&r), 2);
        group.bench_with_input(BenchmarkId::new("minimize_moore", k), &k, |b, _| {
            b.iter(|| black_box(dfa.minimize().num_states()))
        });
    }

    // growth classification on representative families
    let growth_inputs: Vec<_> = ["a*", "a*.b*.a*", "(a+b)*", "(a.b + b.a)*.c"]
        .iter()
        .map(|s| {
            let mut ab2 = Alphabet::new();
            parse_regex(&mut ab2, s).unwrap()
        })
        .collect();
    group.bench_function("growth_classify", |b| {
        b.iter(|| {
            for r in &growth_inputs {
                black_box(rpq_paper::growth::classify_regex(r));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
