//! T8 — the three goal-directed evaluation strategies the paper's analogy
//! connects (Section 1: "the magic-set [9] or query–subquery [31]
//! evaluation"): plain semi-naive bottom-up, top-down QSQ, and magic-sets
//! rewriting + semi-naive, on the RPQ programs of Section 2.3 and on the
//! classic bound-argument transitive-closure query.
//!
//! Expected shapes: on the source-seeded RPQ programs all three meet the
//! same fixpoint (magic degenerates gracefully; QSQ tracks the product
//! automaton); on `tc(c, X)` over a multi-component graph, magic and QSQ
//! beat full semi-naive by the pruned component — the magic-set effect.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::eval_workload;
use rpq_datalog::translate::{load_csr, load_csr_multi, translate_quotient};
use rpq_datalog::{
    eval_magic, eval_qsq, eval_seminaive, Atom, Database, MagicQuery, Program, RuleBuilder,
};
use rpq_graph::CsrGraph;
use rpq_graph::Oid;

fn tc_setup(chains: usize, len: usize) -> (Program, usize, Database) {
    let mut p = Program::default();
    let edge = p.declare("edge", 2, true);
    let tc = p.declare("tc", 2, false);
    let mut b = RuleBuilder::new();
    let (x, y) = (b.var("x"), b.var("y"));
    p.add_rule(b.rule(
        Atom {
            pred: tc,
            terms: vec![x, y],
        },
        vec![Atom {
            pred: edge,
            terms: vec![x, y],
        }],
    ));
    let mut b = RuleBuilder::new();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    p.add_rule(b.rule(
        Atom {
            pred: tc,
            terms: vec![x, z],
        },
        vec![
            Atom {
                pred: edge,
                terms: vec![x, y],
            },
            Atom {
                pred: tc,
                terms: vec![y, z],
            },
        ],
    ));
    let mut db = Database::for_program(&p);
    for c in 0..chains as u64 {
        let base = c * 1000;
        for i in 0..len as u64 {
            db.insert(edge, vec![base + i, base + i + 1]);
        }
    }
    (p, tc, db)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t8_datalog_strategies");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(150));

    // --- RPQ programs: all strategies compute the same answers ------------
    for &nodes in &[200usize, 800] {
        let w = eval_workload(0x78 ^ 0x11, nodes);
        let (_, q) = &w.queries[3]; // the broad query (l0+l1+l2)* reaches everything
        let tq = translate_quotient(q, &w.alphabet).unwrap();
        // snapshot once: the timed loops compare Datalog *strategies*, not
        // storage construction
        let graph = CsrGraph::from(&w.instance);
        let db = load_csr(&tq, &graph, w.source);

        // consistency + series print (once per size)
        {
            let mut db1 = load_csr(&tq, &graph, w.source);
            let semi = eval_seminaive(&tq.program, &mut db1);
            let (qsq_answers, qsq_stats) = eval_qsq(&tq.program, &db, tq.answer_pred).unwrap();
            let (magic_answers, magic_stats) = eval_magic(
                &tq.program,
                &db,
                &MagicQuery {
                    pred: tq.answer_pred,
                    pattern: vec![None],
                },
            );
            let mut semi_answers: Vec<u64> =
                db1.relation(tq.answer_pred).iter().map(|t| t[0]).collect();
            semi_answers.sort();
            let mut qsq_sorted = qsq_answers.clone();
            qsq_sorted.sort();
            let magic_flat: Vec<u64> = magic_answers.iter().map(|t| t[0]).collect();
            assert_eq!(semi_answers, qsq_sorted);
            assert_eq!(semi_answers, magic_flat);
            eprintln!(
                "t8 rpq nodes={nodes}: semi-naive {} tuples / {} rounds, qsq {} subgoals, magic {} demanded",
                semi.idb_tuples, semi.rounds, qsq_stats.subgoals, magic_stats.demanded
            );
        }

        group.bench_with_input(BenchmarkId::new("rpq_seminaive", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut db = load_csr(&tq, &graph, w.source);
                black_box(eval_seminaive(&tq.program, &mut db).idb_tuples)
            })
        });
        group.bench_with_input(BenchmarkId::new("rpq_qsq", nodes), &nodes, |b, _| {
            b.iter(|| black_box(eval_qsq(&tq.program, &db, tq.answer_pred).unwrap().0.len()))
        });
        group.bench_with_input(BenchmarkId::new("rpq_magic", nodes), &nodes, |b, _| {
            b.iter(|| {
                let query = MagicQuery {
                    pred: tq.answer_pred,
                    pattern: vec![None],
                };
                black_box(eval_magic(&tq.program, &db, &query).0.len())
            })
        });
    }

    // --- multi-source seeding: one fixpoint answers the whole batch --------
    // Semi-naive with every source in the round-0 delta (the engine's
    // `Sources` strategy) vs one fixpoint per source; the shared chain
    // rules fire once per derived tuple either way, but the loop re-derives
    // the overlap of the N reachable sets N times.
    for &nsrc in &[8usize, 32] {
        let w = eval_workload(0x78 ^ 0x22, 400);
        let (_, q) = &w.queries[1]; // l0.(l1+l2)* — source-sensitive prefix
        let tq = translate_quotient(q, &w.alphabet).unwrap();
        let graph = CsrGraph::from(&w.instance);
        let sources: Vec<Oid> = (0..nsrc as u32).map(Oid).collect();

        // consistency: multi-seeded fixpoint == union of per-source runs
        {
            let mut db = load_csr_multi(&tq, &graph, &sources);
            let multi = eval_seminaive(&tq.program, &mut db);
            let mut multi_answers: Vec<u64> =
                db.relation(tq.answer_pred).iter().map(|t| t[0]).collect();
            multi_answers.sort_unstable();
            multi_answers.dedup();
            let mut union: Vec<u64> = Vec::new();
            let mut loop_derivations = 0usize;
            for &s in &sources {
                let mut db1 = load_csr(&tq, &graph, s);
                loop_derivations += eval_seminaive(&tq.program, &mut db1).derivations;
                union.extend(db1.relation(tq.answer_pred).iter().map(|t| t[0]));
            }
            union.sort_unstable();
            union.dedup();
            assert_eq!(multi_answers, union, "multi-seed vs per-source union");
            eprintln!(
                "t8 multi-source nsrc={nsrc}: one fixpoint {} derivations vs loop {}",
                multi.derivations, loop_derivations
            );
        }

        group.bench_with_input(
            BenchmarkId::new("rpq_seminaive_loop", nsrc),
            &nsrc,
            |b, _| {
                b.iter(|| {
                    let mut total = 0usize;
                    for &s in &sources {
                        let mut db = load_csr(&tq, &graph, s);
                        total += eval_seminaive(&tq.program, &mut db).idb_tuples;
                    }
                    black_box(total)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("rpq_seminaive_multiseed", nsrc),
            &nsrc,
            |b, _| {
                b.iter(|| {
                    let mut db = load_csr_multi(&tq, &graph, &sources);
                    black_box(eval_seminaive(&tq.program, &mut db).idb_tuples)
                })
            },
        );
    }

    // --- bound-argument TC: the magic-set pruning effect -------------------
    for &chains in &[4usize, 16] {
        let (p, tc, db) = tc_setup(chains, 30);
        let query = MagicQuery {
            pred: tc,
            pattern: vec![Some(0), None],
        };
        {
            let mut full_db = db.clone_for_bench(&p);
            let full = eval_seminaive(&p, &mut full_db);
            let (answers, magic_stats) = eval_magic(&p, &db, &query);
            assert_eq!(answers.len(), 30);
            eprintln!(
                "t8 tc chains={chains}: full fixpoint {} tuples, magic {} tuples ({}x pruning)",
                full.idb_tuples,
                magic_stats.idb_tuples,
                full.idb_tuples / magic_stats.idb_tuples.max(1)
            );
        }
        group.bench_with_input(BenchmarkId::new("tc_full", chains), &chains, |b, _| {
            b.iter(|| {
                let mut db2 = db.clone_for_bench(&p);
                black_box(eval_seminaive(&p, &mut db2).idb_tuples)
            })
        });
        group.bench_with_input(BenchmarkId::new("tc_magic", chains), &chains, |b, _| {
            b.iter(|| black_box(eval_magic(&p, &db, &query).0.len()))
        });
    }

    group.finish();
}

/// Cheap full copy of the EDB for repeated runs.
trait CloneForBench {
    fn clone_for_bench(&self, p: &Program) -> Database;
}
impl CloneForBench for Database {
    fn clone_for_bench(&self, p: &Program) -> Database {
        let mut out = Database::for_program(p);
        for (pred, decl) in p.predicates.iter().enumerate() {
            if decl.is_edb {
                for t in self.relation(pred).iter() {
                    out.insert(pred, t.clone());
                }
            }
        }
        out
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
