//! T16 — the concurrent serving layer: epoch-pinned snapshot isolation,
//! admission control, and fetch budgets under a mixed read/write
//! workload. Three claims, asserted at registration time so `--test`
//! mode (the CI bench smoke) enforces the acceptance criteria without
//! paying measurement time:
//!
//! * **Admission cap is enforced** — with `max_concurrent = 2`, a third
//!   outstanding submission is rejected synchronously with the observed
//!   occupancy, the rejection is counted, and joining a handle frees its
//!   slot so the next submission is admitted again.
//! * **Budgets terminate runaways soundly** — a query submitted under the
//!   server's default fetch budget returns
//!   [`rpq_core::Termination::BudgetExhausted`] with
//!   `edges_scanned <= budget`, and an explicit per-request budget
//!   overrides the default.
//! * **Pinned readers never observe a compaction** — a session pinned
//!   before writer churn that trips the compaction policy keeps its
//!   epoch, its base arena, and its bit-identical answers, while the
//!   freshly pinned snapshot reads a new base on the same lineage.
//! * **A commit does not tax the reads after it** — reads of a warm text
//!   at the epoch a commit published take within 1.25× of what they took
//!   on the static base: the plan is held against the new statistics
//!   once, not on every read.
//!
//! Measured series: end-to-end throughput of `readers` concurrent
//! sessions submitting through the shared planner while the writer
//! commits delta batches between submissions; per-class p50/p99 latency
//! aggregated by the server's [`rpq_server::Metrics`] is printed after
//! the run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::incremental_workload;
use rpq_core::{EvalRequest, Query, Termination};
use rpq_graph::CompactionPolicy;
use rpq_server::{Catalog, QueryClass, Server, ServerConfig, SubmitError};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t16_serving");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(900));
    group.warm_up_time(Duration::from_millis(200));

    // Acceptance 1: the admission cap rejects the third outstanding
    // handle and a join frees its slot deterministically (slots are held
    // until the handle is joined or dropped, not until the worker ends).
    {
        let w = incremental_workload(512, 16);
        let catalog = Arc::new(Catalog::from_instance(&w.instance));
        let server = Server::new(catalog, w.alphabet.clone()).with_config(ServerConfig {
            max_concurrent: 2,
            default_budget: None,
            ..ServerConfig::default()
        });
        let query = Query::new(w.query.clone(), &w.alphabet);
        let session = server.session();
        let h1 = session
            .submit(&query, EvalRequest::source(w.source))
            .expect("first slot");
        let h2 = session
            .submit(&query, EvalRequest::source(w.source))
            .expect("second slot");
        match session.submit(&query, EvalRequest::source(w.source)) {
            Err(SubmitError::Rejected { active, cap }) => {
                assert_eq!((active, cap), (2, 2), "rejection must report occupancy");
            }
            other => panic!("expected rejection at the cap, got {other:?}"),
        }
        assert_eq!(server.metrics().rejected(), 1);
        let complete = h1.join();
        assert_eq!(complete.termination, Termination::Complete);
        let h3 = session
            .submit(&query, EvalRequest::source(w.source))
            .expect("join must free the slot");
        let _ = h3.join();
        let _ = h2.join();
        assert_eq!(server.active_queries(), 0, "all slots released");
    }

    // Acceptance 2: the default fetch budget terminates a broad query
    // early with `edges_scanned <= budget`, and an explicit request
    // budget overrides the default.
    {
        let w = incremental_workload(1024, 16);
        let catalog = Arc::new(Catalog::from_instance(&w.instance));
        let server = Server::new(catalog, w.alphabet.clone()).with_config(ServerConfig {
            max_concurrent: 8,
            default_budget: Some(8),
            ..ServerConfig::default()
        });
        // Through the text front end: parse → analyze → plan → eval. The
        // broad closure reaches most of the web graph, so it cannot
        // complete within the default budget.
        let query = server.parse("(l0+l1+l2)*").expect("broad query parses");
        let session = server.session();
        let resp = session
            .submit(&query, EvalRequest::source(w.source))
            .expect("under cap")
            .join();
        assert_eq!(
            resp.termination,
            Termination::BudgetExhausted,
            "the default budget must cut the broad query short"
        );
        assert!(
            resp.stats.edges_scanned <= 8,
            "scanned {} > default budget 8",
            resp.stats.edges_scanned
        );
        let resp = session
            .submit(
                &query,
                EvalRequest::source(w.source).with_budget(50_000_000),
            )
            .expect("under cap")
            .join();
        assert_eq!(
            resp.termination,
            Termination::Complete,
            "an explicit budget must override the default"
        );
    }

    // Acceptance 3: a reader pinned before policy-triggered compactions
    // keeps its epoch, base arena, and answers.
    {
        let w = incremental_workload(512, 16);
        let catalog = Arc::new(
            Catalog::from_instance(&w.instance).with_policy(CompactionPolicy {
                min_log_len: 2,
                max_log_ratio: 0.01,
                ..CompactionPolicy::default()
            }),
        );
        let server = Server::new(catalog.clone(), w.alphabet.clone());
        let query = Query::new(w.query.clone(), &w.alphabet);
        let pinned = server.session();
        let epoch0 = pinned.epoch();
        let before = pinned
            .run(&query, &EvalRequest::source(w.source))
            .into_eval_result()
            .answers;
        let inverse = w.delta.inverse();
        for _ in 0..8 {
            catalog.commit(&w.delta);
            catalog.commit(&inverse);
        }
        assert!(
            catalog.compactions() >= 1,
            "the aggressive policy must compact under this churn"
        );
        assert_eq!(pinned.epoch(), epoch0, "pinned epoch never moves");
        let after = pinned
            .run(&query, &EvalRequest::source(w.source))
            .into_eval_result()
            .answers;
        assert_eq!(before, after, "pinned answers must be bit-identical");
        assert!(
            !server
                .session()
                .snapshot()
                .shares_base_with(pinned.snapshot()),
            "a fresh pin must read the post-compaction base"
        );
    }

    // Acceptance 4: reads of a warm text cost on a once-mutated lineage
    // what they cost on the static base, within 1.25× (minimum against
    // minimum of nine rounds of 2 000 reads: load only inflates a round).
    // A session pinned before the commit and one opened after it take
    // their rounds in turn, so a burst of host noise inflates rounds of
    // both. The read is a two-step navigation, so anything a commit adds
    // to every later read — a drift check per read was a second automaton
    // trim — shows against it.
    {
        let w = incremental_workload(1024, 16);
        let catalog =
            Arc::new(Catalog::from_instance(&w.instance).with_policy(CompactionPolicy::NEVER));
        let server = Server::new(catalog.clone(), w.alphabet.clone());
        let query = server.parse("l0.l1").expect("navigation parses");
        let req = EvalRequest::source(w.source);
        let round = |session: &rpq_server::Session| {
            let start = Instant::now();
            for _ in 0..2_000 {
                black_box(session.run(&query, &req));
            }
            start.elapsed().as_nanos()
        };
        let on_base = server.session();
        round(&on_base); // the plan and the pooled arena
        let commit = catalog.commit(&w.delta);
        assert!(commit.applied > 0 && !commit.compacted);
        let session = server.session();
        assert_eq!(session.epoch(), commit.epoch);
        round(&session); // the drift check
        let (mut on_static, mut on_mutated) = (u128::MAX, u128::MAX);
        for _ in 0..9 {
            on_static = on_static.min(round(&on_base));
            on_mutated = on_mutated.min(round(&session));
        }
        println!("t16 reads per 2000: {on_static} ns on the base, {on_mutated} ns after a commit");
        assert_eq!(
            server.engine().plan_cache_misses(),
            1,
            "one plan throughout"
        );
        assert_eq!(server.engine().plan_drift_checks(), 1, "checked once");
        assert!(
            4 * on_mutated <= 5 * on_static,
            "reads after a commit must stay within 1.25x of reads before it: \
             {on_static}ns vs {on_mutated}ns per 2000"
        );
    }

    // Measured: mixed read/write throughput — `readers` sessions submit
    // through the shared planner while the writer commits delta batches
    // in between. One iteration = readers submissions + 2 commits + all
    // joins.
    for &readers in &[4usize, 8] {
        let w = incremental_workload(1024, 16);
        let catalog = Arc::new(Catalog::from_instance(&w.instance));
        let server = Arc::new(Server::new(catalog.clone(), w.alphabet.clone()));
        let query = Query::new(w.query.clone(), &w.alphabet);
        let inverse = w.delta.inverse();

        group.bench_with_input(
            BenchmarkId::new("mixed_read_write", readers),
            &readers,
            |b, &readers| {
                b.iter(|| {
                    let handles: Vec<_> = (0..readers)
                        .map(|_| {
                            server
                                .session()
                                .submit(&query, EvalRequest::source(w.source))
                                .expect("under cap")
                        })
                        .collect();
                    catalog.commit(&w.delta);
                    catalog.commit(&inverse);
                    let mut answers = 0usize;
                    for h in handles {
                        answers += h.join().into_eval_result().answers.len();
                    }
                    black_box(answers)
                })
            },
        );

        let snap = server.metrics().class(QueryClass::Single);
        assert!(snap.queries > 0, "the measured series must record metrics");
        assert!(
            snap.p50_latency_ns <= snap.p99_latency_ns,
            "percentiles must be ordered"
        );
        println!(
            "t16 mixed_read_write/{readers}: {} queries, p50 {} ns, p99 {} ns, \
             {} edges scanned",
            snap.queries, snap.p50_latency_ns, snap.p99_latency_ns, snap.edges_scanned
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
