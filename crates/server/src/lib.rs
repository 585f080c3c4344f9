//! # rpq-server
//!
//! The concurrent serving layer: sessions evaluate regular path queries
//! against **epoch-pinned snapshots** while a writer keeps absorbing edge
//! deltas — the production shape of the paper's query processor, built
//! entirely on the unified [`rpq_core::EvalRequest`] /
//! [`rpq_core::EvalResponse`] convention.
//!
//! Three pieces:
//!
//! * [`Catalog`] — an `Arc`-swapped lineage of [`rpq_graph::DeltaGraph`]
//!   epochs. The writer's [`Catalog::commit`] applies an
//!   [`rpq_graph::EdgeDelta`], lets the [`rpq_graph::CompactionPolicy`]
//!   decide whether to fold the overlay into a fresh base (measured
//!   log/base edge ratio and overlay-row overhead, not a guess), and
//!   publishes a new snapshot. Readers [`Catalog::pin`] an epoch and are
//!   never blocked — compaction is copy-on-write, so a reader pinned to an
//!   old epoch finishes undisturbed on the old base.
//! * [`Server`] / [`Session`] / [`QueryHandle`] — the submission API. A
//!   session pins an epoch; [`Session::submit`] queues the query on the
//!   server's executor — a fixed set of parked threads, no thread per
//!   query — where it runs through the shared
//!   [`rpq_optimizer::PlannedEngine`] (one plan memo and one `ScratchPool`
//!   for every thread that runs queries), with per-query fetch budgets,
//!   cooperative cancellation, and admission control
//!   ([`SubmitError::Rejected`] above [`ServerConfig::max_concurrent`]).
//!   An executor thread starts it whether or not its handle is ever
//!   touched (woken for it at once; after 256 wakes that found their job
//!   already claimed the executor takes half a millisecond off, and looks
//!   when that is up); a [`QueryHandle::join`] that gets there first runs
//!   it on the joining thread, so `submit(..).join()` on an idle server
//!   costs what [`Session::run`] costs. Queries enter as text via
//!   [`Session::submit_text`] (`parse("a.(b+c)*")` → constraints → analyze
//!   → plan → eval).
//! * [`Metrics`] — per-[`QueryClass`] latency percentiles (p50/p99 over a
//!   sliding window), `edges_scanned`, termination and rejection counts,
//!   scratch-pool alloc/reuse counters, and the BFS levels each class
//!   expanded.
//!
//! Threads: [`ServerConfig::parallelism`] sizes the executor, which starts
//! `max(1, parallelism - 1)` threads — the thread that joins a handle is
//! the other worker. Concurrency is across queries: each query runs every
//! BFS level on the one thread that runs it.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use rpq_automata::Alphabet;
//! use rpq_graph::{EdgeDelta, InstanceBuilder};
//! use rpq_core::{EvalRequest, Termination};
//! use rpq_server::{Catalog, Server};
//!
//! let mut ab = Alphabet::new();
//! let mut b = InstanceBuilder::new(&mut ab);
//! b.edge("o1", "a", "o2");
//! b.edge("o2", "b", "o3");
//! let (inst, names) = b.finish();
//! let server = Server::new(Arc::new(Catalog::from_instance(&inst)), ab.clone());
//!
//! // A session pins the current epoch; queries enter as text.
//! let session = server.session();
//! let q = server.parse("a.b*").unwrap();
//! let handle = session
//!     .submit(&q, EvalRequest::source(names["o1"]))
//!     .unwrap();
//! let resp = handle.join();
//! assert_eq!(resp.termination, Termination::Complete);
//! assert_eq!(resp.nodes().unwrap().len(), 2); // {o2, o3}
//!
//! // The writer keeps going; the session's pin is unaffected until refresh.
//! let a = ab.get("a").unwrap();
//! let mut d = EdgeDelta::new();
//! d.add(names["o2"], a, names["o1"]);
//! server.catalog().commit(&d);
//! assert_ne!(server.catalog().epoch(), session.epoch());
//! ```

#![warn(missing_docs)]

pub mod catalog;
mod executor;
pub mod metrics;
pub mod session;

pub use catalog::{Catalog, Commit, MAX_RETAINED_EPOCHS};
pub use metrics::{ClassSnapshot, Metrics, QueryClass, LATENCY_WINDOW};
pub use session::{QueryHandle, Server, ServerConfig, Session, SubmitError};

// The conjunctive-query surface served by `Session::submit_crpq` /
// `submit_text`, re-exported so serving clients need no direct
// `rpq_optimizer` dependency.
pub use rpq_optimizer::{Crpq, JoinPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rpq_automata::Alphabet;
    use rpq_core::{eval_product_csr, EvalRequest, Query, SourceSpec, Termination};
    use rpq_graph::{CompactionPolicy, DeltaGraph, EdgeDelta, Instance, InstanceBuilder, Oid};

    /// Exhaustive single-source answers over a pinned view, for soundness
    /// oracles.
    fn full_answers(q: &Query, view: &DeltaGraph, source: Oid) -> Vec<Oid> {
        eval_product_csr(q.nfa(), view, source).answers
    }

    /// A ring with a hub: n0 → n1 → … → n7 → n0 on `a`, hub edges on `b`.
    fn ring_with_hub() -> (Alphabet, Instance, Vec<Oid>) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..8 {
            b.edge(&format!("n{i}"), "a", &format!("n{}", (i + 1) % 8));
            b.edge("hub", "b", &format!("n{i}"));
        }
        let (inst, names) = b.finish();
        let nodes = (0..8).map(|i| names[format!("n{i}").as_str()]).collect();
        (ab, inst, nodes)
    }

    /// [`ring_with_hub`] as a catalog.
    fn workload() -> (Alphabet, Arc<Catalog>, Vec<Oid>) {
        let (ab, inst, nodes) = ring_with_hub();
        (ab, Arc::new(Catalog::from_instance(&inst)), nodes)
    }

    #[test]
    fn text_query_flows_parse_plan_eval() {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab);
        let session = server.session();
        let handle = session
            .submit_text("a.a*", SourceSpec::Source(nodes[0]))
            .unwrap();
        assert_eq!(handle.class(), QueryClass::Single);
        let resp = handle.join();
        assert_eq!(resp.termination, Termination::Complete);
        assert_eq!(resp.nodes().unwrap().len(), 8, "the whole ring");
        // the planner stamped the response
        assert_eq!(resp.stats.plan_cache_hits + resp.stats.plan_cache_misses, 1);
        assert_eq!(server.metrics().class(QueryClass::Single).queries, 1);
        // bad text is a parse error, not a panic
        let err = session.submit_text("a.(b", SourceSpec::Source(nodes[0]));
        assert!(matches!(err, Err(SubmitError::Parse(_))), "{err:?}");
    }

    #[test]
    fn admission_rejects_above_cap_and_frees_on_join() {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab).with_config(ServerConfig {
            max_concurrent: 2,
            ..ServerConfig::default()
        });
        let session = server.session();
        let q = server.parse("a*").unwrap();
        let h1 = session.submit(&q, EvalRequest::source(nodes[0])).unwrap();
        let h2 = session.submit(&q, EvalRequest::source(nodes[1])).unwrap();
        // Slots are held until handles are joined/dropped, so the third
        // submission is rejected deterministically.
        match session.submit(&q, EvalRequest::source(nodes[2])) {
            Err(SubmitError::Rejected { active, cap }) => {
                assert_eq!((active, cap), (2, 2));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(server.metrics().rejected(), 1);
        assert_eq!(server.active_queries(), 2);
        h1.join();
        // the freed slot admits again
        let h3 = session.submit(&q, EvalRequest::source(nodes[2])).unwrap();
        h3.join();
        h2.join();
        assert_eq!(server.active_queries(), 0);
    }

    #[test]
    fn default_budget_terminates_runaways_soundly() {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab).with_config(ServerConfig {
            max_concurrent: 4,
            default_budget: Some(3),
            ..ServerConfig::default()
        });
        let session = server.session();
        let q = server.parse("(a+b)*").unwrap();
        let resp = session
            .submit(&q, EvalRequest::source(nodes[0]))
            .unwrap()
            .join();
        assert_eq!(resp.termination, Termination::BudgetExhausted);
        assert!(resp.stats.edges_scanned <= 3, "budget binds");
        // answers are a sound subset of the exhaustive run
        let full = full_answers(&q, session.snapshot(), nodes[0]);
        for n in resp.nodes().unwrap() {
            assert!(full.contains(n));
        }
        assert_eq!(
            server.metrics().class(QueryClass::Single).budget_exhausted,
            1
        );
        // an explicit request budget overrides the default
        let resp = session
            .submit(&q, EvalRequest::source(nodes[0]).with_budget(1_000_000))
            .unwrap()
            .join();
        assert_eq!(resp.termination, Termination::Complete);
        assert_eq!(resp.nodes().unwrap(), &full[..]);
        // the synchronous entry points are stamped too
        let sync = session.run(&q, &EvalRequest::source(nodes[0]));
        assert_eq!(sync.termination, Termination::BudgetExhausted);
        assert!(sync.stats.edges_scanned <= 3, "budget binds on run");
        let crpq = server.parse_crpq("ans(x, y) :- x -[(a+b)*]-> y").unwrap();
        let sync = session.run_crpq(&crpq, &EvalRequest::source(nodes[0]));
        assert_eq!(sync.termination, Termination::BudgetExhausted);
        assert!(sync.stats.edges_scanned <= 3, "budget binds on run_crpq");
        let own = EvalRequest::source(nodes[0]).with_budget(1_000_000);
        assert_eq!(session.run(&q, &own).nodes().unwrap(), &full[..]);
    }

    #[test]
    fn cancellation_yields_terminated_never_wrong() {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab);
        let session = server.session();
        let q = server.parse("(a+b)*").unwrap();
        let full = full_answers(&q, session.snapshot(), nodes[0]);
        for _ in 0..8 {
            let handle = session.submit(&q, EvalRequest::source(nodes[0])).unwrap();
            handle.cancel();
            let resp = handle.join();
            // cancelled either before or after the search finished — both
            // are fine, but the answers must always be sound
            for n in resp.nodes().unwrap() {
                assert!(full.contains(n));
            }
            if resp.termination == Termination::Complete {
                assert_eq!(resp.nodes().unwrap(), &full[..]);
            }
        }
    }

    #[test]
    fn sessions_pin_epochs_and_refresh_moves_forward() {
        let (ab, catalog, nodes) = workload();
        let a = ab.get("a").unwrap();
        let server = Server::new(catalog, ab).with_config(ServerConfig::default());
        let mut session = server.session();
        let q = server.parse("a").unwrap();
        let e0 = session.epoch();
        let before = session.run(&q, &EvalRequest::source(nodes[0]));

        // writer commits a new a-edge from n0; the pinned session must
        // not see it until refresh
        let mut d = EdgeDelta::new();
        d.add(nodes[0], a, nodes[4]);
        let commit = server.catalog().commit(&d);
        assert_eq!(commit.applied, 1);
        assert_eq!(session.epoch(), e0, "pin holds");
        let still = session.run(&q, &EvalRequest::source(nodes[0]));
        assert_eq!(still.nodes().unwrap(), before.nodes().unwrap());

        session.refresh();
        assert_ne!(session.epoch(), e0);
        let after = session.run(&q, &EvalRequest::source(nodes[0]));
        assert_eq!(
            after.nodes().unwrap().len(),
            before.nodes().unwrap().len() + 1
        );

        // time travel back to the pinned epoch through the retained ring
        let old = server.session_at(e0).unwrap();
        let redo = old.run(&q, &EvalRequest::source(nodes[0]));
        assert_eq!(redo.nodes().unwrap(), before.nodes().unwrap());
    }

    #[test]
    fn workers_share_one_plan_memo_and_scratch_pool() {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab);
        let session = server.session();
        let q = server.parse("a.a").unwrap();
        // Planning runs unlocked, so concurrent first probes may each
        // compile the plan: let one query finish planning before the
        // fan-out.
        let first = session.submit(&q, EvalRequest::source(nodes[0])).unwrap();
        assert!(first.join().termination.is_complete());
        let handles: Vec<_> = nodes[1..]
            .iter()
            .map(|&s| session.submit(&q, EvalRequest::source(s)).unwrap())
            .collect();
        for h in handles {
            assert!(h.join().termination.is_complete());
        }
        assert_eq!(
            server.engine().plan_cache_misses(),
            1,
            "one plan compiled, every other worker hit the memo"
        );
        assert!(server.engine().plan_cache_hits() >= nodes.len() - 1);
        assert_eq!(server.metrics().class(QueryClass::Single).queries, 8);
    }

    #[test]
    fn matrix_and_pair_classes_route_through_the_same_entry() {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab);
        let session = server.session();
        let q = server.parse("a.a*").unwrap();
        let m = session
            .submit(&q, EvalRequest::matrix(nodes.clone(), nodes.clone()))
            .unwrap();
        assert_eq!(m.class(), QueryClass::Matrix);
        let resp = m.join();
        let matrix = resp.matrix().unwrap();
        // the ring is strongly connected on `a`
        assert_eq!(matrix.reachable_count(), nodes.len() * nodes.len());
        let p = session
            .submit(&q, EvalRequest::pair(nodes[0], nodes[5]))
            .unwrap()
            .join();
        assert_eq!(p.reachable(), Some(true));
        assert_eq!(server.metrics().class(QueryClass::Pair).queries, 1);
    }

    /// A served pair runs from the end the planner picked. `hot.hot.cold`
    /// over a source fanning out 64 hot edges (each target fanning on once
    /// more) with one cold edge into the target (T12's direction workload):
    /// the plan is `Backward`, the backward search walks three edges.
    #[test]
    fn served_pair_runs_by_the_planned_direction() {
        use rpq_core::{search_pair, Direction, EvalScratch, SearchOpts};
        use rpq_graph::Instance;

        let mut ab = Alphabet::new();
        let (hot, cold) = (ab.intern("hot"), ab.intern("cold"));
        let mut inst = Instance::new();
        let source = inst.add_node();
        let mut last = source;
        for _ in 0..64 {
            let first = inst.add_node();
            last = inst.add_node();
            inst.add_edge(source, hot, first);
            inst.add_edge(first, hot, last);
        }
        let target = inst.add_node();
        inst.add_edge(last, cold, target);
        let server = Server::new(Arc::new(Catalog::from_instance(&inst)), ab);
        let session = server.session();
        let q = server.parse("hot.hot.cold").unwrap();
        assert_eq!(
            server
                .engine()
                .plan(&q, &**session.snapshot())
                .record
                .direction,
            Direction::Backward
        );
        let forward = search_pair(
            q.nfa(),
            q.reversed(),
            &**session.snapshot(),
            source,
            target,
            Direction::Forward,
            &SearchOpts::default(),
            &mut EvalScratch::new(),
        )
        .0;
        assert!(forward.reachable);

        let pair = || EvalRequest::pair(source, target);
        let served = session.submit(&q, pair()).unwrap().join();
        assert_eq!(served.reachable(), Some(true));
        assert_eq!(served.termination, Termination::Complete);
        assert!(
            served.stats.edges_scanned * 10 <= forward.stats.edges_scanned,
            "served {} vs forward {}",
            served.stats.edges_scanned,
            forward.stats.edges_scanned
        );
        // a budget below the backward scan binds on the backward search
        let budget = served.stats.edges_scanned - 1;
        let starved = session
            .submit(&q, pair().with_budget(budget))
            .unwrap()
            .join();
        assert_eq!(starved.termination, Termination::BudgetExhausted);
        assert!(starved.stats.edges_scanned <= budget);
    }

    #[test]
    fn conjunctive_text_flows_end_to_end() {
        // A 3-atom chain query through the full serving path: text →
        // parse_crpq → join planner → set-valued kernels → bindings.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..4 {
            b.edge(&format!("s{i}"), "a", &format!("m{i}"));
            b.edge(&format!("m{i}"), "b", &format!("t{i}"));
        }
        b.edge("t0", "c", "end");
        b.edge("t2", "c", "end");
        b.edge("noise", "a", "noise2");
        let (inst, names) = b.finish();
        let server = Server::new(Arc::new(Catalog::from_instance(&inst)), ab);
        let session = server.session();

        let handle = session
            .submit_text(
                "ans(x, w) :- x -[a]-> y, y -[b*]-> z, z -[c]-> w",
                SourceSpec::Conjunctive {
                    sources: None,
                    targets: None,
                },
            )
            .unwrap();
        assert_eq!(handle.class(), QueryClass::Conjunctive);
        let resp = handle.join();
        assert_eq!(resp.termination, Termination::Complete);
        let mut expected = [(names["s0"], names["end"]), (names["s2"], names["end"])];
        expected.sort_unstable();
        assert_eq!(resp.bindings().unwrap(), &expected[..]);
        // per-atom telemetry in execution order, aggregated in metrics
        assert_eq!(resp.stats.atoms.len(), 3);
        let snap = server.metrics().class(QueryClass::Conjunctive);
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.atoms_evaluated, 3);
        assert!(snap.atom_edges_scanned > 0);

        // head restriction through the request spec
        let resp = session
            .submit_text(
                "ans(x, w) :- x -[a]-> y, y -[b*]-> z, z -[c]-> w",
                SourceSpec::Conjunctive {
                    sources: Some(vec![names["s2"]]),
                    targets: None,
                },
            )
            .unwrap()
            .join();
        assert_eq!(resp.bindings().unwrap(), &[(names["s2"], names["end"])][..]);
        // second submission of the same signature hits the join-plan memo
        assert_eq!(resp.stats.plan_cache_hits + resp.stats.plan_cache_misses, 1);

        // conjunctive parse errors surface as SubmitError::Parse with spans
        let err = session.submit_text(
            "ans(x, w) :- x -[a]-> y, y -[b**)]-> w",
            SourceSpec::Conjunctive {
                sources: None,
                targets: None,
            },
        );
        assert!(matches!(err, Err(SubmitError::Parse(_))), "{err:?}");
    }

    #[test]
    fn metrics_expose_scratch_telemetry_and_no_query_fans_out() {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab).with_config(ServerConfig {
            parallelism: 4,
            ..ServerConfig::default()
        });
        let session = server.session();
        let q = server.parse("a.a*").unwrap();
        let resp = session.run(&q, &EvalRequest::source(nodes[0]));
        assert!(resp.termination.is_complete());
        let snap = server.metrics().class(QueryClass::Single);
        assert_eq!(snap.queries, 1);
        // however many threads the server may keep busy, a query takes no
        // lease and runs every level on its own thread
        assert_eq!(server.engine().worker_pool().lease(4).dop(), 1);
        let st = &resp.stats;
        assert_eq!(
            (st.parallel_levels, st.threads_used, st.steal_count),
            (0, 0, 0)
        );
        // the record path refreshed the scratch-pool counters
        assert_eq!(server.metrics().recorded(), 1);
        assert!(server.metrics().scratch_allocs() + server.metrics().scratch_reuses() >= 1);
    }

    #[test]
    fn reader_pinned_before_compaction_is_never_disturbed() {
        let (ab, catalog, nodes) = workload();
        let a = ab.get("a").unwrap();
        let catalog = Arc::new(
            Arc::try_unwrap(catalog)
                .unwrap_or_else(|_| unreachable!("sole owner"))
                .with_policy(CompactionPolicy {
                    min_log_len: 2,
                    max_log_ratio: 0.05,
                    ..CompactionPolicy::default()
                }),
        );
        let server = Server::new(catalog, ab);
        let session = server.session();
        let q = server.parse("a*").unwrap();
        let baseline = session.run(&q, &EvalRequest::source(nodes[0]));

        let mut compactions = 0;
        for i in 0..16 {
            let mut d = EdgeDelta::new();
            d.add(nodes[i % 8], a, nodes[(i + 3) % 8]);
            if server.catalog().commit(&d).compacted {
                compactions += 1;
            }
        }
        assert!(compactions >= 1, "the aggressive policy must fire");
        // the pinned session still answers from its epoch, bit-for-bit
        let again = session.run(&q, &EvalRequest::source(nodes[0]));
        assert_eq!(again.nodes().unwrap(), baseline.nodes().unwrap());
    }

    #[test]
    fn plans_are_served_across_a_compacting_commit() {
        // A fold reorganises storage; it must not cost the server a plan.
        // The commit that trips the policy swaps one a-edge of `noise` for
        // another, so no statistic moves and the join-plan memo (exact
        // keys only) can hit as well as the path-plan memo.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..4 {
            b.edge(&format!("s{i}"), "a", &format!("m{i}"));
            b.edge(&format!("m{i}"), "b", &format!("t{i}"));
        }
        b.edge("t0", "c", "end");
        b.edge("noise", "a", "noise2");
        let (inst, names) = b.finish();
        let a = ab.get("a").unwrap();
        let catalog = Catalog::from_instance(&inst).with_policy(CompactionPolicy {
            min_log_len: 2,
            max_log_ratio: 0.0,
            ..CompactionPolicy::default()
        });
        let server = Server::new(Arc::new(catalog), ab);
        let mut session = server.session();
        let path = ("a.b*.c", SourceSpec::Source(names["s0"]));
        let crpq = (
            "ans(x, w) :- x -[a]-> y, y -[b*]-> z, z -[c]-> w",
            SourceSpec::Conjunctive {
                sources: None,
                targets: None,
            },
        );
        let run = |session: &Session| {
            [&path, &crpq].map(|(text, spec)| {
                let resp = session.submit_text(text, spec.clone()).unwrap().join();
                assert_eq!(resp.termination, Termination::Complete);
                resp
            })
        };

        let cold = run(&session);
        assert!(cold.iter().all(|r| r.stats.plan_cache_misses > 0));

        let mut d = EdgeDelta::new();
        d.del(names["noise"], a, names["noise2"]);
        d.add(names["noise"], a, names["end"]);
        let before = session.epoch();
        let commit = server.catalog().commit(&d);
        assert!(commit.compacted, "the policy must fire on this commit");
        session.refresh();
        assert_eq!(session.epoch(), commit.epoch);
        assert_eq!(session.epoch().base, before.base);
        let old = server.session_at(before).unwrap();
        assert!(!session.snapshot().shares_base_with(old.snapshot()));

        let warm = run(&session);
        for (cold, warm) in cold.iter().zip(&warm) {
            assert_eq!(warm.stats.plan_cache_misses, 0, "a fold costs no plan");
            assert!(warm.stats.plan_cache_hits > 0);
            assert_eq!(warm.nodes(), cold.nodes());
            assert_eq!(warm.bindings(), cold.bindings());
        }
    }

    /// An oid that is no object of the snapshot is not an error and not a
    /// panic: it seeds no search and is dropped from target and bound
    /// sets, its item answers empty, valid items answer exactly, the
    /// termination stays `Complete`, and the admission slot is released.
    #[test]
    fn out_of_range_oids_answer_empty_for_every_request_shape() {
        use rpq_core::eval_oracle;

        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..8 {
            b.edge(&format!("n{i}"), "a", &format!("n{}", (i + 1) % 8));
            b.edge("hub", "b", &format!("n{i}"));
        }
        let (inst, names) = b.finish();
        assert_eq!(inst.num_nodes(), 9);
        let (ok, also_ok) = (names["n0"], names["n3"]);
        let (bad, worse) = (Oid(1000), Oid(u32::MAX));
        let server = Server::new(Arc::new(Catalog::from_instance(&inst)), ab);
        let session = server.session();
        let text = "a.a*";
        let nfa = server.parse(text).unwrap().nfa().clone();
        // p(o, I) by definition; every ring node reaches the whole ring
        let oracle = |s: Oid| eval_oracle(&nfa, &inst, s, None);
        assert_eq!(oracle(ok).len(), 8);
        let run = |spec: SourceSpec| {
            let resp = session.submit_text(text, spec).unwrap().join();
            assert_eq!(resp.termination, Termination::Complete);
            resp
        };

        assert!(run(SourceSpec::Source(worse)).nodes().unwrap().is_empty());
        assert!(run(SourceSpec::Target(bad)).nodes().unwrap().is_empty());

        let resp = run(SourceSpec::Sources(vec![ok, bad, also_ok]));
        let per = resp.batch().unwrap().per_source().unwrap();
        assert_eq!(per.len(), 3, "alignment with the request survives");
        assert_eq!(per[0], oracle(ok));
        assert!(per[1].is_empty());
        assert_eq!(per[2], oracle(also_ok));

        let resp = run(SourceSpec::Targets(vec![worse, ok]));
        let per = resp.batch().unwrap().per_source().unwrap();
        assert!(per[0].is_empty());
        assert_eq!(per[1], oracle(ok), "on a ring, reaching = reached");

        for (source, target) in [(ok, bad), (worse, ok), (bad, worse)] {
            let resp = run(SourceSpec::Pair { source, target });
            assert_eq!(resp.reachable(), Some(false));
        }
        assert_eq!(
            run(SourceSpec::Pair {
                source: ok,
                target: also_ok
            })
            .reachable(),
            Some(true)
        );

        let resp = run(SourceSpec::Matrix {
            sources: vec![bad, ok],
            targets: vec![also_ok, worse, ok],
        });
        let m = resp.matrix().unwrap();
        assert_eq!((m.sources().len(), m.targets().len()), (2, 3));
        let row = |i: usize| (0..3).map(|j| m.reachable(i, j)).collect::<Vec<_>>();
        assert_eq!(row(0), [false, false, false]);
        assert_eq!(row(1), [true, false, true]);

        let from_ok: Vec<(Oid, Oid)> = oracle(ok).into_iter().map(|t| (ok, t)).collect();
        let resp = run(SourceSpec::Conjunctive {
            sources: Some(vec![bad, ok]),
            targets: None,
        });
        assert_eq!(resp.bindings().unwrap(), from_ok);
        let resp = run(SourceSpec::Conjunctive {
            sources: Some(vec![ok, worse]),
            targets: Some(vec![bad, also_ok]),
        });
        assert_eq!(resp.bindings().unwrap(), [(ok, also_ok)]);
        let resp = run(SourceSpec::Conjunctive {
            sources: None,
            targets: Some(vec![worse]),
        });
        assert!(resp.bindings().unwrap().is_empty());

        // the same through the conjunctive executor (head restrictions)
        let crpq = server
            .parse_crpq("ans(x, z) :- x -[a]-> y, y -[a*]-> z")
            .unwrap();
        let submit = |spec: SourceSpec| {
            let handle = session.submit_crpq(&crpq, EvalRequest::new(spec)).unwrap();
            let resp = handle.join();
            assert_eq!(resp.termination, Termination::Complete);
            resp
        };
        let resp = submit(SourceSpec::Sources(vec![bad, ok]));
        assert_eq!(resp.bindings().unwrap(), from_ok);
        assert!(submit(SourceSpec::Source(worse))
            .bindings()
            .unwrap()
            .is_empty());
        let resp = submit(SourceSpec::Matrix {
            sources: vec![ok, bad],
            targets: vec![worse, also_ok],
        });
        assert_eq!(resp.bindings().unwrap(), [(ok, also_ok)]);

        assert_eq!(server.active_queries(), 0, "every admission slot came back");
    }

    // -----------------------------------------------------------------
    // The hand-off: which thread runs a submitted query
    // -----------------------------------------------------------------

    use crate::executor::tests::hold_busy;
    use rpq_core::{eval_oracle, EvalResponse};

    /// Wait, without touching any handle, until `n` queries are recorded.
    fn await_recorded(server: &Server, n: usize) {
        while server.metrics().recorded() < n {
            std::thread::yield_now();
        }
    }

    /// `handle`'s response once an executor thread has produced it: the
    /// join only collects.
    fn join_after_finish(handle: QueryHandle) -> EvalResponse {
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        handle.join()
    }

    fn two_thread_server(max_concurrent: usize) -> (Server, Vec<Oid>) {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab).with_config(ServerConfig {
            max_concurrent,
            default_budget: None,
            parallelism: 2,
        });
        (server, nodes)
    }

    #[test]
    fn a_submitted_query_starts_without_its_handle() {
        let (server, nodes) = two_thread_server(4);
        let session = server.session();
        let q = server.parse("a.a*").unwrap();
        // submit, never join: it runs, and the handle says so
        let kept = session.submit(&q, EvalRequest::source(nodes[0])).unwrap();
        await_recorded(&server, 1);
        while !kept.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(server.active_queries(), 1, "unjoined: slot still held");

        // drop unjoined while it cannot have started: the slot comes back
        // at once, the query still runs
        let held = hold_busy(server.executor());
        let dropped = session.submit(&q, EvalRequest::source(nodes[1])).unwrap();
        assert_eq!(server.active_queries(), 2);
        drop(dropped);
        assert_eq!(server.active_queries(), 1);
        assert_eq!(server.executor().queued(), 1, "detached, still queued");
        assert_eq!(server.metrics().recorded(), 1);
        held.release();
        await_recorded(&server, 2);
        assert_eq!(server.metrics().class(QueryClass::Single).queries, 2);
        assert_eq!(kept.join().nodes().unwrap().len(), 8);
        assert_eq!(server.active_queries(), 0);
    }

    #[test]
    fn who_runs_a_query_does_not_show_in_its_response() {
        let (server, nodes) = two_thread_server(4);
        let session = server.session();
        let q = server.parse("a.a*").unwrap();
        let crpq = server
            .parse_crpq("ans(x, w) :- x -[b]-> y, y -[a*]-> z, z -[a]-> w")
            .unwrap();
        let some = || nodes[..3].to_vec();
        let specs = [
            SourceSpec::Source(nodes[0]),
            SourceSpec::Sources(some()),
            SourceSpec::Target(nodes[2]),
            SourceSpec::Targets(some()),
            SourceSpec::Pair {
                source: nodes[0],
                target: nodes[5],
            },
            SourceSpec::Matrix {
                sources: some(),
                targets: some(),
            },
            SourceSpec::Conjunctive {
                sources: Some(some()),
                targets: None,
            },
        ];
        let same = |what: &str, a: &EvalResponse, b: &EvalResponse| {
            assert_eq!(
                format!("{:?}", a.answers),
                format!("{:?}", b.answers),
                "{what}"
            );
            assert_eq!(a.termination, b.termination, "{what}");
            assert_eq!(a.stats, b.stats, "{what}");
        };
        // every shape through the path-query entry points, then a 3-atom
        // CRPQ through the conjunctive ones
        let mut cases: Vec<(EvalRequest, bool)> = specs
            .into_iter()
            .map(|spec| (EvalRequest::new(spec), false))
            .collect();
        let unrestricted = SourceSpec::Conjunctive {
            sources: None,
            targets: None,
        };
        cases.push((EvalRequest::new(unrestricted), true));
        for (req, conjunctive) in &cases {
            let what = format!("{:?} (crpq: {conjunctive})", req.spec);
            let run = || match conjunctive {
                true => session.run_crpq(&crpq, req),
                false => session.run(&q, req),
            };
            let submit = || match conjunctive {
                true => session.submit_crpq(&crpq, req.clone()).unwrap(),
                false => session.submit(&q, req.clone()).unwrap(),
            };
            // plan memo and scratch pool warm: the counters below are the
            // steady state's
            run();
            let on_caller = run();
            let on_executor = join_after_finish(submit());
            let held = hold_busy(server.executor());
            let handle = submit();
            assert_eq!(server.executor().queued(), 1, "{what}: nobody started it");
            let on_joiner = handle.join();
            held.release();
            same(&what, &on_executor, &on_caller);
            same(&what, &on_joiner, &on_caller);
        }
        assert_eq!(server.active_queries(), 0);
    }

    #[test]
    fn controls_bind_on_a_joiner_run_query() {
        let (ab, catalog, nodes) = workload();
        let server = Server::new(catalog, ab).with_config(ServerConfig {
            max_concurrent: 4,
            default_budget: Some(3),
            parallelism: 2,
        });
        let session = server.session();
        let q = server.parse("(a+b)*").unwrap();
        let full = full_answers(&q, session.snapshot(), nodes[0]);
        let held = hold_busy(server.executor());

        // cancelled before anyone started it: the joiner runs it, and the
        // raised flag stops it before it scans an edge
        let unbudgeted = EvalRequest::source(nodes[0]).with_budget(1_000_000);
        let handle = session.submit(&q, unbudgeted).unwrap();
        handle.cancel();
        assert!(!handle.is_finished());
        let resp = handle.join();
        assert_eq!(resp.termination, Termination::Cancelled);
        assert!(resp.nodes().unwrap().len() < full.len());
        assert!(resp.nodes().unwrap().iter().all(|n| full.contains(n)));

        // the server's default budget is stamped before the hand-off
        let resp = session
            .submit(&q, EvalRequest::source(nodes[0]))
            .unwrap()
            .join();
        assert_eq!(resp.termination, Termination::BudgetExhausted);
        assert!(resp.stats.edges_scanned <= 3);
        assert!(resp.nodes().unwrap().iter().all(|n| full.contains(n)));
        held.release();
        let m = server.metrics().class(QueryClass::Single);
        assert_eq!((m.cancelled, m.budget_exhausted), (1, 1));
    }

    #[test]
    fn a_handle_outlives_its_server() {
        let (server, nodes) = two_thread_server(4);
        let q = server.parse("a.a*").unwrap();
        let held = hold_busy(server.executor());
        let session = server.session();
        let queued = session.submit(&q, EvalRequest::source(nodes[3])).unwrap();
        let metrics = server.metrics().clone();
        drop(session);
        // `Server`'s drop waits for its executor threads, and they leave
        // only once the queue is drained: release the blockers from
        // another thread, after the drop has begun.
        std::thread::scope(|s| {
            s.spawn(|| held.release());
            drop(server);
        });
        assert_eq!(metrics.recorded(), 1, "drained before drop returned");
        assert!(queued.is_finished());
        assert_eq!(queued.join().nodes().unwrap().len(), 8);
    }

    #[test]
    fn a_panicking_query_poisons_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let (server, nodes) = two_thread_server(4);
        let session = server.session();
        let q = server.parse("a.a*").unwrap();
        let boom = || {
            session
                .enqueue(
                    QueryClass::Single,
                    EvalRequest::source(nodes[0]),
                    |_, _, _| panic!("boom"),
                )
                .unwrap()
        };
        fn reraised(join: impl FnOnce() -> EvalResponse) {
            let payload = catch_unwind(AssertUnwindSafe(join)).expect_err("join re-raises");
            let message = payload.downcast::<String>().expect("a formatted message");
            assert!(message.starts_with("query worker panicked"), "{message}");
        }

        // an executor thread ran it
        reraised(|| join_after_finish(boom()));
        assert_eq!(server.active_queries(), 0);
        // the joiner ran it
        let held = hold_busy(server.executor());
        reraised(|| boom().join());
        assert_eq!(server.active_queries(), 0);
        held.release();
        // dropped unjoined: nobody hears of it, nothing breaks
        drop(boom());

        for i in 0..1_000 {
            let resp = session
                .submit(&q, EvalRequest::source(nodes[i % 8]))
                .unwrap()
                .join();
            assert_eq!(resp.nodes().unwrap().len(), 8);
        }
        // the one executor thread is still there to run what nobody joins
        let detached = session.submit(&q, EvalRequest::source(nodes[0])).unwrap();
        await_recorded(&server, 1_001);
        drop(detached);
        assert_eq!(server.metrics().class(QueryClass::Single).complete, 1_001);
        assert_eq!(server.active_queries(), 0);
        assert_eq!(server.executor().queued(), 0);
    }

    /// Four clients hammer the hand-off with every handle life cycle, on a
    /// server with no executor thread to spare (`parallelism: 1` → one
    /// thread) and with one.
    #[test]
    fn handoff_stress_every_join_returns_the_oracle_answer() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::atomic::{AtomicUsize, Ordering};

        const CLIENTS: u64 = 4;
        const STEPS: usize = 2_000;
        const CAP: usize = 4;
        for parallelism in [1, 2] {
            let (ab, inst, nodes) = ring_with_hub();
            let server = Server::new(Arc::new(Catalog::from_instance(&inst)), ab).with_config(
                ServerConfig {
                    max_concurrent: CAP,
                    default_budget: None,
                    parallelism,
                },
            );
            let q = server.parse("a.a.a*").unwrap();
            let oracle: Vec<Vec<Oid>> = nodes
                .iter()
                .map(|&s| eval_oracle(q.nfa(), &inst, s, None))
                .collect();
            let admitted = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for client in 0..CLIENTS {
                    let (server, q, nodes, oracle, admitted) =
                        (&server, &q, &nodes, &oracle, &admitted);
                    scope.spawn(move || {
                        let session = server.session();
                        let mut rng = StdRng::seed_from_u64(17 * parallelism as u64 + client);
                        let submit = |rng: &mut StdRng| {
                            let i = rng.random_range(0..nodes.len());
                            match session.submit(q, EvalRequest::source(nodes[i])) {
                                Ok(handle) => {
                                    admitted.fetch_add(1, Ordering::Relaxed);
                                    Some((i, handle))
                                }
                                Err(SubmitError::Rejected { active, cap }) => {
                                    assert!(active >= cap && cap == CAP, "{active} of {cap}");
                                    None
                                }
                                Err(e) => panic!("{e}"),
                            }
                        };
                        let exact = |(i, handle): (usize, QueryHandle)| {
                            let resp = handle.join();
                            assert_eq!(resp.termination, Termination::Complete);
                            assert_eq!(resp.nodes().unwrap(), &oracle[i][..]);
                        };
                        for _ in 0..STEPS {
                            match rng.random_range(0..4u32) {
                                0 => submit(&mut rng).into_iter().for_each(exact),
                                1 => drop(submit(&mut rng)),
                                2 => {
                                    if let Some((i, handle)) = submit(&mut rng) {
                                        handle.cancel();
                                        let resp = handle.join();
                                        let got = resp.nodes().unwrap();
                                        match resp.termination {
                                            Termination::Complete => {
                                                assert_eq!(got, &oracle[i][..])
                                            }
                                            _ => assert!(got.iter().all(|n| oracle[i].contains(n))),
                                        }
                                    }
                                }
                                _ => {
                                    let burst: Vec<_> =
                                        (0..8).filter_map(|_| submit(&mut rng)).collect();
                                    burst.into_iter().rev().for_each(exact);
                                }
                            }
                        }
                    });
                }
            });
            assert_eq!(server.active_queries(), 0);
            // the dropped handles' queries finish on their own
            await_recorded(&server, admitted.load(Ordering::Relaxed));
            assert_eq!(server.executor().queued(), 0);
            assert_eq!(
                server.metrics().recorded(),
                admitted.load(Ordering::Relaxed)
            );
        }
    }

    /// A joiner's claim takes the job out of the queue: with no executor
    /// thread free to drain it, the queue still never outgrows the
    /// outstanding handles.
    #[test]
    fn claimed_queries_leave_the_queue() {
        let (server, nodes) = two_thread_server(4);
        let session = server.session();
        let held = hold_busy(server.executor());
        for i in 0..100_000 {
            let handle = session
                .submit_text("a.a", SourceSpec::Source(nodes[i % 8]))
                .unwrap();
            assert!(server.executor().queued() <= server.active_queries());
            assert_eq!(handle.join().nodes().unwrap().len(), 1);
            assert_eq!(server.executor().queued(), 0);
        }
        held.release();
        assert_eq!(server.active_queries(), 0);
    }
}
