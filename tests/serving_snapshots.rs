//! Snapshot isolation under real concurrency: reader threads pinned to
//! old epochs evaluate through the serving layer while a writer thread
//! keeps absorbing deltas and triggering copy-on-write compactions.
//!
//! The oracle is a **single-threaded rebuild**: the same delta sequence
//! applied to a fresh overlay, with answers recorded after every prefix.
//! Every concurrent observation `(epoch, answers)` must match the rebuild
//! at exactly that epoch's prefix — readers see one consistent version,
//! never a torn mix, and a compaction never moves data under a pinned
//! snapshot. Early termination (budget, cancellation) must always yield
//! `Termination` with a *sound subset* of that same oracle, never a wrong
//! answer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use rpq::automata::Alphabet;
use rpq::core::{EvalRequest, Query, Termination};
use rpq::graph::{CompactionPolicy, DeltaGraph, EdgeDelta, Instance, InstanceBuilder, Oid};
use rpq::server::{Catalog, Commit, Server, ServerConfig};

const RING: u32 = 32;
const ROUNDS: usize = 64;

/// A directed `a`-ring over `RING` nodes. Deleting one ring edge makes
/// reachability from `n0` stop at the gap, so the delta stream below
/// changes the answer set at nearly every epoch.
fn ring() -> (Alphabet, Instance, Oid) {
    let mut ab = Alphabet::new();
    let mut b = InstanceBuilder::new(&mut ab);
    for i in 0..RING {
        b.edge(&format!("n{i}"), "a", &format!("n{}", (i + 1) % RING));
    }
    let (inst, names) = b.finish();
    let n0 = names["n0"];
    (ab, inst, n0)
}

/// The deterministic churn: a sliding window of cuts. Round `r` cuts ring
/// edge `r` and heals edge `r - 3`, so roughly three edges are always
/// missing and the overlay log never empties out — which keeps tripping
/// an aggressive compaction policy while the answer set keeps moving.
fn churn() -> Vec<EdgeDelta> {
    let ab = {
        let (ab, _, _) = ring();
        ab
    };
    let a = ab.get("a").unwrap();
    (0..ROUNDS)
        .map(|round| {
            let mut d = EdgeDelta::new();
            let cut = round as u32 % RING;
            d.del(Oid(cut), a, Oid((cut + 1) % RING));
            if round >= 3 {
                let heal = (round - 3) as u32 % RING;
                d.add(Oid(heal), a, Oid((heal + 1) % RING));
            }
            d
        })
        .collect()
}

/// Oracle: answers of `query` from `n0` after every prefix of `deltas`,
/// computed sequentially on one thread with compaction disabled.
fn rebuild_oracle(inst: &Instance, deltas: &[EdgeDelta], query: &Query, n0: Oid) -> Vec<Vec<Oid>> {
    let mut dg = DeltaGraph::from_instance(inst);
    let engine = rpq::core::ProductEngine;
    let mut out = Vec::with_capacity(deltas.len() + 1);
    let answers = |dg: &DeltaGraph| {
        let mut a = rpq::core::eval_product_csr(query.nfa(), dg, n0).answers;
        a.sort_unstable();
        a
    };
    let _ = &engine;
    out.push(answers(&dg));
    for d in deltas {
        dg.apply_delta(d);
        out.push(answers(&dg));
    }
    out
}

fn prefix_of(initial: rpq::graph::Epoch, commits: &[Commit]) -> HashMap<rpq::graph::Epoch, usize> {
    let mut map = HashMap::new();
    map.insert(initial, 0);
    for (i, c) in commits.iter().enumerate() {
        map.insert(c.epoch, i + 1);
    }
    map
}

#[test]
fn pinned_readers_agree_with_a_sequential_rebuild_at_their_epoch() {
    let (_, inst, n0) = ring();
    let deltas = churn();
    let catalog = Arc::new(Catalog::from_instance(&inst).with_policy(CompactionPolicy {
        min_log_len: 2,
        max_log_ratio: 0.01,
        ..CompactionPolicy::default()
    }));
    let server = Arc::new(Server::new(catalog.clone(), Alphabet::new()));
    let query = server.parse("a.a*").unwrap();
    let oracle = rebuild_oracle(&inst, &deltas, &query, n0);
    let initial = catalog.epoch();

    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let catalog = catalog.clone();
        let deltas = deltas.clone();
        let done = done.clone();
        thread::spawn(move || {
            let commits: Vec<Commit> = deltas
                .iter()
                .map(|d| {
                    let c = catalog.commit(d);
                    thread::yield_now();
                    c
                })
                .collect();
            done.store(true, Ordering::SeqCst);
            commits
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let server = server.clone();
            let query = query.clone();
            let done = done.clone();
            thread::spawn(move || {
                let mut observations = Vec::new();
                let mut iters = 0usize;
                loop {
                    // At least 16 iterations each, and keep going until the
                    // writer is done so the tail epochs get observed too.
                    iters += 1;
                    let finished = done.load(Ordering::SeqCst) && iters >= 16;
                    let session = server.session();
                    let epoch = session.epoch();
                    let resp = session.run(&query, &EvalRequest::source(n0));
                    assert_eq!(resp.termination, Termination::Complete);
                    let mut answers = resp.nodes().expect("node answers").to_vec();
                    answers.sort_unstable();
                    // Re-running against the same pinned session must be
                    // bit-identical even mid-churn: the snapshot is frozen.
                    let again = session.run(&query, &EvalRequest::source(n0));
                    let mut answers2 = again.nodes().expect("node answers").to_vec();
                    answers2.sort_unstable();
                    assert_eq!(answers, answers2, "pinned snapshot moved under a reader");
                    assert_eq!(session.epoch(), epoch);
                    observations.push((epoch, answers));
                    if finished {
                        break;
                    }
                    thread::yield_now();
                }
                observations
            })
        })
        .collect();

    let commits = writer.join().unwrap();
    assert!(
        catalog.compactions() >= 3,
        "the aggressive policy must compact under this churn (got {})",
        catalog.compactions()
    );
    let prefix = prefix_of(initial, &commits);
    let mut checked = 0usize;
    for handle in readers {
        for (epoch, answers) in handle.join().unwrap() {
            let i = *prefix
                .get(&epoch)
                .unwrap_or_else(|| panic!("reader pinned unpublished epoch {epoch:?}"));
            assert_eq!(
                answers, oracle[i],
                "epoch {epoch:?} (prefix {i}) diverged from the sequential rebuild"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 8,
        "readers made too few observations ({checked})"
    );
    // The very last published epoch equals the full rebuild.
    let last = server.session();
    let mut final_answers = last
        .run(&query, &EvalRequest::source(n0))
        .nodes()
        .expect("node answers")
        .to_vec();
    final_answers.sort_unstable();
    assert_eq!(final_answers, *oracle.last().unwrap());
}

#[test]
fn budget_and_cancellation_terminate_soundly_under_churn() {
    let (_, inst, n0) = ring();
    let deltas = churn();
    let catalog = Arc::new(Catalog::from_instance(&inst).with_policy(CompactionPolicy {
        min_log_len: 2,
        max_log_ratio: 0.01,
        ..CompactionPolicy::default()
    }));
    let server = Arc::new(Server::new(catalog.clone(), Alphabet::new()).with_config(
        ServerConfig {
            max_concurrent: 128,
            default_budget: None,
            ..ServerConfig::default()
        },
    ));
    let query = server.parse("a.a*").unwrap();
    let oracle = rebuild_oracle(&inst, &deltas, &query, n0);
    let initial = catalog.epoch();

    let writer = {
        let catalog = catalog.clone();
        let deltas = deltas.clone();
        thread::spawn(move || deltas.iter().map(|d| catalog.commit(d)).collect::<Vec<_>>())
    };

    // Interleave budgeted and cancelled submissions with the writer.
    let mut outcomes = Vec::new();
    for round in 0..48usize {
        let session = server.session();
        let epoch = session.epoch();
        if round % 3 == 2 {
            // Cancel immediately after submission.
            let handle = session
                .submit(&query, EvalRequest::source(n0))
                .expect("under cap");
            handle.cancel();
            outcomes.push((epoch, None, handle.join()));
        } else {
            let budget = [0, 1, 2, 5, 9, 17][round % 6];
            let handle = session
                .submit(&query, EvalRequest::source(n0).with_budget(budget))
                .expect("under cap");
            outcomes.push((epoch, Some(budget), handle.join()));
        }
        thread::yield_now();
    }
    let commits = writer.join().unwrap();
    let prefix = prefix_of(initial, &commits);

    for (epoch, budget, resp) in outcomes {
        let expect = &oracle[prefix[&epoch]];
        let mut answers = resp.nodes().expect("node answers").to_vec();
        answers.sort_unstable();
        match resp.termination {
            Termination::Complete => {
                assert_eq!(&answers, expect, "complete answer diverged at {epoch:?}");
            }
            Termination::BudgetExhausted => {
                let budget = budget.expect("only budgeted queries exhaust budgets");
                assert!(
                    resp.stats.edges_scanned <= budget,
                    "scanned {} > budget {budget}",
                    resp.stats.edges_scanned
                );
                assert!(
                    answers.iter().all(|o| expect.contains(o)),
                    "budget-terminated answers are not a subset at {epoch:?}"
                );
            }
            Termination::Cancelled => {
                assert!(
                    answers.iter().all(|o| expect.contains(o)),
                    "cancelled answers are not a subset at {epoch:?}"
                );
            }
        }
        if let Some(b) = budget {
            assert!(
                resp.stats.edges_scanned <= b,
                "budget {b} not respected even on completion"
            );
        }
    }
    assert_eq!(server.active_queries(), 0, "all admission slots released");
}
