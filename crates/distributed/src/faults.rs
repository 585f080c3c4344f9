//! Fault injection: what breaks when Section 3.1's assumptions fail.
//!
//! The paper is explicit about its fault model: "here we ignore node or
//! network failures. In particular, we assume that every message
//! eventually reaches its destination." This module makes that assumption
//! *testable* by injecting message **drops** and **duplications** into the
//! simulator and reporting which protocol guarantees survive:
//!
//! * **Drops** break termination detection: a lost `done`/`akn` leaves the
//!   parent waiting forever, and a lost `answer` loses results. The
//!   protocol (correctly, per its fault model) never recovers — the report
//!   shows `terminated = false`.
//! * **Duplications** are *mostly* harmless — `answer`s are deduplicated at
//!   the destination, stray `done`/`akn` resolutions are ignored — with one
//!   genuinely interesting exception: a duplicated `subquery` hits the
//!   receiver's dedup table and triggers an **immediate `done` carrying the
//!   original task's mid**, which the parent interprets as completion of a
//!   subtree that is still running. Termination can then be declared while
//!   answers are in flight — visible in the report as
//!   `premature_termination` (root `done` delivered before the last
//!   `answer`). Answers still all arrive by quiescence in the simulator,
//!   but a real initiator that stops listening at `done` would lose them.
//!
//! The tests pin down each behavior with seeds, and `tests/fault_golden.rs`
//! pins every report of a sweep over drop and duplicate rates, kinds and
//! seeds: the paper's reliability assumption is load-bearing exactly where
//! its termination-detection argument uses "when it has received the ack
//! … and the done" (Section 3.1).

use rpq_automata::{Alphabet, Nfa, Regex};
use rpq_graph::{Instance, Oid};

use crate::message::MessageKind;
use crate::sim::{Delivery, Simulator, TraceEvent};

/// Which messages the fault injector may affect.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability (0–100) of duplicating a message.
    pub duplicate_percent: u32,
    /// Probability (0–100) of dropping a message.
    pub drop_percent: u32,
    /// Restrict faults to one message kind (`None` = all kinds).
    pub only_kind: Option<MessageKind>,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
}

/// Observed outcome of a faulty run.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Answers the initiator had at quiescence (sorted).
    pub answers: Vec<Oid>,
    /// Does that equal the centralized evaluation?
    pub answers_complete: bool,
    /// Was the root `done` delivered at all?
    pub terminated: bool,
    /// Virtual time of the root `done` (when terminated).
    pub root_done_time: Option<u64>,
    /// Virtual time of the last `answer` delivery.
    pub last_answer_time: Option<u64>,
    /// Termination was declared while answers were still in flight.
    pub premature_termination: bool,
    /// Messages dropped by the injector.
    pub dropped: usize,
    /// Messages duplicated by the injector.
    pub duplicated: usize,
    /// Every delivery, in delivery order (a duplicate's copies both).
    pub trace: Vec<TraceEvent>,
}

/// Run `query` from `source` under a fault plan: the simulator's event
/// loop with FIFO latency, the plan applied at every send. Unlike
/// [`Simulator::run`], this never panics on protocol-level anomalies —
/// they are what the report is for.
pub fn run_with_faults(
    instance: &Instance,
    alphabet: &Alphabet,
    source: Oid,
    query: &Regex,
    plan: &FaultPlan,
) -> FaultReport {
    let mut sim = Simulator::new(instance, alphabet, Delivery::Fifo);
    let client = sim.client;
    let traffic = sim.run_to_quiescence(source, query, Some(plan));
    let (answers, terminated) = sim.outcome(client);
    let delivered_to_client = |kind: MessageKind| {
        traffic
            .trace
            .iter()
            .filter(move |e| e.message.kind() == kind && e.message.receiver() == client)
            .map(|e| e.time)
    };
    // every `done` the client receives answers its one subquery, the root
    let root_done_time = delivered_to_client(MessageKind::Done).next();
    let last_answer_time = delivered_to_client(MessageKind::Answer).next_back();
    let centralized = rpq_core::eval_product(&Nfa::thompson(query), instance, source).answers;
    FaultReport {
        answers_complete: answers == centralized,
        answers,
        terminated,
        root_done_time,
        last_answer_time,
        premature_termination: matches!(
            (root_done_time, last_answer_time),
            (Some(d), Some(a)) if d < a
        ),
        dropped: traffic.dropped,
        duplicated: traffic.duplicated,
        trace: traffic.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::parse_regex;
    use rpq_graph::InstanceBuilder;
    use rpq_testkit::generators::fig2_graph;

    fn backbone(ab: &mut Alphabet, depth: usize) -> (Instance, Oid) {
        let mut b = InstanceBuilder::new(ab);
        for i in 0..depth {
            b.edge(&format!("n{i}"), "a", &format!("n{}", i + 1));
        }
        b.edge(&format!("n{depth}"), "b", "n0");
        let (inst, names) = b.finish();
        let n0 = names["n0"];
        (inst, n0)
    }

    #[test]
    fn no_faults_is_the_base_protocol() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let report = run_with_faults(&inst, &ab, o1, &q, &FaultPlan::default());
        assert!(report.terminated);
        assert!(report.answers_complete);
        assert!(!report.premature_termination);
        assert_eq!(report.dropped + report.duplicated, 0);
    }

    #[test]
    fn drops_break_termination_detection() {
        // Dropping any done reliably hangs the protocol: the reliability
        // assumption is load-bearing.
        let mut ab = Alphabet::new();
        let (inst, n0) = backbone(&mut ab, 8);
        let q = parse_regex(&mut ab, "a*").unwrap();
        let mut hung = 0;
        for seed in 0..20 {
            let plan = FaultPlan {
                drop_percent: 30,
                only_kind: Some(MessageKind::Done),
                seed,
                ..FaultPlan::default()
            };
            let report = run_with_faults(&inst, &ab, n0, &q, &plan);
            if report.dropped > 0 && !report.terminated {
                hung += 1;
            }
        }
        assert!(hung >= 15, "expected most runs to hang, got {hung}/20");
    }

    #[test]
    fn dropped_answers_lose_results_and_hang() {
        let mut ab = Alphabet::new();
        let (inst, n0) = backbone(&mut ab, 6);
        let q = parse_regex(&mut ab, "a*").unwrap();
        let mut incomplete = 0;
        for seed in 0..20 {
            let plan = FaultPlan {
                drop_percent: 50,
                only_kind: Some(MessageKind::Answer),
                seed,
                ..FaultPlan::default()
            };
            let report = run_with_faults(&inst, &ab, n0, &q, &plan);
            if report.dropped > 0 {
                assert!(
                    !report.terminated,
                    "a dropped answer leaves its ack pending"
                );
                if !report.answers_complete {
                    incomplete += 1;
                }
            }
        }
        assert!(
            incomplete >= 10,
            "answers should go missing: {incomplete}/20"
        );
    }

    #[test]
    fn duplicate_answers_and_acks_are_harmless() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        for seed in 0..20 {
            for kind in [MessageKind::Answer, MessageKind::Ack, MessageKind::Done] {
                let plan = FaultPlan {
                    duplicate_percent: 60,
                    only_kind: Some(kind),
                    seed,
                    ..FaultPlan::default()
                };
                let report = run_with_faults(&inst, &ab, o1, &q, &plan);
                assert!(report.terminated, "{kind:?} seed {seed}");
                assert!(report.answers_complete, "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn duplicate_subqueries_can_declare_termination_early() {
        // The one real duplication hazard: the duplicate subquery is
        // answered `done(mid)` by the dedup rule with the ORIGINAL mid,
        // releasing the parent early. Scan seeds for an occurrence.
        let mut ab = Alphabet::new();
        let (inst, n0) = backbone(&mut ab, 10);
        let q = parse_regex(&mut ab, "a*").unwrap();
        let mut premature = 0;
        let mut all_terminated_runs = 0;
        for seed in 0..60 {
            let plan = FaultPlan {
                duplicate_percent: 70,
                only_kind: Some(MessageKind::Subquery),
                seed,
                ..FaultPlan::default()
            };
            let report = run_with_faults(&inst, &ab, n0, &q, &plan);
            if report.terminated {
                all_terminated_runs += 1;
                // answers all arrive by quiescence in the simulator …
                assert!(report.answers_complete, "seed {seed}");
                if report.premature_termination {
                    premature += 1;
                }
            }
        }
        assert!(all_terminated_runs > 0);
        assert!(
            premature > 0,
            "expected at least one premature-termination occurrence in the sweep"
        );
    }
}
