//! The distributed evaluation strategy behind the unified
//! [`rpq_core::Engine`] calling convention.
//!
//! The engine shards the [`CsrGraph`] snapshot across per-object sites
//! (each site holds its sorted out-row) and runs the Section 3.1
//! subquery/answer/done/akn protocol to quiescence.
//!
//! [`EvalStats`] mapping: `pairs_visited` = subquery tasks registered
//! across object sites (the distributed pair-space analogue),
//! `edges_scanned` = protocol messages delivered (the work the network
//! pays), `classes_materialized` = 0 (quotients live in message payloads,
//! not in a table).

use rpq_core::{Engine, EvalResult, EvalStats, Query};
use rpq_graph::{CsrGraph, Oid};

use crate::sim::{Delivery, Simulator};

/// The deterministic event-driven simulator as an [`Engine`].
#[derive(Clone, Debug)]
pub struct SimulatorEngine {
    /// Message delivery policy for the simulated network.
    pub delivery: Delivery,
}

impl Default for SimulatorEngine {
    fn default() -> Self {
        SimulatorEngine {
            delivery: Delivery::Fifo,
        }
    }
}

impl Engine for SimulatorEngine {
    fn name(&self) -> &'static str {
        "distributed-sim"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        let mut sim = Simulator::from_csr(graph, query.alphabet(), self.delivery.clone());
        let run = sim.run(source, query.regex());
        let stats = EvalStats {
            pairs_visited: run.tasks_registered,
            edges_scanned: run.stats.total(),
            answers: run.answers.len(),
            ..EvalStats::default()
        };
        EvalResult {
            answers: run.answers,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Alphabet;
    use rpq_core::ProductEngine;
    use rpq_testkit::generators::fig2_graph;

    #[test]
    fn simulator_engine_agrees_with_product_through_the_trait() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let csr = CsrGraph::from(&inst);
        for qs in ["a.b*", "(a+b)*", "c.c"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            let expected = ProductEngine.eval(&query, &csr, o1).answers;
            let sim = SimulatorEngine::default().eval(&query, &csr, o1);
            assert_eq!(sim.answers, expected, "simulator on {qs}");
            assert!(sim.stats.edges_scanned >= 1);
        }
    }
}
