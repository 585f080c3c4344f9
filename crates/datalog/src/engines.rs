//! The Datalog evaluation strategies behind the unified
//! [`rpq_core::Engine`] calling convention.
//!
//! Section 2.3 shows path queries are linear monadic Datalog; this module
//! packages the three executable pipelines as engines over the shared
//! [`CsrGraph`] snapshot so the agreement suite (and any router) can drive
//! them interchangeably with the automaton engines:
//!
//! * [`DatalogNaiveEngine`] — quotient translation `D_p` + naive fixpoint;
//! * [`DatalogSeminaiveEngine`] — automaton-state translation + semi-naive
//!   fixpoint;
//! * [`DatalogMagicEngine`] — quotient translation + magic-sets rewriting
//!   focused on the `answer` predicate.
//!
//! [`EvalStats`] mapping: `pairs_visited` = distinct IDB tuples at the
//! fixpoint (the pair-space analogue), `edges_scanned` = head derivations
//! counting duplicates (the work measure), `classes_materialized` = IDB
//! predicates generated by the translation.

use rpq_core::{
    run_default, BatchResult, Engine, EvalRequest, EvalResponse, EvalResult, EvalStats, Query,
    SourceSpec,
};
use rpq_graph::{CsrGraph, Oid};

use crate::engine::{eval_naive, eval_seminaive};
use crate::magic::{eval_magic, MagicQuery};
use crate::translate::{load_csr, load_csr_multi, translate_quotient, translate_states};

fn sorted_answers(tuples: impl IntoIterator<Item = Vec<u64>>) -> Vec<Oid> {
    let mut answers: Vec<Oid> = tuples.into_iter().map(|t| Oid(t[0] as u32)).collect();
    answers.sort_unstable();
    answers.dedup();
    answers
}

/// Quotient translation `D_p` evaluated by the naive fixpoint engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct DatalogNaiveEngine;

impl Engine for DatalogNaiveEngine {
    fn name(&self) -> &'static str {
        "datalog-naive"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        let tq = translate_quotient(query.regex(), query.alphabet())
            .expect("derivative closure overflow");
        let mut db = load_csr(&tq, graph, source);
        let fx = eval_naive(&tq.program, &mut db);
        let answers = sorted_answers(db.relation(tq.answer_pred).iter().cloned());
        let stats = EvalStats {
            pairs_visited: fx.idb_tuples,
            edges_scanned: fx.derivations,
            classes_materialized: tq.idb_count,
            answers: answers.len(),
            ..EvalStats::default()
        };
        EvalResult { answers, stats }
    }
}

/// Automaton-state translation evaluated by the semi-naive engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct DatalogSeminaiveEngine;

impl Engine for DatalogSeminaiveEngine {
    fn name(&self) -> &'static str {
        "datalog-seminaive"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        let tq = translate_states(query.nfa());
        let mut db = load_csr(&tq, graph, source);
        let fx = eval_seminaive(&tq.program, &mut db);
        let answers = sorted_answers(db.relation(tq.answer_pred).iter().cloned());
        let stats = EvalStats {
            pairs_visited: fx.idb_tuples,
            edges_scanned: fx.derivations,
            classes_materialized: tq.idb_count,
            answers: answers.len(),
            ..EvalStats::default()
        };
        EvalResult { answers, stats }
    }

    /// Set-at-a-time batch: on an uncontrolled multi-source request, seed
    /// *all* sources into the `source` EDB, so the initialization rule
    /// puts every seed into the round-0 delta and one semi-naive fixpoint
    /// evaluates the whole batch. The monadic program cannot attribute
    /// answers to individual seeds, so this is a union-only strategy
    /// (`per_source() == None`). Every other request shape falls back to
    /// [`run_default`].
    fn run(&self, query: &Query, graph: &CsrGraph, req: &EvalRequest) -> EvalResponse {
        if let SourceSpec::Sources(sources) = &req.spec {
            if !req.is_controlled() {
                let tq = translate_states(query.nfa());
                let mut db = load_csr_multi(&tq, graph, sources);
                let fx = eval_seminaive(&tq.program, &mut db);
                let answers = sorted_answers(db.relation(tq.answer_pred).iter().cloned());
                let stats = EvalStats {
                    pairs_visited: fx.idb_tuples,
                    edges_scanned: fx.derivations,
                    classes_materialized: tq.idb_count,
                    answers: answers.len(),
                    ..EvalStats::default()
                };
                return EvalResponse::from_batch(BatchResult::union_only(answers), stats);
            }
        }
        run_default(self, query, graph, req)
    }
}

/// Quotient translation with the magic-sets rewriting applied for the
/// `answer` predicate before evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct DatalogMagicEngine;

impl Engine for DatalogMagicEngine {
    fn name(&self) -> &'static str {
        "datalog-magic"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        let tq = translate_quotient(query.regex(), query.alphabet())
            .expect("derivative closure overflow");
        let db = load_csr(&tq, graph, source);
        let (tuples, mstats) = eval_magic(
            &tq.program,
            &db,
            &MagicQuery {
                pred: tq.answer_pred,
                pattern: vec![None],
            },
        );
        let answers = sorted_answers(tuples);
        let stats = EvalStats {
            pairs_visited: mstats.fixpoint.idb_tuples,
            edges_scanned: mstats.fixpoint.derivations,
            classes_materialized: tq.idb_count,
            answers: answers.len(),
            ..EvalStats::default()
        };
        EvalResult { answers, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Alphabet;
    use rpq_core::ProductEngine;
    use rpq_graph::InstanceBuilder;

    #[test]
    fn datalog_engines_agree_with_product_through_the_trait() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "b", "o2");
        b.edge("o2", "c", "o4");
        let (inst, names) = b.finish();
        let o1 = names["o1"];
        let csr = CsrGraph::from(&inst);
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(DatalogNaiveEngine),
            Box::new(DatalogSeminaiveEngine),
            Box::new(DatalogMagicEngine),
        ];
        for qs in ["a.b*", "(a+b)*.c", "a.b.b", "[]"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            let expected = ProductEngine.eval(&query, &csr, o1).answers;
            for e in &engines {
                let got = e.eval(&query, &csr, o1);
                assert_eq!(got.answers, expected, "{} on {qs}", e.name());
                assert!(got.stats.classes_materialized > 0 || qs == "[]");
            }
        }
    }

    #[test]
    fn seminaive_batch_seeds_all_sources_into_one_fixpoint() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "b", "o2");
        b.edge("o4", "a", "o3");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let sources = [names["o1"], names["o4"]];
        for qs in ["a.b*", "(a+b)*", "b"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            let resp =
                DatalogSeminaiveEngine.run(&query, &csr, &EvalRequest::sources(sources.to_vec()));
            let batch = resp.batch().expect("batch payload");
            assert!(batch.per_source().is_none(), "union-only strategy");
            let mut expected: Vec<Oid> = sources
                .iter()
                .flat_map(|&s| ProductEngine.eval(&query, &csr, s).answers)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(batch.union(), &expected[..], "{qs}");
        }
    }
}
