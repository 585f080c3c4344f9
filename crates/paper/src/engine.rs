//! The reproduction's [`Engine`] implementations: the two explicit-quotient
//! strategies of Section 2.2 and the streaming evaluator of Remark 2.1,
//! behind the same trait as `rpq-core`'s [`rpq_core::ProductEngine`] and
//! [`rpq_core::OracleEngine`], so the agreement suites drive them all
//! through one [`Engine::run`].

use rpq_core::{Engine, EvalResult, EvalStats, Query};
use rpq_graph::{CsrGraph, Oid};

use crate::quotient::{eval_derivative_csr, eval_quotient_dfa_csr};
use crate::streaming::StreamingEval;

/// Explicit quotients as lazily determinized state sets
/// ([`crate::eval_quotient_dfa_csr`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct QuotientDfaEngine;

impl Engine for QuotientDfaEngine {
    fn name(&self) -> &'static str {
        "quotient-dfa"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        eval_quotient_dfa_csr(query.nfa(), graph, source)
    }
}

/// Syntactic quotients via Brzozowski derivatives
/// ([`crate::eval_derivative_csr`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct DerivativeEngine;

impl Engine for DerivativeEngine {
    fn name(&self) -> &'static str {
        "derivative"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        eval_derivative_csr(query.regex(), graph, source)
    }
}

/// The pull-based streaming evaluator of Remark 2.1, run to completion
/// under a node-expansion budget (the snapshot is finite, so a budget of at
/// least `|Q| · |V|` always terminates).
#[derive(Clone, Copy, Debug)]
pub struct StreamingEngine {
    /// Node-expansion budget (see [`StreamingEval`]).
    pub budget: usize,
}

impl Default for StreamingEngine {
    fn default() -> Self {
        StreamingEngine { budget: usize::MAX }
    }
}

impl Engine for StreamingEngine {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        let mut ev = StreamingEval::new(query.nfa(), graph, source.index() as u64, self.budget);
        let mut answers: Vec<Oid> = ev
            .collect_all()
            .into_iter()
            .map(|n| Oid(n as u32))
            .collect();
        answers.sort_unstable();
        let stats = EvalStats {
            pairs_visited: ev.pairs_discovered(),
            edges_scanned: ev.edges_fetched(),
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
    use rpq_core::{EvalRequest, OracleEngine, ProductEngine, Termination};
    use rpq_graph::InstanceBuilder;

    fn fig2() -> (Alphabet, CsrGraph, Oid) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "b", "o2");
        let (inst, names) = b.finish();
        let o1 = names["o1"];
        (ab, CsrGraph::from(&inst), o1)
    }

    fn paper_engines() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(QuotientDfaEngine),
            Box::new(DerivativeEngine),
            Box::new(StreamingEngine::default()),
        ]
    }

    #[test]
    fn all_core_engines_agree_through_the_trait() {
        let (mut ab, csr, o1) = fig2();
        for qs in ["a.b*", "(a+b)*", "a.b.b", "b*", "()"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            let expected = ProductEngine.eval(&query, &csr, o1).answers;
            for engine in paper_engines() {
                let got = engine.eval(&query, &csr, o1);
                assert_eq!(got.answers, expected, "{} on {qs}", engine.name());
                assert_eq!(got.stats.answers, expected.len(), "{}", engine.name());
            }
        }
    }

    fn fig2ish() -> (Alphabet, CsrGraph) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "b", "o2");
        b.edge("o1", "b", "o3");
        b.edge("o3", "a", "o1");
        let (inst, _) = b.finish();
        (ab, CsrGraph::from(&inst))
    }

    /// Every shape a non-planning engine answers, over `all` and the pair
    /// / single ends `s`, `t`.
    fn shapes(all: &[Oid], s: Oid, t: Oid) -> Vec<EvalRequest> {
        vec![
            EvalRequest::source(s),
            EvalRequest::sources(all.to_vec()),
            EvalRequest::target(t),
            EvalRequest::targets(all.to_vec()),
            EvalRequest::pair(s, t),
            EvalRequest::matrix(all.to_vec(), all.to_vec()),
            EvalRequest::conjunctive(Some(all.to_vec()), None),
        ]
    }

    #[test]
    fn every_core_engine_answers_every_shape_like_the_product_engine() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        for qs in ["a.b*", "(a+b)*", "b.b", "()", "[]"] {
            let q = Query::parse(&mut ab, qs).unwrap();
            for req in shapes(&all, Oid(0), Oid(2)) {
                let want = ProductEngine.run(&q, &csr, &req);
                for e in paper_engines() {
                    let got = e.run(&q, &csr, &req);
                    let ctx = format!("{qs} {} {:?}", e.name(), req.spec);
                    assert_eq!(got.termination, Termination::Complete, "{ctx}");
                    assert_eq!(got.answers, want.answers, "{ctx}");
                    assert_eq!(got.stats.answers, want.stats.answers, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn engine_names_are_distinct() {
        let mut names: Vec<&str> = paper_engines().iter().map(|e| e.name()).collect();
        names.extend([ProductEngine.name(), OracleEngine::default().name()]);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
