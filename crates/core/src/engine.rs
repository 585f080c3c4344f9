//! The unified [`Engine`] calling convention.
//!
//! Every evaluation strategy in the workspace — the Section 2.2 product
//! search, both explicit-quotient variants, the definitional oracle, the
//! streaming evaluator, the Section 2.3 Datalog translations, and the
//! Section 3.1 distributed protocol — answers the same question: given a
//! query and a source object, which objects does `p(o, I)` contain? The
//! [`Engine`] trait pins that down to one signature over the shared
//! query-time representation:
//!
//! ```text
//! fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult
//! ```
//!
//! and every other question shape to one more, [`Engine::run`] over an
//! [`EvalRequest`].
//!
//! [`Query`] packages the three forms engines consume (the regex, its
//! Thompson NFA, and the alphabet) so one prepared query drives every
//! engine; [`rpq_graph::CsrGraph`] is the immutable label-indexed snapshot
//! they all traverse; [`crate::EvalStats`] makes their work comparable.
//! Implementations in this crate: [`ProductEngine`] (the one the server
//! runs) and [`OracleEngine`]. `rpq_paper` adds the explicit-quotient and
//! streaming engines (`rpq_paper::{QuotientDfaEngine, DerivativeEngine,
//! StreamingEngine}`), and the `rpq-datalog` and `rpq-distributed` crates
//! add their strategies, giving the agreement suite (and any future
//! scheduler, cache, or shard router) a single dispatch point.

use std::sync::{Arc, OnceLock};

use rpq_automata::{parse_regex, Alphabet, Nfa, ParseError, Regex};
use rpq_graph::{CsrGraph, Oid};

use crate::product::{eval_product_csr, EvalResult, SearchOpts};
use crate::request::{run_default, run_request, EvalRequest, EvalResponse};
use crate::scratch::EvalScratch;
use crate::stats::{Direction, EvalStats};

/// A prepared path query: the regex, its Thompson NFA, and the alphabet it
/// was parsed against — everything any [`Engine`] needs, the NFA compiled
/// at most once, on the first [`Query::nfa`], and its reversal at most
/// once, on the first [`Query::reversed`].
///
/// The NFA is built lazily because a planner runs the automaton it plans
/// ([`Query::with_nfa`]), not the one of the text it was handed: a query
/// that only keys a plan never builds one. The alphabet is an immutable
/// snapshot behind an [`Arc`]: cloning a query never copies label names,
/// and a front end that prepares many queries against one alphabet shares
/// a single snapshot between them ([`Query::on_snapshot`]).
#[derive(Clone, Debug)]
pub struct Query {
    regex: Regex,
    nfa: OnceLock<Nfa>,
    reversed: OnceLock<Nfa>,
    alphabet: Arc<Alphabet>,
}

impl Query {
    /// Prepare `regex` (snapshots the alphabet; the Thompson NFA is built
    /// on first use).
    pub fn new(regex: Regex, alphabet: &Alphabet) -> Query {
        Query::on_snapshot(regex, Arc::new(alphabet.clone()))
    }

    /// Prepare `regex` against an alphabet snapshot the caller already
    /// shares — [`Query::new`] without the copy. `alphabet` must name
    /// every symbol of `regex`.
    pub fn on_snapshot(regex: Regex, alphabet: Arc<Alphabet>) -> Query {
        Query {
            regex,
            nfa: OnceLock::new(),
            reversed: OnceLock::new(),
            alphabet,
        }
    }

    /// Prepare `regex` with a caller-supplied NFA instead of the Thompson
    /// compilation — the planner's seam: static analysis erases dead
    /// symbols and trims useless states, then packages the *restricted*
    /// regex with its already-trimmed automaton so both the syntactic
    /// engines (which read [`Query::regex`]) and the automaton engines
    /// (which read [`Query::nfa`]) see the same reduced language.
    ///
    /// Contract: `L(nfa)` must equal `L(regex)` — callers are responsible
    /// for keeping the two forms in sync. The alphabet is the snapshot the
    /// caller's query was prepared against, shared, not copied.
    pub fn with_nfa(regex: Regex, nfa: Nfa, alphabet: Arc<Alphabet>) -> Query {
        Query {
            regex,
            nfa: OnceLock::from(nfa),
            reversed: OnceLock::new(),
            alphabet,
        }
    }

    /// Parse and prepare a query in one step.
    pub fn parse(alphabet: &mut Alphabet, src: &str) -> Result<Query, ParseError> {
        let regex = parse_regex(alphabet, src)?;
        Ok(Query::new(regex, alphabet))
    }

    /// The query as a regex (syntactic engines: derivatives, translations).
    pub fn regex(&self) -> &Regex {
        &self.regex
    }

    /// The query as a Thompson NFA (automaton engines), built on the
    /// first call — or the automaton [`Query::with_nfa`] was given.
    pub fn nfa(&self) -> &Nfa {
        self.nfa.get_or_init(|| Nfa::thompson(&self.regex))
    }

    /// [`Query::nfa`] reversed ([`Nfa::reverse`]), built on the first call:
    /// the automaton a backward search runs over the reverse adjacency.
    pub fn reversed(&self) -> &Nfa {
        self.reversed.get_or_init(|| self.nfa().reverse())
    }

    /// The alphabet snapshot the query was prepared against (a planner
    /// shares it with the plan it compiles).
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }
}

/// One evaluation strategy for `p(o, I)` over the label-indexed snapshot.
///
/// All implementations must compute the same answer set; they differ in
/// work profile ([`EvalStats`]) and operational setting (centralized,
/// set-at-a-time, streaming, distributed). The trait is object-safe, so
/// heterogeneous engine collections (`Vec<Box<dyn Engine>>`) can drive the
/// agreement suite and future routing layers.
pub trait Engine {
    /// A short stable identifier (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Evaluate `query` from `source` over `graph`.
    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult;

    /// The unified entry point: dispatch an [`EvalRequest`] — any question
    /// shape ([`crate::SourceSpec`]) plus uniform execution controls (budget,
    /// cancellation) — to an [`EvalResponse`].
    ///
    /// The default implementation is [`run_default`]: source-bound
    /// requests route through the engine's own [`Engine::eval`] strategy,
    /// every other shape — and any request with a budget or cancellation
    /// flag, which only the product BFS can honor — through
    /// [`run_request`]. An engine with a set-at-a-time strategy — the
    /// all-sources-seeded semi-naive Datalog fixpoint — overrides this for
    /// the request arms it specializes and falls back to [`run_default`]
    /// for the rest. It is the single dispatch point (and the server's
    /// wire-level entry): a caller with many sources, a target, a pair or
    /// a matrix builds the request.
    fn run(&self, query: &Query, graph: &CsrGraph, req: &EvalRequest) -> EvalResponse {
        run_default(self, query, graph, req)
    }
}

/// The Section 2.2 product-automaton BFS ([`crate::eval_product_csr`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProductEngine;

impl Engine for ProductEngine {
    fn name(&self) -> &'static str {
        "product"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        eval_product_csr(query.nfa(), graph, source)
    }

    /// Every request shape straight through [`run_request`] with a fresh
    /// arena, sequentially, under the request's controls. There is no
    /// plan, so no depth cap and no direction decision: pairs run forward.
    fn run(&self, query: &Query, graph: &CsrGraph, req: &EvalRequest) -> EvalResponse {
        let opts = SearchOpts {
            control: req.control(),
            ..SearchOpts::default()
        };
        run_request(
            query.nfa(),
            &|| query.reversed(),
            graph,
            &req.spec,
            Direction::Bidirectional,
            &opts,
            &mut EvalScratch::new(),
        )
    }
}

/// The definitional word-enumeration oracle — exponential, for testing
/// only. `max_word_len: None` uses the `|Q| · |V|` pumping bound.
///
/// **Caveat:** enumeration is capped at 1,000,000 words, so on inputs
/// where `L(p)` up to the bound exceeds the cap (broad alternations over
/// more than a few nodes) the result is a sound but possibly *incomplete*
/// subset — the one deliberate exception to the trait's same-answer-set
/// contract. Keep this engine on the tiny inputs it exists for, and treat
/// its answers as a subset check elsewhere (as the agreement suite does).
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleEngine {
    /// Cap on enumerated word length (`None` = pumping bound).
    pub max_word_len: Option<usize>,
}

impl Engine for OracleEngine {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        let nfa = query.nfa();
        let bound = self
            .max_word_len
            .unwrap_or(nfa.num_states() * graph.num_nodes());
        let mut stats = EvalStats::default();
        let mut answers: Vec<Oid> = Vec::new();
        for w in nfa.enumerate_words(bound, 1_000_000) {
            stats.classes_materialized += 1; // words enumerated
            for t in graph.word_targets(source, &w) {
                stats.edges_scanned += 1;
                if !answers.contains(&t) {
                    answers.push(t);
                }
            }
        }
        answers.sort_unstable();
        stats.answers = answers.len();
        EvalResult { answers, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SourceSpec;
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

    fn core_engines() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(ProductEngine),
            Box::new(OracleEngine {
                max_word_len: Some(10),
            }),
        ]
    }

    #[test]
    fn all_core_engines_agree_through_the_trait() {
        let (mut ab, csr, o1) = fig2();
        for qs in ["a.b*", "(a+b)*", "a.b.b", "b*", "()"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            let expected = ProductEngine.eval(&query, &csr, o1).answers;
            for engine in core_engines() {
                let got = engine.eval(&query, &csr, o1);
                assert_eq!(got.answers, expected, "{} on {qs}", engine.name());
                assert_eq!(got.stats.answers, expected.len(), "{}", engine.name());
            }
        }
    }

    #[test]
    fn query_packages_all_three_forms() {
        let mut ab = Alphabet::new();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        assert!(q.nfa().num_states() >= 2);
        assert_eq!(
            q.regex().size(),
            Query::new(q.regex().clone(), &ab).regex().size()
        );
        assert!(q.alphabet().get("a").is_some());
    }

    #[test]
    fn a_query_builds_its_automaton_once_and_only_when_asked() {
        let mut ab = Alphabet::new();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        let snap = Query::on_snapshot(q.regex().clone(), Arc::clone(q.alphabet()));
        assert!(q.nfa.get().is_none() && snap.nfa.get().is_none());
        // a clone of an unbuilt query copies no automaton
        let copy = q.clone();
        assert!(copy.nfa.get().is_none());
        let built: *const Nfa = q.nfa();
        assert!(std::ptr::eq(built, q.nfa()), "built once");
        assert!(copy.nfa.get().is_none(), "the clone's cell is its own");
        // the planner's automaton is kept, not rebuilt from the regex (a
        // different language here, to tell the two apart)
        let planned = Query::with_nfa(q.regex().clone(), Nfa::empty(), Arc::clone(q.alphabet()));
        assert_eq!(planned.nfa().num_states(), 1);
        assert!(planned.nfa().is_empty_lang());
    }

    #[test]
    fn only_a_backward_search_builds_the_reversal_and_builds_it_once() {
        // Bug classes: a request arm that builds the reversed automaton
        // though it searches forward (a cold plan paying for an automaton
        // nothing reads), one that builds it again per request, and a
        // backward arm that reads the forward automaton.
        let (mut ab, csr, o1) = fig2();
        let all: Vec<Oid> = csr.nodes().collect();
        let o3 = *all.last().unwrap();
        // Every binding, from forward searches alone.
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        let bindings: Vec<(Oid, Oid)> = all
            .iter()
            .flat_map(|&s| {
                ProductEngine
                    .eval(&q, &csr, s)
                    .answers
                    .into_iter()
                    .map(move |t| (s, t))
            })
            .collect();
        let into_o3: Vec<Oid> = bindings.iter().filter(|b| b.1 == o3).map(|b| b.0).collect();
        for req in [
            EvalRequest::source(o1),
            EvalRequest::sources(all.clone()),
            EvalRequest::matrix(all.clone(), all.clone()),
            EvalRequest::conjunctive(Some(all.clone()), None),
            EvalRequest::conjunctive(Some(all.clone()), Some(all.clone())),
            EvalRequest::conjunctive(None, None),
        ] {
            let q = Query::parse(&mut ab, "a.b*").unwrap();
            ProductEngine.run(&q, &csr, &req);
            assert!(q.reversed.get().is_none(), "{:?} is forward", req.spec);
        }
        for req in [
            EvalRequest::target(o3),
            EvalRequest::targets(all.clone()),
            EvalRequest::pair(o1, o3),
            EvalRequest::conjunctive(None, Some(all.clone())),
        ] {
            let q = Query::parse(&mut ab, "a.b*").unwrap();
            let first = ProductEngine.run(&q, &csr, &req);
            let built: *const Nfa = q.reversed.get().expect("a backward search builds it");
            let again = ProductEngine.run(&q, &csr, &req);
            assert!(
                std::ptr::eq(built, q.reversed()),
                "{:?}: built once",
                req.spec
            );
            assert_eq!(first.answers, again.answers, "{:?}", req.spec);
            match &req.spec {
                SourceSpec::Target(_) => assert_eq!(first.nodes().unwrap(), into_o3),
                SourceSpec::Conjunctive { .. } => assert_eq!(first.bindings().unwrap(), bindings),
                _ => {}
            }
        }
    }

    #[test]
    fn engine_names_are_distinct() {
        let names: Vec<&str> = core_engines().iter().map(|e| e.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
