//! The request/response calling convention — one entry point for every
//! evaluation shape.
//!
//! An [`EvalRequest`] is a question plus how to run it: a [`SourceSpec`]
//! names the question (one source, many sources, one target, many targets,
//! a pair, an N×M matrix, a binding set), and optional *execution
//! controls* — a fetch budget on `edges_scanned` and a cooperative
//! cancellation flag — ride along uniformly.
//! [`Engine::run`] answers it with an [`EvalResponse`]: the payload shaped
//! like the question, the work counters, and how the run ended. It is the
//! only way to ask an engine anything but its own
//! single-source `p(o, I)` ([`Engine::eval`]), and `rpq-server` uses the
//! request form as its wire-level query type.
//!
//! ## Soundness under early termination
//!
//! A budgeted or cancelled run stops mid-search, but every answer it has
//! already collected is a *true* answer: the product BFS only reports a
//! node once an accepting `(state, node)` pair is actually reached, so a
//! partial exploration yields a sound subset (the same contract as
//! `rpq_paper::StreamingEval`'s budget semantics, where only a fully explored
//! search reports `Terminated`). [`EvalResponse::termination`] says which
//! case occurred: [`Termination::Complete`] means the answer set is exact;
//! [`Termination::BudgetExhausted`] / [`Termination::Cancelled`] mean it is
//! a sound subset (and a pair's `reachable == false` is "not determined",
//! not "no").

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rpq_automata::Nfa;
use rpq_graph::{CsrGraph, GraphView, Oid};

use crate::batch::{BatchResult, MatrixResult};
use crate::engine::{Engine, Query};
use crate::pair::{search_pair, PairResult};
use crate::pairset::{search_bindings, PairSetResult};
use crate::product::{search_nodes, search_nodes_each, EvalResult, SearchOpts};
use crate::scratch::EvalScratch;
use crate::stats::{Direction, EvalStats};

/// Execution controls threaded into the product BFS level loops: an
/// `edges_scanned` budget and a cooperative cancellation flag. The search
/// checks the flag once per BFS level and enforces the budget *before*
/// scanning each row, so a controlled run always reports
/// `edges_scanned ≤ budget`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalControl<'a> {
    /// Hard cap on `stats.edges_scanned` (`None` = unlimited).
    pub budget: Option<usize>,
    /// Set by another thread to stop the search at the next level boundary.
    pub cancel: Option<&'a AtomicBool>,
}

impl EvalControl<'static> {
    /// No budget, no cancellation — the classic uncontrolled search.
    pub const UNLIMITED: EvalControl<'static> = EvalControl {
        budget: None,
        cancel: None,
    };
}

impl EvalControl<'_> {
    /// Has the cancellation flag been raised?
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// How a controlled evaluation ended. Answers collected before a
/// non-complete termination are always a sound subset (see the module
/// docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The search ran to exhaustion — the answer set is exact.
    Complete,
    /// The `edges_scanned` budget tripped; answers are a sound subset.
    BudgetExhausted,
    /// The cancellation flag was raised; answers are a sound subset.
    Cancelled,
}

impl Termination {
    /// Did the search explore everything (answers are exact)?
    pub fn is_complete(&self) -> bool {
        matches!(self, Termination::Complete)
    }
}

/// Which reachability question a request asks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceSpec {
    /// `p(source, I)` — the paper's question.
    Source(Oid),
    /// `p(oᵢ, I)` for every source, per-source answers.
    Sources(Vec<Oid>),
    /// `{o | target ∈ p(o, I)}`.
    Target(Oid),
    /// The target-bound question for every target, per-target answers.
    Targets(Vec<Oid>),
    /// `target ∈ p(source, I)?`
    Pair {
        /// Path start.
        source: Oid,
        /// Path end.
        target: Oid,
    },
    /// The full N×M reachability matrix `target ∈ p(source, I)`
    /// ([`MatrixResult`]).
    Matrix {
        /// Row objects (path starts).
        sources: Vec<Oid>,
        /// Column objects (path ends).
        targets: Vec<Oid>,
    },
    /// The *binding set* `{(s, t) | t ∈ p(s, I)}` restricted to optional
    /// endpoint sets — the conjunctive-query form. On a single-atom query
    /// this asks the atom's set-valued pair question directly, through
    /// [`crate::search_bindings`], the decision each atom of
    /// `rpq-optimizer`'s CRPQ join makes too; `rpq-optimizer` routes
    /// multi-atom CRPQs through the same spec, with `sources` / `targets`
    /// restricting the head variables. `None` means the endpoint is a free
    /// variable (unrestricted).
    Conjunctive {
        /// Allowed left-endpoint (head source variable) bindings; `None` =
        /// free.
        sources: Option<Vec<Oid>>,
        /// Allowed right-endpoint (head target variable) bindings; `None` =
        /// free.
        targets: Option<Vec<Oid>>,
    },
}

impl SourceSpec {
    /// The oid sets the request binds the path *start* and the path *end*
    /// to (`None` = that side is free) — how a conjunctive query reads any
    /// request shape as restrictions on its two head variables.
    pub fn endpoints(&self) -> (Option<&[Oid]>, Option<&[Oid]>) {
        use std::slice::from_ref;
        match self {
            SourceSpec::Source(s) => (Some(from_ref(s)), None),
            SourceSpec::Sources(ss) => (Some(ss), None),
            SourceSpec::Target(t) => (None, Some(from_ref(t))),
            SourceSpec::Targets(ts) => (None, Some(ts)),
            SourceSpec::Pair { source, target } => (Some(from_ref(source)), Some(from_ref(target))),
            SourceSpec::Matrix { sources, targets } => (Some(sources), Some(targets)),
            SourceSpec::Conjunctive { sources, targets } => {
                (sources.as_deref(), targets.as_deref())
            }
        }
    }

    /// Does every oid the request names denote an object of a graph with
    /// `num_nodes` nodes?
    pub fn in_range(&self, num_nodes: usize) -> bool {
        let (starts, ends) = self.endpoints();
        let mut named = starts.into_iter().chain(ends).flatten();
        named.all(|o| o.index() < num_nodes)
    }
}

/// One evaluation request: the question ([`SourceSpec`]) plus uniform
/// execution controls. Built with the constructors and `with_*` builders;
/// dispatched by [`Engine::run`]. Which end a search starts from is the
/// engine's decision (a planner's, from label statistics), not the
/// request's.
#[derive(Clone, Debug)]
pub struct EvalRequest {
    /// The question being asked.
    pub spec: SourceSpec,
    /// Fetch budget: hard cap on `edges_scanned` (`None` = unlimited).
    pub budget: Option<usize>,
    /// Cooperative cancellation flag, shared with the submitting thread.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl EvalRequest {
    /// An uncontrolled request asking `spec`. The shape-specific
    /// constructors below are shorthand over this.
    pub fn new(spec: SourceSpec) -> EvalRequest {
        EvalRequest {
            spec,
            budget: None,
            cancel: None,
        }
    }

    fn with_spec(spec: SourceSpec) -> EvalRequest {
        EvalRequest::new(spec)
    }

    /// Single-source request.
    pub fn source(source: Oid) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Source(source))
    }

    /// Multi-source request.
    pub fn sources(sources: Vec<Oid>) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Sources(sources))
    }

    /// Single-target request.
    pub fn target(target: Oid) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Target(target))
    }

    /// Multi-target request.
    pub fn targets(targets: Vec<Oid>) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Targets(targets))
    }

    /// Pair-reachability request.
    pub fn pair(source: Oid, target: Oid) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Pair { source, target })
    }

    /// N×M reachability-matrix request.
    pub fn matrix(sources: Vec<Oid>, targets: Vec<Oid>) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Matrix { sources, targets })
    }

    /// Binding-set (conjunctive) request: all `(s, t)` pairs the query
    /// relates, optionally restricted to endpoint sets (`None` = free).
    pub fn conjunctive(sources: Option<Vec<Oid>>, targets: Option<Vec<Oid>>) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Conjunctive { sources, targets })
    }

    /// Cap `edges_scanned` at `budget`.
    pub fn with_budget(mut self, budget: usize) -> EvalRequest {
        self.budget = Some(budget);
        self
    }

    /// Attach a cancellation flag (shared with the submitting thread).
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> EvalRequest {
        self.cancel = Some(cancel);
        self
    }

    /// Does the request carry a budget or a cancellation flag? Only the
    /// product BFS can be stopped early, so [`run_default`] routes such a
    /// request past engines with their own strategy.
    pub fn is_controlled(&self) -> bool {
        self.budget.is_some() || self.cancel.is_some()
    }

    /// Borrow the controls in the form the kernels consume.
    pub fn control(&self) -> EvalControl<'_> {
        EvalControl {
            budget: self.budget,
            cancel: self.cancel.as_deref(),
        }
    }
}

/// The answer payload of an [`EvalResponse`], shaped by the request's
/// [`SourceSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answers {
    /// Sorted answer set (`Source` / `Target` requests).
    Nodes(Vec<Oid>),
    /// Per-source (or per-target) batched answers (`Sources` / `Targets`).
    Batch(BatchResult),
    /// Pair verdict (`Pair`). Under a non-complete termination, `false`
    /// means *not determined*.
    Reachable(bool),
    /// Bit-packed N×M matrix (`Matrix`).
    Matrix(MatrixResult),
    /// Sorted, deduplicated (source, target) binding set (`Conjunctive`).
    Bindings(Vec<(Oid, Oid)>),
}

/// The uniform evaluation response: answers, aggregated work counters, and
/// how the run ended.
#[derive(Clone, Debug)]
pub struct EvalResponse {
    /// The answer payload.
    pub answers: Answers,
    /// Aggregated work counters — the one place a response's work is
    /// reported (`answers` counts the payload: nodes, union size, set
    /// matrix cells, bindings, or 1 for a reachable pair).
    pub stats: EvalStats,
    /// Exact ([`Termination::Complete`]) or sound-subset termination.
    pub termination: Termination,
}

impl EvalResponse {
    /// The complete, empty, zero-work response to `spec` — what a
    /// statically empty query (or a seed that is no object of the graph)
    /// answers without touching an edge, shaped like the request:
    /// per-item vectors and matrix axes keep the request's alignment.
    pub fn empty_for(spec: &SourceSpec) -> EvalResponse {
        let stats = EvalStats::default();
        match spec {
            SourceSpec::Source(_) | SourceSpec::Target(_) => EvalResponse::from_nodes(EvalResult {
                answers: Vec::new(),
                stats,
            }),
            SourceSpec::Sources(os) | SourceSpec::Targets(os) => EvalResponse::from_batch(
                BatchResult::from_per_source(vec![Vec::new(); os.len()]),
                stats,
            ),
            SourceSpec::Pair { .. } => EvalResponse::from_pair(PairResult {
                reachable: false,
                stats,
            }),
            SourceSpec::Matrix { sources, targets } => EvalResponse::from_matrix(
                MatrixResult::new(sources.clone(), targets.clone()),
                stats,
            ),
            SourceSpec::Conjunctive { .. } => {
                EvalResponse::from_pairset(PairSetResult::empty(stats, Termination::Complete))
            }
        }
    }

    /// Wrap a node-set result (complete).
    pub fn from_nodes(result: EvalResult) -> EvalResponse {
        EvalResponse {
            stats: result.stats,
            answers: Answers::Nodes(result.answers),
            termination: Termination::Complete,
        }
    }

    /// Wrap batched answers and the batch's aggregated counters (complete).
    pub fn from_batch(batch: BatchResult, stats: EvalStats) -> EvalResponse {
        EvalResponse {
            stats,
            answers: Answers::Batch(batch),
            termination: Termination::Complete,
        }
    }

    /// Wrap a pair result (complete).
    pub fn from_pair(pair: PairResult) -> EvalResponse {
        EvalResponse {
            stats: pair.stats,
            answers: Answers::Reachable(pair.reachable),
            termination: Termination::Complete,
        }
    }

    /// Wrap a matrix and the counters of the searches that filled it
    /// (complete).
    pub fn from_matrix(matrix: MatrixResult, stats: EvalStats) -> EvalResponse {
        EvalResponse {
            stats,
            answers: Answers::Matrix(matrix),
            termination: Termination::Complete,
        }
    }

    /// Wrap a binding-set result, carrying its own termination.
    pub fn from_pairset(result: PairSetResult) -> EvalResponse {
        EvalResponse {
            stats: result.stats,
            answers: Answers::Bindings(result.pairs),
            termination: result.termination,
        }
    }

    /// Override the termination (a search that ended early).
    pub fn terminated(mut self, termination: Termination) -> EvalResponse {
        self.termination = termination;
        self
    }

    /// The sorted answer set, if the payload is node-shaped.
    pub fn nodes(&self) -> Option<&[Oid]> {
        match &self.answers {
            Answers::Nodes(ns) => Some(ns),
            _ => None,
        }
    }

    /// The batched answers, if the payload is batch-shaped.
    pub fn batch(&self) -> Option<&BatchResult> {
        match &self.answers {
            Answers::Batch(b) => Some(b),
            _ => None,
        }
    }

    /// The pair verdict, if the payload is pair-shaped.
    pub fn reachable(&self) -> Option<bool> {
        match &self.answers {
            Answers::Reachable(r) => Some(*r),
            _ => None,
        }
    }

    /// The reachability matrix, if the payload is matrix-shaped.
    pub fn matrix(&self) -> Option<&MatrixResult> {
        match &self.answers {
            Answers::Matrix(m) => Some(m),
            _ => None,
        }
    }

    /// The (source, target) binding set, if the payload is binding-shaped.
    pub fn bindings(&self) -> Option<&[(Oid, Oid)]> {
        match &self.answers {
            Answers::Bindings(bs) => Some(bs),
            _ => None,
        }
    }

    /// Collapse into a single answer set: node payloads directly, batch
    /// payloads as their union, binding sets as their distinct right-hand
    /// endpoints, anything else as an empty set.
    pub fn into_eval_result(self) -> EvalResult {
        let stats = self.stats;
        let answers = match self.answers {
            Answers::Nodes(ns) => ns,
            Answers::Batch(b) => b.union().to_vec(),
            Answers::Bindings(bs) => {
                let mut ts: Vec<Oid> = bs.into_iter().map(|(_, t)| t).collect();
                ts.sort_unstable();
                ts.dedup();
                ts
            }
            Answers::Reachable(_) | Answers::Matrix(_) => Vec::new(),
        };
        EvalResult { answers, stats }
    }
}

/// The default [`Engine::run`] dispatch, shared by every engine that does
/// not override `run`: a single-source or multi-source request routes
/// through the engine's own [`Engine::eval`] strategy; everything else —
/// the target-bound, pair, matrix and binding-set shapes, an oid that is
/// no object of `graph` — goes to [`run_request`].
///
/// So does any request carrying a budget or a cancellation flag, and this
/// is the one place that asks: an engine's own strategy cannot be stopped
/// early, so a controlled request bypasses it for the product BFS, where
/// the controls bind. That is a bypass of engines the serving path does
/// not use, not a choice of algorithm on it — [`run_request`] itself runs
/// the same search with or without a control.
///
/// Engines that *do* override `run` (for set-at-a-time strategies or
/// planning) call back into this for the arms they don't specialize.
pub fn run_default<E: Engine + ?Sized>(
    engine: &E,
    query: &Query,
    graph: &CsrGraph,
    req: &EvalRequest,
) -> EvalResponse {
    let own = !req.is_controlled() && req.spec.in_range(graph.num_nodes());
    match &req.spec {
        SourceSpec::Source(s) if own => EvalResponse::from_nodes(engine.eval(query, graph, *s)),
        SourceSpec::Sources(ss) if own => {
            let mut stats = EvalStats::default();
            let mut per = Vec::with_capacity(ss.len());
            for &s in ss {
                let r = engine.eval(query, graph, s);
                stats.merge(&r.stats);
                per.push(r.answers);
            }
            EvalResponse::from_batch(BatchResult::from_per_source(per), stats)
        }
        spec => {
            let opts = SearchOpts {
                control: req.control(),
                ..SearchOpts::default()
            };
            run_request(
                query.nfa(),
                query.reversed(),
                graph,
                spec,
                Direction::Bidirectional,
                &opts,
                &mut EvalScratch::new(),
            )
        }
    }
}

/// The in-range subsequence of `oids` (borrowed when nothing is dropped).
/// An oid `>= num_nodes` is not an object of the instance: it seeds no
/// search and is dropped from target / bound sets.
pub fn live_oids(oids: &[Oid], num_nodes: usize) -> Cow<'_, [Oid]> {
    if oids.iter().all(|o| o.index() < num_nodes) {
        Cow::Borrowed(oids)
    } else {
        Cow::Owned(
            oids.iter()
                .copied()
                .filter(|o| o.index() < num_nodes)
                .collect(),
        )
    }
}

/// The one request executor: answer `spec` over `graph` with the product
/// BFS, as `opts` directs. `nfa` is the (planned) query automaton and
/// `reversed` its [`Nfa::reverse`]; `pair_direction` is the end a pair
/// question starts from (a planner passes its direction decision; an
/// engine without one, `Bidirectional` — "no decisive end", which runs
/// forward). The request's controls arrive as `opts.control` and the
/// plan's finite-language bound as `opts.depth_cap`. `opts.reverse_adj` is not read — each arm sets its
/// own direction.
///
/// This is the only place a [`SourceSpec`] is matched to a kernel, and
/// nothing here asks whether a control is attached: a request with no
/// control, with a flag that is never raised and with a budget that never
/// binds run the same searches and report the same counters. It is also
/// where request oids are validated: an oid `>= graph.num_nodes()` is not
/// an object of the instance, so it seeds no search and is dropped from
/// target and bound sets; its item's answer is empty, the termination
/// stays [`Termination::Complete`], and per-item result vectors and matrix
/// axes keep their alignment with the request.
///
/// # Decision table
///
/// "Per-item loop" is one search per item, all sharing one remaining
/// budget, stopping at the first non-complete item (unexplored items
/// report empty sets — a sound subset). Each item's answers are read in
/// the arena: the per-item arms copy them out at exact size, the matrix
/// and binding-set loops copy nothing.
///
/// Every kernel runs the same level loop, one push sweep per level, so the
/// table's only option column is the depth cap.
///
/// | `spec` | kernel |
/// |---|---|
/// | `Source` | [`search_nodes`] forward — cap |
/// | `Target` | [`search_nodes`] backward — cap |
/// | `Sources` | per-item loop forward — cap |
/// | `Targets` | per-item loop backward — cap |
/// | `Pair` | [`search_pair`] early exit by `pair_direction` — no cap |
/// | `Matrix` | per-item loop forward over the rows — cap |
/// | `Conjunctive` | [`search_bindings`]: a [`search_pairs`](crate::search_pairs) per-seed loop, sources bound → forward (target set as `bound`), only targets bound → backward, neither → forward from [`seed_candidates`](crate::seed_candidates) — no cap |
///
/// Deliberately not touched (each moves a served counter, so each is its
/// own follow-up): the pair arm and the binding-set loop ignore the depth
/// cap.
pub fn run_request<G: GraphView>(
    nfa: &Nfa,
    reversed: &Nfa,
    graph: &G,
    spec: &SourceSpec,
    pair_direction: Direction,
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> EvalResponse {
    let nv = graph.num_nodes();
    let forward = SearchOpts {
        reverse_adj: false,
        ..*opts
    };
    let backward = SearchOpts {
        reverse_adj: true,
        ..*opts
    };
    let nodes =
        |(res, term): (EvalResult, Termination)| EvalResponse::from_nodes(res).terminated(term);
    match spec {
        SourceSpec::Source(_) | SourceSpec::Target(_) | SourceSpec::Pair { .. }
            if !spec.in_range(nv) =>
        {
            EvalResponse::empty_for(spec)
        }
        SourceSpec::Source(s) => nodes(search_nodes(nfa, graph, *s, &forward, scratch)),
        SourceSpec::Target(t) => nodes(search_nodes(reversed, graph, *t, &backward, scratch)),
        SourceSpec::Sources(ss) => per_seed(nfa, graph, ss, &forward, scratch),
        SourceSpec::Targets(ts) => per_seed(reversed, graph, ts, &backward, scratch),
        SourceSpec::Pair { source, target } => {
            let opts = SearchOpts {
                depth_cap: None,
                ..*opts
            };
            let (pair, term) = search_pair(
                nfa,
                reversed,
                graph,
                *source,
                *target,
                pair_direction,
                &opts,
                scratch,
            );
            EvalResponse::from_pair(pair).terminated(term)
        }
        SourceSpec::Matrix { sources, targets } => {
            let (rows, cols) = (live_oids(sources, nv), live_oids(targets, nv));
            let mut matrix = MatrixResult::new(rows.to_vec(), cols.to_vec());
            let (mut stats, term) =
                search_nodes_each(nfa, graph, &rows, &forward, scratch, |i, answers| {
                    for (j, t) in cols.iter().enumerate() {
                        if answers.binary_search(t).is_ok() {
                            matrix.set(i, j);
                        }
                    }
                });
            stats.answers = matrix.reachable_count();
            EvalResponse::from_matrix(matrix.spread_over(sources, targets, nv), stats)
                .terminated(term)
        }
        SourceSpec::Conjunctive { sources, targets } => {
            let sources = sources.as_deref().map(|os| live_oids(os, nv));
            let targets = targets.as_deref().map(|os| live_oids(os, nv));
            let (sources, targets) = (sources.as_deref(), targets.as_deref());
            let (res, _) = search_bindings(nfa, reversed, graph, sources, targets, opts, scratch);
            EvalResponse::from_pairset(res)
        }
    }
}

/// The `Sources` / `Targets` arms of [`run_request`]: the per-item loop,
/// re-aligned with the request — dropped and unexplored seeds answer
/// empty.
fn per_seed<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    seeds: &[Oid],
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> EvalResponse {
    let nv = graph.num_nodes();
    let live = live_oids(seeds, nv);
    let mut per = Vec::with_capacity(live.len());
    let (stats, term) = search_nodes_each(nfa, graph, &live, opts, scratch, |_, answers| {
        per.push(answers.to_vec())
    });
    let result = BatchResult::from_per_source(per);
    EvalResponse::from_batch(result.aligned_to(seeds, nv), stats).terminated(term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OracleEngine, ProductEngine, Query};
    use rpq_automata::Alphabet;
    use rpq_graph::{CsrGraph, InstanceBuilder};

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

    fn engines() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(ProductEngine),
            Box::new(OracleEngine {
                max_word_len: Some(8),
            }),
        ]
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
                for e in engines() {
                    let got = e.run(&q, &csr, &req);
                    let ctx = format!("{qs} {} {:?}", e.name(), req.spec);
                    assert_eq!(got.termination, Termination::Complete, "{ctx}");
                    assert_eq!(got.answers, want.answers, "{ctx}");
                    assert_eq!(got.stats.answers, want.stats.answers, "{ctx}");
                }
            }
            // and the product engine's `run` is its `eval`, per source
            let per = ProductEngine.run(&q, &csr, &EvalRequest::sources(all.clone()));
            let per = per.batch().unwrap().per_source().unwrap();
            for (i, &s) in all.iter().enumerate() {
                assert_eq!(
                    per[i],
                    ProductEngine.eval(&q, &csr, s).answers,
                    "{qs} {s:?}"
                );
            }
        }
    }

    #[test]
    fn matrix_request_agrees_with_pairwise_eval() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        for qs in ["a.b*", "(a+b)*", "b.b", "()"] {
            let q = Query::parse(&mut ab, qs).unwrap();
            let resp = ProductEngine.run(&q, &csr, &EvalRequest::matrix(all.clone(), all.clone()));
            let m = resp.matrix().unwrap();
            for (i, &s) in all.iter().enumerate() {
                let fwd = ProductEngine.eval(&q, &csr, s).answers;
                for (j, &t) in all.iter().enumerate() {
                    assert_eq!(m.reachable(i, j), fwd.contains(&t), "{qs} {s:?}->{t:?}");
                }
            }
        }
    }

    #[test]
    fn budget_caps_edges_scanned_and_answers_stay_sound() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let full = ProductEngine.eval(&q, &csr, Oid(0)).answers;
        for budget in 0..8 {
            let resp =
                ProductEngine.run(&q, &csr, &EvalRequest::source(Oid(0)).with_budget(budget));
            assert!(
                resp.stats.edges_scanned <= budget,
                "scanned {} > budget {budget}",
                resp.stats.edges_scanned
            );
            for n in resp.nodes().unwrap() {
                assert!(full.contains(n), "budgeted answer {n:?} must be sound");
            }
            if resp.termination == Termination::Complete {
                assert_eq!(resp.nodes().unwrap(), full);
            }
        }
        // a generous budget completes exactly
        let resp = ProductEngine.run(&q, &csr, &EvalRequest::source(Oid(0)).with_budget(100_000));
        assert_eq!(resp.termination, Termination::Complete);
        assert_eq!(resp.nodes().unwrap(), full);
    }

    #[test]
    fn pre_set_cancel_flag_terminates_immediately() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let req = EvalRequest::sources(csr.nodes().collect()).with_cancel(flag);
        let resp = ProductEngine.run(&q, &csr, &req);
        assert_eq!(resp.termination, Termination::Cancelled);
        let full: Vec<Oid> = csr.nodes().collect();
        for per in resp.batch().unwrap().per_source().unwrap() {
            for n in per {
                assert!(full.contains(n));
            }
        }
    }

    #[test]
    fn controlled_pair_found_is_definitive() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "a").unwrap();
        let resp = ProductEngine.run(
            &q,
            &csr,
            &EvalRequest::pair(Oid(0), Oid(1)).with_budget(100_000),
        );
        assert_eq!(resp.reachable(), Some(true));
        assert_eq!(resp.termination, Termination::Complete);
    }

    #[test]
    fn conjunctive_request_binds_pairs_under_every_restriction() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        // ground truth from per-source eval
        let mut full: Vec<(Oid, Oid)> = Vec::new();
        for &s in &all {
            for t in ProductEngine.eval(&q, &csr, s).answers {
                full.push((s, t));
            }
        }
        full.sort_unstable();

        let free = ProductEngine.run(&q, &csr, &EvalRequest::conjunctive(None, None));
        assert_eq!(free.bindings().unwrap(), full);
        assert_eq!(free.termination, Termination::Complete);

        let fwd = ProductEngine.run(&q, &csr, &EvalRequest::conjunctive(Some(all.clone()), None));
        assert_eq!(fwd.bindings().unwrap(), full);

        let bwd = ProductEngine.run(&q, &csr, &EvalRequest::conjunctive(None, Some(all.clone())));
        assert_eq!(bwd.bindings().unwrap(), full);

        let restricted = ProductEngine.run(
            &q,
            &csr,
            &EvalRequest::conjunctive(Some(vec![Oid(0)]), Some(vec![Oid(2)])),
        );
        let expect: Vec<(Oid, Oid)> = full
            .iter()
            .copied()
            .filter(|&(s, t)| s == Oid(0) && t == Oid(2))
            .collect();
        assert_eq!(restricted.bindings().unwrap(), expect);

        // controlled path: budget caps scans, bindings stay sound
        for budget in [0, 1, 3, 100_000] {
            let resp = ProductEngine.run(
                &q,
                &csr,
                &EvalRequest::conjunctive(None, None).with_budget(budget),
            );
            assert!(resp.stats.edges_scanned <= budget);
            for b in resp.bindings().unwrap() {
                assert!(full.contains(b), "unsound binding {b:?}");
            }
        }
    }

    #[test]
    fn a_node_response_collapses_to_its_answer_set() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        let r = ProductEngine.run(&q, &csr, &EvalRequest::source(Oid(0)));
        let as_eval = r.clone().into_eval_result();
        assert_eq!(as_eval.answers, r.nodes().unwrap());
        assert_eq!(as_eval.stats, r.stats);
    }
}
