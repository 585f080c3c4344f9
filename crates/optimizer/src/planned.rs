//! [`PlannedEngine`] — the optimizer as a first-class evaluation engine.
//!
//! The paper's Section 3.2 processor "may use the path constraints holding
//! at the site to replace the query to be executed by a simpler query" —
//! it chooses *what* to evaluate. A production engine must also choose
//! *how*: the reverse CSR adjacency makes backward evaluation possible,
//! and on label-skewed data the cheap end of a query can be orders of
//! magnitude cheaper than the expensive end. [`PlannedEngine`] wraps any
//! [`Engine`] and, per query × snapshot:
//!
//! 1. runs the constraint rewrite against the snapshot's
//!    [`rpq_graph::LabelStats`] — the Section 3.2 *what* — and the static
//!    analysis of its winner, as one pass over one compilation of each
//!    query and one closure per certified target
//!    ([`crate::optimize_and_analyze`]; see the crate docs);
//! 2. compiles the winner once ([`Query`]; its reversal is built by the
//!    first request that searches backward, not with the plan, so a plan
//!    miss builds one automaton) and estimates the forward cost
//!    (edges matching the query's *first* label group) and the backward
//!    cost (edges matching its *last*) — the *how*: [`Direction::Backward`]
//!    when the last group is decisively rarer, [`Direction::Forward`] when
//!    the first is, [`Direction::Bidirectional`] ("no decisive end"; a
//!    pair search then starts from the source) when neither end dominates
//!    (decisively: by a factor of two);
//! 3. memoizes the whole [`Plan`] behind a `parking_lot::Mutex`, so
//!    repeated queries skip both the rewrite search and recompilation, and
//!    one engine instance can be shared across threads (the server's
//!    sessions) and serve as the distributed simulator's per-site rewrite
//!    hook ([`PlannedEngine::rewrite`]).
//!
//! # Epoch-aware plan reuse
//!
//! The memo key carries the snapshot's [`rpq_graph::Epoch`] lineage. For a
//! mutating [`rpq_graph::DeltaGraph`], a small edge batch changes the
//! statistics fingerprint but *not* the lineage — instead of
//! recompiling, the planner re-derives the two entry costs from the
//! current statistics and **reuses** the memoized plan whenever the
//! direction decision is unchanged and neither cost drifted past the
//! decisiveness factor (any cached plan for the same query is *sound* —
//! statistics only rank candidates — so drift-reuse trades at most
//! optimality, never correctness, and the drift bound caps even that).
//! The two label groups the costs are summed over are kept with the plan,
//! so the check is a comparison of label counts — no automaton is built —
//! and a check that passes enters the plan under the key it passed for:
//! every later read at those statistics is an exact hit, and a new epoch
//! costs each query one check ([`PlannedEngine::plan_drift_checks`]),
//! made in full against the plan's own plan-time costs.
//! `compact()` is invisible to the memo: a fold keeps the lineage and
//! changes no node count, edge count or statistic, so the key of the
//! snapshot after it *is* the key of the snapshot before it and every
//! plan is an exact hit. Drift is always measured against the plan's own
//! plan-time costs, never against the last fold, so there is nothing for a
//! compaction to reset: a decisive drift or a first edge on a pruned label
//! recompiles whether or not a fold came in between. Hits and misses are
//! counted on the engine
//! ([`PlannedEngine::plan_cache_hits`]) and stamped into every
//! [`rpq_core::EvalStats`] this engine produces, together with the plan's
//! two certification counts.
//!
//! # One record per plan
//!
//! Everything else planning learned — the rewrite search's counters, the
//! certification and analysis facts, the chosen [`Direction`] and its two
//! entry costs — is one [`PlanRecord`] ([`Plan::record`]), built once per
//! plan miss and kept in the memoized `Arc<Plan>`. A memo hit or a drift
//! reuse serves the same `Arc`, so it rebuilds nothing and copies nothing
//! into the response: a caller that wants the record reads it off
//! [`PlannedEngine::plan`].
//!
//! # Two entry points
//!
//! [`PlannedEngine::run_view`] ([`Engine::run`] on a `CsrGraph`) answers
//! any [`EvalRequest`] over any [`GraphView`] (e.g. a delta overlay) with
//! the product BFS under the plan — where the direction choice pays off on
//! the scenarios the reverse CSR opens, target-bound and (source, target)
//! requests (bench `t12_direction_choice`). [`Engine::eval`] composes the
//! planner with the *inner* engine's own strategy: it affects only *what*
//! the inner engine runs — set-semantics answers are
//! direction-independent, so the wrapper provably returns the inner
//! engine's answer set.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use rpq_automata::{Alphabet, Regex, Symbol};
use rpq_constraints::ConstraintSet;
use rpq_core::{
    live_oids, run_request, Engine, EvalRequest, EvalResponse, EvalResult, EvalStats, Query,
    ScratchPool, SearchOpts, SourceSpec, WorkerPool,
};
use rpq_graph::{CsrGraph, GraphView, LabelStats, Oid};

use crate::analysis::{Analysis, PlanRecord};
use crate::join::{execute_join, plan_join, Crpq, HeadBindings, JoinPlan};
use crate::planner::optimize_and_analyze;

pub use rpq_core::Direction;

/// The planner's configuration: no setting is left that changes a plan.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PlannerConfig {
    /// Inert since PR 25; deleted with ROADMAP 1(b). Every query runs on
    /// the thread that asks it, whatever this says.
    pub parallelism: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { parallelism: 1 }
    }
}

/// One planned query over one snapshot: the rewrite winner compiled once
/// (its reversal built on the first backward search, not with the plan),
/// the two label groups the drift check prices, and the record of what
/// planning learned.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The rewritten (or original) query, compiled. Its
    /// [`Query::reversed`] is built by the first request that searches
    /// backward (a target, targets, a pair, a conjunctive request with
    /// only targets bound) and kept with the plan, so every later one reads
    /// it; a plan only ever asked forward questions builds none.
    pub query: Query,
    /// The first label group: the symbols a word of the query can begin
    /// with (sorted), read off the planned regex once, with the plan.
    pub first_symbols: Vec<Symbol>,
    /// The last label group: the symbols a word of the query can end with
    /// (sorted).
    pub last_symbols: Vec<Symbol>,
    /// What planning learned: the rewrite search, certification, static
    /// analysis and direction decision. Built once per plan miss; every
    /// response the plan serves shares it through the memo.
    pub record: PlanRecord,
}

impl Plan {
    /// The plan of `analysis` over `alphabet` under `stats`: the analysed
    /// query compiled once (its automaton moved in, not rebuilt, and not
    /// reversed yet), and the direction its
    /// two entry costs decide, recorded. Both label groups are facts of
    /// the planned regex, read off it by the analysis. A path plan's
    /// analysis comes from the rewrite search under the engine's
    /// constraint set ([`crate::optimize_and_analyze`]); a CRPQ atom's
    /// from [`crate::analyze`] under none ([`crate::plan_join`]).
    pub(crate) fn new(analysis: Analysis, alphabet: &Arc<Alphabet>, stats: &LabelStats) -> Plan {
        let query = Query::with_nfa(analysis.regex, analysis.nfa, Arc::clone(alphabet));
        let mut record = analysis.record;
        record.forward_cost = group_cost(&analysis.first_symbols, stats);
        record.backward_cost = group_cost(&analysis.last_symbols, stats);
        record.direction = choose_direction(record.forward_cost, record.backward_cost);
        Plan {
            query,
            first_symbols: analysis.first_symbols,
            last_symbols: analysis.last_symbols,
            record,
        }
    }
}

/// Entry cost of a label group under `stats`.
fn group_cost(symbols: &[Symbol], stats: &LabelStats) -> usize {
    symbols.iter().map(|&s| stats.edge_count(s)).sum()
}

/// Memo key: the snapshot's epoch lineage plus node/edge counts and the
/// fingerprint of the per-label statistics (which the statistics keep up
/// to date themselves, so a key is four loads), so snapshots that merely
/// *coincide* in size do not share plans (direction and rewrite ranking
/// both come from the statistics). None of the four moves when a
/// `DeltaGraph` compacts. Lineage 0 (standalone `CsrGraph`s) only ever
/// matches exactly; nonzero lineages additionally allow the drift-bounded
/// reuse described in the module docs.
type MemoKey = (u64, usize, usize, u64);

fn memo_key<G: GraphView>(graph: &G) -> MemoKey {
    (
        graph.epoch().base,
        graph.num_nodes(),
        graph.num_edges(),
        graph.stats().fingerprint(),
    )
}

/// One snapshot-keyed entry in a plan memo: a query [`Plan`], or a CRPQ
/// [`JoinPlan`].
struct MemoEntry<P> {
    key: MemoKey,
    plan: Arc<P>,
}

/// CRPQ join-plan memo key: the query's canonical [`Crpq::signature`] plus
/// the head-boundness flags the request carried (a bound head variable can
/// flip both the starting atom and every direction downstream, so bound
/// and free requests plan separately).
type CrpqSig = (String, bool, bool);

/// Bound on distinct snapshots the plan memo retains **per query**: a
/// long-lived engine over a mutating graph sees a fresh [`MemoKey`] per
/// rebuild or delta epoch (one entry each: the plan built for it, or the
/// older plan a drift check found still good for it), and each retired
/// snapshot's entry is dead weight — without a bound the memo grows with
/// snapshots × queries. The oldest entry is evicted once the bound is hit;
/// the working set of live snapshots in any realistic deployment is far
/// below it.
const MAX_MEMOIZED_SNAPSHOTS: usize = 8;

/// Enter `plan` under `key` in one query's entry list, unless the key is
/// there already; the oldest entry makes room (a plan for it is rebuilt,
/// or validated again, if that snapshot comes back).
fn remember<P>(entries: &mut Vec<MemoEntry<P>>, key: MemoKey, plan: &Arc<P>) {
    if entries.iter().any(|e| e.key == key) {
        return;
    }
    if entries.len() >= MAX_MEMOIZED_SNAPSHOTS {
        entries.remove(0);
    }
    entries.push(MemoEntry {
        key,
        plan: plan.clone(),
    });
}

/// Bound on distinct queries either plan memo retains. The key is
/// client-supplied text (`rpq-server`'s `Session::submit_text`), and each
/// entry keeps a compiled [`Plan`] — an NFA, its reversal once a backward
/// search has asked for it, and a share of the query's alphabet snapshot — so an unbounded map grows for as long as a server
/// is sent new texts. On reaching the bound the map is dropped whole;
/// plans are rebuilt when their query comes back, as with the per-query
/// eviction above. The path-plan memo is built with room for the bound,
/// so a stream of new texts never stops to grow it and re-hash every
/// `Regex` key.
const MAX_MEMOIZED_QUERIES: usize = 4096;

/// The memo's entry list for `query`, dropping the map first if `query`
/// would be distinct query number [`MAX_MEMOIZED_QUERIES`] + 1.
fn memo_slot<K: std::hash::Hash + Eq, V>(memo: &mut HashMap<K, Vec<V>>, query: K) -> &mut Vec<V> {
    if memo.len() >= MAX_MEMOIZED_QUERIES && !memo.contains_key(&query) {
        memo.clear();
    }
    memo.entry(query).or_default()
}

/// An [`Engine`] wrapper that plans before it evaluates: constraint
/// rewriting (*what*), direction choice (*how*), and a shared, thread-safe
/// compiled-plan memo with epoch-aware reuse. See the module docs.
pub struct PlannedEngine<E> {
    inner: E,
    set: ConstraintSet,
    alphabet: Arc<Alphabet>,
    config: PlannerConfig,
    memo: Mutex<HashMap<Regex, Vec<MemoEntry<Plan>>>>,
    crpq_memo: Mutex<HashMap<CrpqSig, Vec<MemoEntry<JoinPlan>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    drift_checks: AtomicUsize,
    scratch: ScratchPool,
}

impl<E> PlannedEngine<E> {
    /// Plan over `set` (the constraints holding at this site) with the
    /// default [`PlannerConfig`]; rewrite candidates are decided by the
    /// plan's closure test.
    pub fn new(inner: E, set: ConstraintSet, alphabet: Alphabet) -> PlannedEngine<E> {
        PlannedEngine {
            inner,
            set,
            alphabet: Arc::new(alphabet),
            config: PlannerConfig::default(),
            memo: Mutex::new(HashMap::with_capacity(MAX_MEMOIZED_QUERIES)),
            crpq_memo: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            drift_checks: AtomicUsize::new(0),
            scratch: ScratchPool::new(),
        }
    }

    /// Plan without constraints: the rewrite pass is an identity and only
    /// the direction choice and plan memo remain.
    pub fn unconstrained(inner: E, alphabet: Alphabet) -> PlannedEngine<E> {
        PlannedEngine::new(inner, ConstraintSet::default(), alphabet)
    }

    /// Replace the configuration.
    pub fn with_config(mut self, config: PlannerConfig) -> PlannedEngine<E> {
        self.config = config;
        self
    }

    /// Inert; deleted with ROADMAP 1(b). No level is priced, so nothing is
    /// discounted; always 1.
    pub fn pull_discount(&self) -> usize {
        1
    }

    /// Inert since PR 25; deleted with ROADMAP 1(b). A pool whose leases
    /// grant nothing; no query of this engine takes one.
    pub fn worker_pool(&self) -> &WorkerPool {
        &WorkerPool
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The evaluation scratch pool this engine's product-BFS entry points
    /// draw working memory from, one arena per request: after warm-up,
    /// repeated queries of
    /// covered `|Q|·|V|` shape allocate nothing (`ScratchPool::reuses`
    /// counts the warm checkouts; every evaluation also reports
    /// `stats.scratch_reused` when its buffers were capacity-covered).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.scratch
    }

    /// Number of (query, snapshot) pairs the memo can serve without a
    /// check: one per plan built, one per snapshot a drift check passed for.
    pub fn plans_cached(&self) -> usize {
        self.memo.lock().values().map(Vec::len).sum()
    }

    /// Plans served from the memo so far (exact-key hits plus epoch-drift
    /// reuses), across every entry point of this engine instance.
    pub fn plan_cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Plans built from scratch so far (rewrite search + compilation).
    pub fn plan_cache_misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drift comparisons run so far: a memoized plan held against
    /// statistics it had not been served under (the pruned-symbol,
    /// direction and decisiveness checks of the module docs). One that
    /// passes is remembered, so reads at one epoch of one query cost one.
    pub fn plan_drift_checks(&self) -> usize {
        self.drift_checks.load(Ordering::Relaxed)
    }

    /// The plan for `query` over `graph` (memoized): rewrite winner,
    /// compiled NFA, direction decision. Generic over any [`GraphView`].
    pub fn plan<G: GraphView>(&self, query: &Query, graph: &G) -> Arc<Plan> {
        self.plan_status(query.regex(), query.alphabet(), graph).0
    }

    /// The rewritten form of `q` over `graph`'s statistics (memoized) —
    /// usable as the per-site hook of the distributed runners:
    /// `sim.with_rewrite(|_site, q| planned.rewrite(q, &graph))`.
    pub fn rewrite<G: GraphView>(&self, q: &Regex, graph: &G) -> Regex {
        self.plan_status(q, &self.alphabet, graph)
            .0
            .query
            .regex()
            .clone()
    }

    /// Epoch-drift reuse check: under the *current* statistics, would the
    /// memoized plan still be chosen? True when the direction decision is
    /// unchanged and neither entry cost drifted past the decisiveness
    /// factor relative to its plan-time value. Alphabet pruning is the one
    /// *stats-dependent soundness* input: a plan that erased symbols is
    /// only reusable while those labels still have zero edges — a delta
    /// that introduces the first edge on a pruned label forces a rebuild,
    /// unlike cost drift, which only risks optimality.
    fn drift_within(&self, plan: &Plan, stats: &LabelStats) -> bool {
        self.drift_checks.fetch_add(1, Ordering::Relaxed);
        let record = &plan.record;
        if record
            .pruned_symbols
            .iter()
            .any(|&s| stats.edge_count(s) != 0)
        {
            return false;
        }
        let f = group_cost(&plan.first_symbols, stats);
        let b = group_cost(&plan.last_symbols, stats);
        choose_direction(f, b) == record.direction
            && within_factor(record.forward_cost, f)
            && within_factor(record.backward_cost, b)
    }

    /// The memoized plan plus whether it was served from the memo (`true`)
    /// or built from scratch (`false`).
    fn plan_status<G: GraphView>(
        &self,
        q: &Regex,
        alphabet: &Arc<Alphabet>,
        graph: &G,
    ) -> (Arc<Plan>, bool) {
        let key = memo_key(graph);
        // Memo probe by reference — the query is cloned only on a miss.
        {
            let mut memo = self.memo.lock();
            if let Some(entries) = memo.get_mut(q) {
                if let Some(e) = entries.iter().find(|e| e.key == key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (e.plan.clone(), true);
                }
                if key.0 != 0 {
                    // Same lineage, different statistics: reuse a plan if
                    // the label-stat drift stays under the decisiveness
                    // threshold (see the module docs) — each plan of the
                    // lineage held against these statistics once, however
                    // many keys it is entered under — and enter it under
                    // this key too, so the check is made once per
                    // statistics.
                    let reusable = entries.iter().enumerate().find(|&(i, e)| {
                        e.key.0 == key.0
                            && !entries[..i].iter().any(|d| Arc::ptr_eq(&d.plan, &e.plan))
                            && self.drift_within(&e.plan, graph.stats())
                    });
                    if let Some(plan) = reusable.map(|(_, e)| e.plan.clone()) {
                        remember(entries, key, &plan);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (plan, true);
                    }
                }
            }
        }
        // Planning runs unlocked: a concurrent duplicate costs one extra
        // rewrite search, and insertion is idempotent (same winner).
        let stats = graph.stats();
        // One pass: the rewrite search, then static analysis of its
        // winner — certify it against the constraint closure (reverting
        // it if certification fails), erase zero-edge symbols, trim, and
        // classify the language.
        let analysis = optimize_and_analyze(&self.set, q, alphabet, stats);
        let plan = Arc::new(Plan::new(analysis, alphabet, stats));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut memo = self.memo.lock();
        remember(memo_slot(&mut memo, q.clone()), key, &plan);
        (plan, false)
    }

    /// Stamp plan observability into an evaluation's counters: the memo
    /// outcome and the plan's two certification counts. The rest of the
    /// plan's record is read off the plan ([`PlannedEngine::plan`]).
    fn stamp(&self, stats: &mut EvalStats, plan: &Plan, hit: bool) {
        stats.plan_cache_hits += usize::from(hit);
        stats.plan_cache_misses += usize::from(!hit);
        stats.rewrites_certified += plan.record.rewrites_certified;
        stats.rewrites_rejected += plan.record.rewrites_rejected;
    }

    /// Answer `spec` under `plan`: statically empty plans answer without
    /// touching the graph (zero edges scanned, no arena checked out);
    /// everything else is one [`run_request`] over the planned automata
    /// with a pooled arena, pairs searched from the planned direction's
    /// end. Plan observability is stamped either way.
    fn execute<G: GraphView>(
        &self,
        plan: &Plan,
        hit: bool,
        graph: &G,
        spec: &SourceSpec,
        opts: &SearchOpts<'_>,
    ) -> EvalResponse {
        let mut resp = if plan.record.statically_empty {
            EvalResponse::empty_for(spec)
        } else {
            run_request(
                plan.query.nfa(),
                &|| plan.query.reversed(),
                graph,
                spec,
                plan.record.direction,
                opts,
                &mut self.scratch.checkout(),
            )
        };
        self.stamp(&mut resp.stats, plan, hit);
        resp
    }

    /// The unified [`EvalRequest`] entry point over **any** [`GraphView`] —
    /// the form the serving layer drives: one plan probe per request
    /// (rewrite + direction + analysis, memoized per epoch lineage), the
    /// statically-empty short-circuit, then [`run_request`] on the calling
    /// thread — whose decision table says which kernel serves each
    /// [`SourceSpec`] — and the plan stamp.
    ///
    /// Finite-language plans cap the product BFS depth at the longest
    /// accepted word — the cap *composes* with a fetch budget (whichever
    /// binds first ends the search). A pair is searched from the planned
    /// direction's end.
    ///
    /// [`Engine::run`] on a `CsrGraph` delegates here.
    pub fn run_view<G: GraphView>(
        &self,
        query: &Query,
        graph: &G,
        req: &EvalRequest,
    ) -> EvalResponse {
        let (plan, hit) = self.plan_status(query.regex(), query.alphabet(), graph);
        let opts = SearchOpts {
            control: req.control(),
            ..capped(&plan)
        };
        self.execute(&plan, hit, graph, &req.spec, &opts)
    }

    /// The memoized join plan for a conjunctive query over `graph`, plus
    /// whether it was served from the memo. Keyed like [`Plan`]s — by
    /// [`Crpq::signature`], the request's head-boundness flags (a bound
    /// head variable can flip the whole order), and the snapshot's
    /// `MemoKey` — with the same per-entry snapshot bound. A join plan
    /// carries one [`Plan`] per atom ([`JoinPlan::atoms`]), and an atom
    /// plan's pruned symbols are a soundness input: it erased the labels
    /// that had no edge under the statistics it was built on. So only an
    /// exact `MemoKey` match serves a join plan — CRPQ plans get no drift
    /// reuse — and the first edge on a pruned label, which moves the key,
    /// plans the query again. Atom plans are made under no constraint
    /// set, so they share nothing with the path memo, whose plans are made
    /// under `E`.
    pub fn crpq_plan<G: GraphView>(
        &self,
        crpq: &Crpq,
        graph: &G,
        src_bound: bool,
        dst_bound: bool,
    ) -> (Arc<JoinPlan>, bool) {
        let sig = (crpq.signature(), src_bound, dst_bound);
        let key = memo_key(graph);
        {
            let memo = self.crpq_memo.lock();
            if let Some(entries) = memo.get(&sig) {
                if let Some(e) = entries.iter().find(|e| e.key == key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (e.plan.clone(), true);
                }
            }
        }
        let plan = Arc::new(plan_join(
            crpq,
            graph.stats(),
            &self.config,
            src_bound,
            dst_bound,
        ));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut memo = self.crpq_memo.lock();
        remember(memo_slot(&mut memo, sig), key, &plan);
        (plan, false)
    }

    /// Evaluate a conjunctive query end-to-end over any [`GraphView`]:
    /// memoized join planning ([`PlannedEngine::crpq_plan`]), then the
    /// semijoin-propagating executor ([`crate::join::execute_join`]), each
    /// atom on its own plan, under the request's budget/cancellation
    /// controls.
    ///
    /// The request's [`SourceSpec`] restricts the *head* variables: source
    /// forms bind the first head variable, target forms the second,
    /// pair/matrix forms both, and [`SourceSpec::Conjunctive`] maps
    /// directly; each side's `None` leaves that head variable free. The
    /// response carries [`rpq_core::Answers::Bindings`] with per-atom
    /// `stats.atoms` telemetry in execution order, and plan-memo
    /// hit/miss counters stamped like every other planned evaluation.
    pub fn run_crpq<G: GraphView>(
        &self,
        crpq: &Crpq,
        graph: &G,
        req: &EvalRequest,
    ) -> EvalResponse {
        // An oid that is no object of the graph binds nothing.
        let nv = graph.num_nodes();
        let (sources, targets) = req.spec.endpoints();
        let sources = sources.map(|os| live_oids(os, nv));
        let targets = targets.map(|os| live_oids(os, nv));
        let heads = HeadBindings {
            sources: sources.as_deref(),
            targets: targets.as_deref(),
        };
        let (plan, hit) = self.crpq_plan(
            crpq,
            graph,
            heads.sources.is_some(),
            heads.targets.is_some(),
        );
        let res = execute_join(
            crpq,
            &plan,
            graph,
            heads,
            &req.control(),
            &mut self.scratch.checkout(),
        );
        let mut resp = EvalResponse::from_pairset(res);
        resp.stats.plan_cache_hits += usize::from(hit);
        resp.stats.plan_cache_misses += usize::from(!hit);
        resp
    }
}

/// Default search options carrying `plan`'s finite-language depth cap.
fn capped(plan: &Plan) -> SearchOpts<'static> {
    SearchOpts {
        depth_cap: plan.record.max_word_len,
        ..SearchOpts::default()
    }
}

/// Multiplicative decisiveness factor: one end of a query must be at least
/// this much cheaper than the other to win the direction choice outright,
/// and the same factor bounds how far an entry cost may drift before an
/// epoch-reused plan is recompiled.
const DECISIVENESS: f64 = 2.0;

/// Pick the direction from the two entry-cost estimates: a decisive
/// (≥ [`DECISIVENESS`]×) win on either end takes that end; otherwise
/// neither does. Equal costs (including the all-zero degenerate case) stay
/// bidirectional.
fn choose_direction(forward_cost: usize, backward_cost: usize) -> Direction {
    let (f, b) = (forward_cost as f64, backward_cost as f64);
    if forward_cost == backward_cost {
        Direction::Bidirectional
    } else if b * DECISIVENESS <= f {
        Direction::Backward
    } else if f * DECISIVENESS <= b {
        Direction::Forward
    } else {
        Direction::Bidirectional
    }
}

/// Is each cost within [`DECISIVENESS`]× of the other?
fn within_factor(a: usize, b: usize) -> bool {
    (a as f64) <= (b as f64) * DECISIVENESS && (b as f64) <= (a as f64) * DECISIVENESS
}

impl<E: Engine> Engine for PlannedEngine<E> {
    fn name(&self) -> &'static str {
        "planned"
    }

    /// The unified request entry point, planned: delegates to the
    /// [`GraphView`]-generic [`PlannedEngine::run_view`] — one plan probe
    /// per request, statically-empty and finite-language fast paths, and
    /// budget/cancellation composed with the planned depth cap.
    fn run(&self, query: &Query, graph: &CsrGraph, req: &EvalRequest) -> EvalResponse {
        self.run_view(query, graph, req)
    }

    /// Rewrite (memoized), then delegate to the inner engine. The answer
    /// set equals the inner engine's on the original query whenever the
    /// constraint set holds at `source` (the Section 3.2 site assumption);
    /// with no constraints it is identical unconditionally.
    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        let (plan, hit) = self.plan_status(query.regex(), query.alphabet(), graph);
        // Statically empty plans answer without the graph; for a finite
        // language the longest accepted word bounds the product BFS depth
        // exactly, so the bounded search beats any unbounded strategy the
        // inner engine might pick.
        if plan.record.statically_empty || plan.record.max_word_len.is_some() {
            let spec = SourceSpec::Source(source);
            let opts = capped(&plan);
            return self
                .execute(&plan, hit, graph, &spec, &opts)
                .into_eval_result();
        }
        let mut res = self.inner.eval(&plan.query, graph, source);
        self.stamp(&mut res.stats, &plan, hit);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::parse_regex;
    use rpq_core::{Answers, EvalScratch, ProductEngine, Termination};
    use rpq_graph::{DeltaGraph, Instance, InstanceBuilder};

    /// The shared T5 cached workload (`rpq_bench::distributed_workload`):
    /// an a·b backbone with trap branches, the cache label `l` wired from
    /// `v0` to every (a.b)*-reachable node, so `l = (a.b)*` holds at `v0`.
    fn cached_workload(depth: usize) -> (Alphabet, ConstraintSet, Instance, Oid) {
        let w = rpq_bench::distributed_workload(depth);
        assert!(w.constraints.holds_at(&w.instance, w.source));
        (w.alphabet, w.constraints, w.instance, w.source)
    }

    #[test]
    fn planned_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlannedEngine<ProductEngine>>();
    }

    #[test]
    fn run_crpq_joins_plans_and_memoizes() {
        use crate::join::{execute_naive, parse_crpq, HeadBindings};

        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "m1");
        b.edge("s", "a", "m2");
        b.edge("m1", "b", "t1");
        b.edge("m2", "b", "t2");
        b.edge("t1", "c", "u1");
        b.edge("x1", "a", "x2");
        let (inst, names) = b.finish();
        let graph = CsrGraph::from(&inst);
        let crpq = parse_crpq(&mut ab, "ans(x, w) :- x -[a]-> y, y -[b]-> z, z -[c]-> w").unwrap();
        let engine = PlannedEngine::unconstrained(ProductEngine, ab);

        let req = EvalRequest::conjunctive(None, None);
        let resp = engine.run_crpq(&crpq, &graph, &req);
        let bindings = resp.bindings().expect("bindings payload").to_vec();
        let (oracle, _) = execute_naive(&crpq, &graph, HeadBindings::default());
        assert_eq!(bindings, oracle);
        assert_eq!(bindings, vec![(names["s"], names["u1"])]);
        assert_eq!(resp.stats.atoms.len(), 3, "one record per atom");
        assert_eq!(resp.stats.plan_cache_misses, 1);

        // Same signature + snapshot: the join plan is served from memo.
        let resp2 = engine.run_crpq(&crpq, &graph, &req);
        assert_eq!(resp2.bindings().unwrap(), &bindings[..]);
        assert_eq!(resp2.stats.plan_cache_hits, 1);

        // A head restriction changes the boundness flags → separate plan.
        let bound = EvalRequest::conjunctive(Some(vec![names["s"]]), None);
        let resp3 = engine.run_crpq(&crpq, &graph, &bound);
        assert_eq!(resp3.stats.plan_cache_misses, 1);
        assert_eq!(resp3.bindings().unwrap(), &bindings[..]);
    }

    #[test]
    fn planned_answers_match_inner_on_the_cached_workload() {
        let (mut ab, set, inst, v0) = cached_workload(6);
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::new(ProductEngine, set, ab.clone());
        let query = Query::parse(&mut ab, "(a.b)*").unwrap();
        let plain = ProductEngine.eval(&query, &graph, v0);
        let opt = planned.eval(&query, &graph, v0);
        assert_eq!(opt.answers, plain.answers);
        let plan = planned.plan(&query, &graph);
        assert_eq!(
            plan.record.rewrites_certified, 1,
            "the cache substitution must fire"
        );
        assert!(
            opt.stats.edges_scanned < plain.stats.edges_scanned,
            "rewritten query must do less work: {} vs {}",
            opt.stats.edges_scanned,
            plain.stats.edges_scanned
        );
    }

    #[test]
    fn plans_are_memoized_per_query_and_snapshot() {
        let (mut ab, set, inst, v0) = cached_workload(4);
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::new(ProductEngine, set, ab.clone());
        let query = Query::parse(&mut ab, "(a.b)*").unwrap();
        let p1 = planned.plan(&query, &graph);
        assert_eq!(planned.plan_cache_misses(), 1);
        let p2 = planned.plan(&query, &graph);
        assert!(Arc::ptr_eq(&p1, &p2), "second plan must be the memo hit");
        assert_eq!(planned.plan_cache_hits(), 1);
        assert_eq!(planned.plans_cached(), 1);
        planned.eval(&query, &graph, v0);
        assert_eq!(planned.plans_cached(), 1, "eval reuses the plan");
        let other = Query::parse(&mut ab, "a.b").unwrap();
        planned.eval(&other, &graph, v0);
        assert_eq!(planned.plans_cached(), 2);
    }

    #[test]
    fn eval_stats_record_the_cache_outcome_and_the_certification() {
        let (mut ab, set, inst, v0) = cached_workload(4);
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::new(ProductEngine, set, ab.clone());
        let query = Query::parse(&mut ab, "(a.b)*").unwrap();
        let first = planned.eval(&query, &graph, v0);
        assert_eq!(first.stats.plan_cache_misses, 1);
        assert_eq!(first.stats.plan_cache_hits, 0);
        assert_eq!(first.stats.rewrites_certified, 1);
        let second = planned.eval(&query, &graph, v0);
        assert_eq!(second.stats.plan_cache_hits, 1);
        assert_eq!(second.stats.plan_cache_misses, 0);
        assert_eq!(
            (
                second.stats.rewrites_certified,
                second.stats.rewrites_rejected
            ),
            (1, 0),
            "a hit reports the plan's certification too"
        );
        // unplanned engines leave the fields untouched
        let raw = ProductEngine.eval(&query, &graph, v0);
        assert_eq!(raw.stats.plan_cache_hits + raw.stats.plan_cache_misses, 0);
        assert_eq!(raw.stats.rewrites_certified, 0);
    }

    #[test]
    fn backward_is_planned_when_the_last_label_is_rare() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..64 {
            b.edge("s", "hot", &format!("f{i}"));
            b.edge(&format!("f{i}"), "hot", &format!("g{i}"));
        }
        b.edge("g0", "cold", "t");
        let (inst, names) = b.finish();
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let query = Query::parse(&mut ab, "hot.hot.cold").unwrap();
        let plan = planned.plan(&query, &graph);
        assert_eq!(plan.record.direction, Direction::Backward, "{plan:?}");
        assert!(plan.record.backward_cost < plan.record.forward_cost);

        let (s, t) = (names["s"], names["t"]);
        let planned_pair = planned.run_view(&query, &graph, &EvalRequest::pair(s, t));
        let forced_forward = rpq_core::search_pair(
            query.nfa(),
            query.reversed(),
            &graph,
            s,
            t,
            Direction::Forward,
            &SearchOpts::default(),
            &mut EvalScratch::new(),
        )
        .0;
        assert!(planned_pair.reachable().unwrap() && forced_forward.reachable);
        assert!(
            planned_pair.stats.edges_scanned * 10 < forced_forward.stats.edges_scanned,
            "backward must win big: {} vs {}",
            planned_pair.stats.edges_scanned,
            forced_forward.stats.edges_scanned
        );

        // the target-bound scenario uses the same rare entry
        let to = planned.run_view(&query, &graph, &EvalRequest::target(t));
        assert_eq!(to.nodes().unwrap(), [s]);
    }

    #[test]
    fn forward_is_planned_when_the_first_label_is_rare() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "cold", "m");
        for i in 0..64 {
            b.edge("m", "hot", &format!("t{i}"));
        }
        let (inst, _) = b.finish();
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let query = Query::parse(&mut ab, "cold.hot").unwrap();
        let plan = planned.plan(&query, &graph);
        assert_eq!(plan.record.direction, Direction::Forward, "{plan:?}");
    }

    #[test]
    fn balanced_ends_plan_bidirectional() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("x", "a", "y");
        b.edge("y", "a", "z");
        let (inst, _) = b.finish();
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let query = Query::parse(&mut ab, "a.a").unwrap();
        assert_eq!(
            planned.plan(&query, &graph).record.direction,
            Direction::Bidirectional
        );
    }

    #[test]
    fn same_sized_snapshots_with_different_stats_get_distinct_plans() {
        // Two graphs with identical node and edge counts but opposite
        // label skew: plans must not be shared (the second graph would
        // inherit a backward plan against its *fat* reverse entry).
        let build = |last_is_rare: bool| {
            let mut ab = Alphabet::new();
            let mut b = InstanceBuilder::new(&mut ab);
            if last_is_rare {
                // 16 hot fan edges, one cold edge into t
                for i in 0..16 {
                    b.edge("s", "hot", &format!("m{i}"));
                }
                b.edge("m0", "cold", "t");
            } else {
                // one hot edge, 16 cold edges into t (same node/edge counts)
                b.edge("s", "hot", "m0");
                for i in 0..16 {
                    b.edge(&format!("m{i}"), "cold", "t");
                }
            }
            let (inst, _) = b.finish();
            (ab, CsrGraph::from(&inst))
        };
        let (ab, skew_backward) = build(true);
        let (_, skew_forward) = build(false);
        assert_eq!(skew_backward.num_nodes(), skew_forward.num_nodes());
        assert_eq!(skew_backward.num_edges(), skew_forward.num_edges());

        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let mut ab2 = ab.clone();
        let query = Query::parse(&mut ab2, "hot.cold").unwrap();
        assert_eq!(
            planned.plan(&query, &skew_backward).record.direction,
            Direction::Backward
        );
        assert_eq!(
            planned.plan(&query, &skew_forward).record.direction,
            Direction::Forward,
            "the second snapshot must get its own plan, not the memo hit"
        );
        assert_eq!(planned.plans_cached(), 2);
    }

    #[test]
    fn plan_memo_is_bounded_across_snapshots() {
        // Simulate a mutating graph: every rebuild produces a snapshot
        // with a fresh stats fingerprint. The memo must retain at most
        // MAX_MEMOIZED_SNAPSHOTS entries for the query.
        let mut ab = Alphabet::new();
        let planned = PlannedEngine::unconstrained(ProductEngine, {
            ab.intern("a");
            ab.clone()
        });
        let query = Query::parse(&mut ab, "a.a").unwrap();
        for gen in 1..=2 * MAX_MEMOIZED_SNAPSHOTS {
            let mut b = InstanceBuilder::new(&mut ab);
            for i in 0..gen {
                b.edge(&format!("x{i}"), "a", &format!("y{i}"));
            }
            let (inst, _) = b.finish();
            planned.plan(&query, &CsrGraph::from(&inst));
        }
        assert!(
            planned.plans_cached() <= MAX_MEMOIZED_SNAPSHOTS,
            "memo must evict retired snapshots: {} plans",
            planned.plans_cached()
        );
    }

    #[test]
    fn small_delta_epochs_and_compaction_reuse_the_plan() {
        // A delta lineage: plan once, absorb a small batch (stats drift
        // under the decisiveness factor) -> the memo serves the same plan.
        // compact() keeps the lineage and every statistic -> an exact hit.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..32 {
            b.edge("s", "hot", &format!("m{i}"));
            b.edge(&format!("m{i}"), "cold", "t");
        }
        let (inst, _) = b.finish();
        let mut dg = DeltaGraph::from_instance(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let query = {
            let mut ab2 = ab.clone();
            Query::parse(&mut ab2, "hot.cold").unwrap()
        };

        let p1 = planned.plan(&query, &dg);
        assert_eq!(planned.plan_cache_misses(), 1);

        // one extra hot edge: a ~3% drift — same plan must be served
        let hot = ab.get("hot").unwrap();
        assert!(dg.add_edge(Oid(0), hot, Oid(2)));
        assert_eq!(planned.plan_drift_checks(), 0, "exact hits check nothing");
        let p2 = planned.plan(&query, &dg);
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "small-delta epoch must reuse the memoized plan"
        );
        assert_eq!(planned.plan_cache_hits(), 1);
        assert_eq!(planned.plan_drift_checks(), 1);

        // evaluation over the delta view reports the hit, and every further
        // read at this epoch is an exact one: the check that passed is
        // remembered under the key it passed for
        for _ in 0..5 {
            let res = planned.run_view(&query, &dg, &EvalRequest::source(Oid(0)));
            assert_eq!(res.stats.plan_cache_hits, 1);
            assert!(Arc::ptr_eq(&p1, &planned.plan(&query, &dg)));
        }
        assert_eq!(planned.plan_drift_checks(), 1, "one check per epoch");
        assert_eq!(planned.plans_cached(), 2, "the plan, under both keys");
        // a second epoch is a second check, against the plan's own costs
        assert!(dg.add_edge(Oid(2), hot, Oid(0)));
        assert!(Arc::ptr_eq(&p1, &planned.plan(&query, &dg)));
        assert!(Arc::ptr_eq(&p1, &planned.plan(&query, &dg)));
        assert_eq!(planned.plan_drift_checks(), 2);
        assert_eq!(planned.plan_cache_misses(), 1);

        // compaction = same lineage, same statistics = memo hit
        let (misses_before, hits_before) = (planned.plan_cache_misses(), planned.plan_cache_hits());
        let before = dg.epoch();
        dg.compact();
        assert_eq!(dg.epoch().base, before.base);
        assert!(dg.epoch().version > before.version);
        let p3 = planned.plan(&query, &dg);
        assert!(
            Arc::ptr_eq(&p1, &p3),
            "compaction must not cost the lineage its plans"
        );
        assert_eq!(planned.plan_cache_misses(), misses_before);
        assert_eq!(planned.plan_cache_hits(), hits_before + 1);
        assert_eq!(planned.plan_drift_checks(), 2, "a fold moves no key");
        let res = planned.run_view(&query, &dg, &EvalRequest::source(Oid(0)));
        assert_eq!(
            (res.stats.plan_cache_hits, res.stats.plan_cache_misses),
            (1, 0)
        );
    }

    #[test]
    fn decisive_drift_recompiles_the_plan() {
        // Start backward-skewed (one cold exit), then add enough cold
        // edges to erase the skew: the direction decision flips, so the
        // memoized plan must NOT be reused despite the same lineage —
        // whether or not a compaction folded the new edges in first, and
        // whether or not an earlier epoch's drift check was remembered
        // (what a check vouched for is its own statistics, not the next).
        for (fold, validated_first) in [(false, false), (true, false), (false, true), (true, true)]
        {
            let mut ab = Alphabet::new();
            let mut b = InstanceBuilder::new(&mut ab);
            for i in 0..16 {
                b.edge("s", "hot", &format!("m{i}"));
            }
            b.edge("m0", "cold", "t");
            let (inst, names) = b.finish();
            let mut dg = DeltaGraph::from_instance(&inst);
            let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
            let query = {
                let mut ab2 = ab.clone();
                Query::parse(&mut ab2, "hot.cold").unwrap()
            };
            let p1 = planned.plan(&query, &dg);
            assert_eq!(p1.record.direction, Direction::Backward);

            let cold = ab.get("cold").unwrap();
            let t = names["t"];
            if validated_first {
                // epoch 2: one more hot edge is within the drift bound
                assert!(dg.add_edge(names["m1"], ab.get("hot").unwrap(), names["m2"]));
                assert!(Arc::ptr_eq(&p1, &planned.plan(&query, &dg)));
                assert_eq!(planned.plan_drift_checks(), 1);
                assert_eq!(planned.plans_cached(), 2);
            }
            for i in 1..16 {
                let m = names[format!("m{i}").as_str()];
                assert!(dg.add_edge(m, cold, t));
            }
            if fold {
                dg.compact();
            }
            let p2 = planned.plan(&query, &dg);
            assert!(!Arc::ptr_eq(&p1, &p2), "decisive drift must recompile");
            assert_ne!(p2.record.direction, Direction::Backward);
            // the plan was held against the new statistics once, under
            // however many keys it was entered
            assert_eq!(
                planned.plan_drift_checks(),
                1 + usize::from(validated_first)
            );
            assert_eq!(planned.plan_cache_misses(), 2);
        }
    }

    #[test]
    fn one_planned_engine_shared_across_threads() {
        let (mut ab, set, inst, v0) = cached_workload(5);
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::new(ProductEngine, set, ab.clone());
        let query = Query::parse(&mut ab, "(a.b)*").unwrap();
        let expected = planned.eval(&query, &graph, v0).answers;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        assert_eq!(planned.eval(&query, &graph, v0).answers, expected);
                    }
                });
            }
        });
        assert_eq!(planned.plans_cached(), 1);
    }

    #[test]
    fn statically_empty_queries_answer_without_touching_the_graph() {
        // "ghost" is interned but has zero edges: every word of
        // a.ghost.a mentions it, so the restricted language is empty and
        // both entry points must answer without scanning anything
        // (`run_view` shape by shape: the test after next).
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("x", "a", "y");
        b.edge("y", "a", "z");
        let (inst, names) = b.finish();
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let query = Query::parse(&mut ab, "a.ghost.a").unwrap();
        let (x, y) = (names["x"], names["y"]);

        let res = planned.eval(&query, &graph, x);
        assert!(res.answers.is_empty());
        assert_eq!(res.stats.edges_scanned, 0, "no edge may be scanned");
        assert_eq!(res.stats.pairs_visited, 0, "no frontier was allocated");
        let record = &planned.plan(&query, &graph).record;
        assert_eq!(record.pruned_symbols.len(), 1);
        assert!(record.finite_language);

        // `Engine::run` takes the same exit, and the plan is built once —
        // emptiness is decided per plan
        let pair = planned.run(&query, &graph, &EvalRequest::pair(x, y));
        assert!(!pair.reachable().unwrap() && pair.stats.edges_scanned == 0);
        assert_eq!(planned.plan_cache_misses(), 1);
    }

    #[test]
    fn finite_queries_run_the_bounded_fast_path_and_agree() {
        // A cycle keeps the graph side unbounded; the query language is
        // finite, so the planner caps the product BFS at the longest
        // accepted word and must still return the exact answer set.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "m");
        b.edge("m", "b", "s");
        b.edge("m", "b", "t");
        b.edge("t", "a", "s");
        let (inst, names) = b.finish();
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let query = Query::parse(&mut ab, "a.b + a.b.a.b").unwrap();
        let s = names["s"];

        let plan = planned.plan(&query, &graph);
        assert_eq!(plan.record.max_word_len, Some(4));
        assert!(plan.record.finite_language);
        let fast = planned.eval(&query, &graph, s);
        let plain = ProductEngine.eval(&query, &graph, s);
        assert_eq!(fast.answers, plain.answers);
        let to = planned.run_view(&query, &graph, &EvalRequest::target(s));
        let plain_to = ProductEngine.run(&query, &graph, &EvalRequest::target(s));
        assert_eq!(to.nodes(), plain_to.nodes());
    }

    #[test]
    fn first_edge_on_a_pruned_label_forces_a_replan() {
        // Pruning is stats-dependent: a plan that erased `ghost` is
        // unsound the moment a delta adds the first ghost edge, even
        // though the cost drift is far under the decisiveness factor —
        // and a compaction that folds the ghost edge in changes nothing,
        // nor does a drift check an earlier epoch passed.
        for (fold, validated_first) in [(false, false), (true, false), (false, true), (true, true)]
        {
            let mut ab = Alphabet::new();
            let mut b = InstanceBuilder::new(&mut ab);
            for i in 0..32 {
                b.edge("s", "a", &format!("m{i}"));
            }
            let (inst, names) = b.finish();
            let ghost = ab.intern("ghost");
            let mut dg = DeltaGraph::from_instance(&inst);
            let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
            let query = {
                let mut ab2 = ab.clone();
                Query::parse(&mut ab2, "a + ghost").unwrap()
            };
            let s = names["s"];

            let p1 = planned.plan(&query, &dg);
            assert_eq!(p1.record.pruned_symbols, vec![ghost]);
            let from_s = EvalRequest::source(s);
            assert_eq!(planned.run_view(&query, &dg, &from_s).stats.answers, 32);

            if validated_first {
                // epoch 2: one more `a` edge, no ghost yet — the plan holds
                let a = ab.get("a").unwrap();
                assert!(dg.add_edge(names["m0"], a, names["m1"]));
                assert!(Arc::ptr_eq(&p1, &planned.plan(&query, &dg)));
                assert!(Arc::ptr_eq(&p1, &planned.plan(&query, &dg)));
                assert_eq!(planned.plan_drift_checks(), 1);
            }
            // one ghost edge among 32: cost drift alone would reuse the plan
            assert!(dg.add_edge(s, ghost, names["m0"]));
            if fold {
                dg.compact();
            }
            let p2 = planned.plan(&query, &dg);
            assert!(
                !Arc::ptr_eq(&p1, &p2),
                "the pruned-label guard must force a rebuild"
            );
            assert!(p2.record.pruned_symbols.is_empty());
            // and the rebuilt plan answers the ghost path
            assert_eq!(planned.run_view(&query, &dg, &from_s).stats.answers, 32);
            let mut ab3 = ab.clone();
            let ghost_only = Query::parse(&mut ab3, "ghost").unwrap();
            assert_eq!(planned.run_view(&ghost_only, &dg, &from_s).stats.answers, 1);
        }
    }

    #[test]
    fn a_plan_record_is_built_once_and_shared_by_every_hit() {
        // Two exact hits and one drift reuse serve the one `Arc<Plan>`, so
        // they share its record: none is rebuilt (`Arc::ptr_eq`) or
        // restamped. The first edge on the pruned label replans,
        // and the new plan brings its own record.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..32 {
            b.edge("s", "a", &format!("m{i}"));
        }
        let (inst, names) = b.finish();
        let (a, ghost) = (ab.get("a").unwrap(), ab.intern("ghost"));
        let mut dg = DeltaGraph::from_instance(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let query = Query::parse(&mut ab.clone(), "a + ghost").unwrap();
        let (s, m0) = (names["s"], names["m0"]);

        let p1 = planned.plan(&query, &dg);
        let record = p1.record.clone();
        assert_eq!(record.pruned_symbols, vec![ghost]);
        let from_s = EvalRequest::source(s);
        for _ in 0..2 {
            let resp = planned.run_view(&query, &dg, &from_s);
            assert_eq!(
                (resp.stats.plan_cache_hits, resp.stats.plan_cache_misses),
                (1, 0)
            );
            let hit = planned.plan(&query, &dg);
            assert!(Arc::ptr_eq(&p1, &hit));
            assert_eq!(hit.record, record);
        }

        assert!(dg.add_edge(m0, a, names["m1"]));
        let reused = planned.plan(&query, &dg);
        assert_eq!(planned.plan_drift_checks(), 1);
        assert!(Arc::ptr_eq(&p1, &reused), "a drift within bounds reuses");
        assert_eq!(reused.record, record);
        assert_eq!(planned.plan_cache_misses(), 1);

        assert!(dg.add_edge(s, ghost, m0));
        let replanned = planned.plan(&query, &dg);
        assert!(!Arc::ptr_eq(&p1, &replanned));
        assert!(replanned.record.pruned_symbols.is_empty());
        assert_eq!(planned.plan_cache_misses(), 2);
        assert_eq!(p1.record, record, "a replan leaves the old record alone");
    }

    #[test]
    fn first_edge_on_a_pruned_label_replans_the_crpq() {
        // A join plan's atom plans prune by the statistics they were built
        // on: `ghost` has no edge, so the second atom is `b` alone, and the
        // third is statically empty. The first ghost edge must make the
        // next `run_crpq` plan again and bind through it — with or without
        // a compaction folding the edge in.
        use crate::join::{execute_naive, parse_crpq, HeadBindings};
        for fold in [false, true] {
            let mut ab = Alphabet::new();
            let mut b = InstanceBuilder::new(&mut ab);
            for i in 0..8 {
                b.edge("s", "a", &format!("m{i}"));
            }
            b.edge("m0", "b", "t");
            let (inst, names) = b.finish();
            let ghost = ab.intern("ghost");
            let mut dg = DeltaGraph::from_instance(&inst);
            let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
            let pruned = parse_crpq(
                &mut ab.clone(),
                "ans(x, z) :- x -[a]-> y, y -[b + ghost]-> z",
            )
            .unwrap();
            let empty =
                parse_crpq(&mut ab.clone(), "ans(x, z) :- x -[a]-> y, y -[ghost]-> z").unwrap();
            let (s, t) = (names["s"], names["t"]);
            let req = EvalRequest::conjunctive(None, None);

            let first = planned.run_crpq(&pruned, &dg, &req);
            assert_eq!(first.bindings().unwrap(), [(s, t)]);
            let (plan, _) = planned.crpq_plan(&pruned, &dg, false, false);
            assert_eq!(plan.atoms[1].record.pruned_symbols, vec![ghost]);
            let none = planned.run_crpq(&empty, &dg, &req);
            assert!(none.bindings().unwrap().is_empty());
            assert_eq!(none.stats.edges_scanned, 0, "a statically empty atom");

            // one ghost edge among nine: a new binding (s, m2)
            assert!(dg.add_edge(names["m1"], ghost, names["m2"]));
            if fold {
                dg.compact();
            }
            let want = vec![(s, names["m2"]), (s, t)];
            for crpq in [&pruned, &empty] {
                let resp = planned.run_crpq(crpq, &dg, &req);
                assert_eq!(resp.stats.plan_cache_misses, 1, "fold {fold}");
                let (oracle, _) = execute_naive(crpq, &dg, HeadBindings::default());
                assert_eq!(resp.bindings().unwrap(), &oracle[..], "fold {fold}");
            }
            let resp = planned.run_crpq(&pruned, &dg, &req);
            assert_eq!(resp.bindings().unwrap(), want, "fold {fold}");
            assert_eq!(resp.stats.plan_cache_hits, 1, "fold {fold}");
        }
    }

    #[test]
    fn a_one_atom_crpq_is_the_conjunctive_request() {
        // `run_crpq` on `ans(x, y) :- x -[p]-> y` and `run_view` on `p`
        // with a `Conjunctive` spec ask one binding-set question through
        // one decision: same bindings, same edges, for every head shape.
        use crate::join::parse_crpq;
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for (from, label, to) in [
            ("o1", "a", "o2"),
            ("o2", "b", "o3"),
            ("o3", "b", "o2"),
            ("o1", "b", "o3"),
            ("o3", "a", "o1"),
            ("o3", "c", "o4"),
            ("o4", "a", "o4"),
        ] {
            b.edge(from, label, to);
        }
        let (inst, _) = b.finish();
        ab.intern("ghost");
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let all: Vec<Oid> = graph.nodes().collect();
        let some: Vec<Oid> = all.iter().copied().step_by(2).collect();
        for text in ["a.b*", "(a+b)*.c", "b + ghost", "a.ghost", "c.a*"] {
            let mut qab = ab.clone();
            let query = Query::parse(&mut qab, text).unwrap();
            let crpq = parse_crpq(&mut qab, &format!("ans(x, y) :- x -[{text}]-> y")).unwrap();
            for (sources, targets) in [
                (None, None),
                (Some(all.clone()), None),
                (None, Some(some.clone())),
                (Some(some.clone()), Some(all.clone())),
            ] {
                let req = EvalRequest::conjunctive(sources, targets);
                let join = planned.run_crpq(&crpq, &graph, &req);
                let view = planned.run_view(&query, &graph, &req);
                let ctx = format!("[{text}] {:?}", req.spec);
                assert_eq!(join.answers, view.answers, "{ctx}");
                assert_eq!(join.stats.answers, view.stats.answers, "{ctx}");
                let edges = (join.stats.edges_scanned, view.stats.edges_scanned);
                assert_eq!(edges.0, edges.1, "{ctx}");
            }
        }
    }

    /// Every [`SourceSpec`] shape over `seeds` (all-pairs forms left out:
    /// on the web graph they are the whole closure), then one under a
    /// budget.
    fn every_shape(seeds: &[Oid]) -> Vec<EvalRequest> {
        let (s, t) = (seeds[0], seeds[seeds.len() - 1]);
        vec![
            EvalRequest::source(s),
            EvalRequest::sources(seeds.to_vec()),
            EvalRequest::target(t),
            EvalRequest::targets(seeds.to_vec()),
            EvalRequest::pair(s, t),
            EvalRequest::matrix(seeds.to_vec(), seeds.to_vec()),
            EvalRequest::conjunctive(Some(seeds.to_vec()), None),
            EvalRequest::conjunctive(None, Some(seeds.to_vec())),
            EvalRequest::conjunctive(Some(seeds.to_vec()), Some(seeds.to_vec())),
            EvalRequest::sources(seeds.to_vec()).with_budget(50),
        ]
    }

    /// `run_view` is [`run_request`] on the planned automata with the
    /// options its rustdoc promises, plus the plan stamp: same payload,
    /// same termination, same counters — and no level fanned out.
    fn assert_run_view_is_run_request<G: GraphView>(
        planned: &PlannedEngine<ProductEngine>,
        query: &Query,
        graph: &G,
        seeds: &[Oid],
    ) {
        let plan = planned.plan(query, graph);
        assert!(!plan.record.statically_empty);
        for req in every_shape(seeds) {
            // the first run sizes the pooled arenas; compare warm with warm
            planned.run_view(query, graph, &req);
            let got = planned.run_view(query, graph, &req);
            let mut want = {
                let opts = SearchOpts {
                    control: req.control(),
                    depth_cap: plan.record.max_word_len,
                    ..SearchOpts::default()
                };
                run_request(
                    plan.query.nfa(),
                    &|| plan.query.reversed(),
                    graph,
                    &req.spec,
                    plan.record.direction,
                    &opts,
                    &mut planned.scratch.checkout(),
                )
            };
            let ctx = format!("{:?} parallelism {}", req, planned.config.parallelism);
            assert_eq!(got.termination, want.termination, "{ctx}");
            assert_eq!(got.answers, want.answers, "{ctx}");
            // exactly one plan probe per request, stamped once
            assert_eq!(
                (got.stats.plan_cache_hits, got.stats.plan_cache_misses),
                (1, 0)
            );
            planned.stamp(&mut want.stats, &plan, true);
            assert_eq!(got.stats, want.stats, "{ctx}");
            let st = &got.stats;
            assert_eq!((st.parallel_levels, st.threads_used), (0, 0), "{ctx}");
        }
    }

    #[test]
    fn run_view_is_run_request_under_the_plan_on_every_shape_and_view() {
        // The cached workload: a certified rewrite to a finite language, so
        // the depth cap is in play. The web graph: a closure whose edge
        // mass once leased workers at parallelism 2 — which is inert now:
        // every configuration runs the same searches on the caller's thread.
        let (mut ab, set, inst, v0) = cached_workload(4);
        let cached = Query::parse(&mut ab, "(a.b)*").unwrap();
        let web = rpq_bench::eval_workload(13, 5_000);
        let broad = Query::new(web.queries[3].1.clone(), &web.alphabet);
        let web_seeds: Vec<Oid> = (0..6).map(|i| Oid(i * 700)).collect();
        for parallelism in [1, 2] {
            let config = PlannerConfig { parallelism };
            let planned =
                PlannedEngine::new(ProductEngine, set.clone(), ab.clone()).with_config(config);
            let graph = CsrGraph::from(&inst);
            let mut dg = DeltaGraph::from_instance(&inst);
            assert!(dg.add_edge(v0, ab.get("a").unwrap(), v0)); // a live overlay
            let seeds: Vec<Oid> = graph.nodes().collect();
            assert_run_view_is_run_request(&planned, &cached, &graph, &seeds);
            assert_run_view_is_run_request(&planned, &cached, &dg, &seeds);
            assert!(planned.plan(&cached, &graph).record.max_word_len.is_some());

            // a batch is its per-item requests, item by item
            let all = planned.run_view(&cached, &dg, &EvalRequest::targets(seeds.clone()));
            let per = all.batch().unwrap().per_source().unwrap();
            for (i, &t) in seeds.iter().enumerate() {
                let one = planned.run_view(&cached, &dg, &EvalRequest::target(t));
                assert_eq!(per[i], one.nodes().unwrap(), "{t:?}");
            }

            let planned = PlannedEngine::unconstrained(ProductEngine, web.alphabet.clone())
                .with_config(config);
            let graph = CsrGraph::from(&web.instance);
            let mut dg = DeltaGraph::from_instance(&web.instance);
            let l0 = web.alphabet.get("l0").unwrap();
            assert!(dg.add_edge(Oid(0), l0, Oid(4_999)));
            assert_run_view_is_run_request(&planned, &broad, &graph, &web_seeds);
            assert_run_view_is_run_request(&planned, &broad, &dg, &web_seeds);
        }
    }

    #[test]
    fn plan_memos_are_bounded_in_distinct_queries() {
        // Distinct texts: the 13-letter words over {a, b}, one per number.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for (from, label, to) in [
            ("x", "a", "y"),
            ("x", "b", "x"),
            ("y", "a", "x"),
            ("y", "b", "y"),
        ] {
            b.edge(from, label, to);
        }
        let (inst, names) = b.finish();
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let text = |i: usize| {
            let letters: Vec<&str> = (0..13)
                .map(|bit| if i >> bit & 1 == 0 { "a" } else { "b" })
                .collect();
            letters.join(".")
        };
        let word = |i: usize| Query::parse(&mut ab.clone(), &text(i)).unwrap();
        let req = EvalRequest::source(names["x"]);
        for i in 0..=MAX_MEMOIZED_QUERIES {
            let query = word(i);
            let got = planned.run_view(&query, &graph, &req);
            let want = ProductEngine.run(&query, &graph, &req);
            assert_eq!(got.nodes(), want.nodes(), "query {i}");
            assert!(planned.plans_cached() <= MAX_MEMOIZED_QUERIES);
        }
        assert_eq!(planned.plan_cache_misses(), MAX_MEMOIZED_QUERIES + 1);
        assert_eq!(planned.plans_cached(), 1, "the bound dropped the map");

        // An evicted text sent again is one miss, then hits like any other.
        let again = planned.run_view(&word(0), &graph, &req);
        assert_eq!(
            again.nodes(),
            ProductEngine.run(&word(0), &graph, &req).nodes()
        );
        assert_eq!(
            (again.stats.plan_cache_hits, again.stats.plan_cache_misses),
            (0, 1)
        );
        let warm = planned.run_view(&word(0), &graph, &req);
        assert_eq!(
            (warm.stats.plan_cache_hits, warm.stats.plan_cache_misses),
            (1, 0)
        );

        // The join-plan memo shares the bound and the policy.
        use crate::join::parse_crpq;
        let crpq = |i: usize| {
            parse_crpq(
                &mut ab.clone(),
                &format!("ans(x, y) :- x -[{}]-> y", text(i)),
            )
            .unwrap()
        };
        for i in 0..=MAX_MEMOIZED_QUERIES {
            planned.crpq_plan(&crpq(i), &graph, false, false);
        }
        assert_eq!(planned.crpq_memo.lock().len(), 1);
        assert!(!planned.crpq_plan(&crpq(0), &graph, false, false).1);
        assert!(planned.crpq_plan(&crpq(0), &graph, false, false).1);
    }

    #[test]
    fn run_view_budget_composes_with_the_planned_depth_cap() {
        let (mut ab, set, inst, v0) = cached_workload(4);
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::new(ProductEngine, set, ab.clone());
        let query = Query::parse(&mut ab, "(a.b)*").unwrap();
        let full = planned.run_view(&query, &graph, &EvalRequest::source(v0));
        let full = full.nodes().unwrap();
        for budget in [0usize, 1, 3, 7, 100_000] {
            let req = EvalRequest::source(v0).with_budget(budget);
            let resp = planned.run_view(&query, &graph, &req);
            assert!(
                resp.stats.edges_scanned <= budget,
                "scanned {} > budget {budget}",
                resp.stats.edges_scanned
            );
            for n in resp.nodes().unwrap() {
                assert!(full.contains(n), "budgeted answer must be sound");
            }
            if resp.termination == Termination::Complete {
                assert_eq!(resp.nodes().unwrap(), full);
            }
            assert_eq!(
                (resp.stats.plan_cache_hits, resp.stats.rewrites_certified),
                (1, 1),
                "controlled paths stamp"
            );
        }
        // a pre-raised cancel flag terminates immediately with sound output
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let req = EvalRequest::sources(vec![v0]).with_cancel(flag);
        let resp = planned.run_view(&query, &graph, &req);
        assert_eq!(resp.termination, Termination::Cancelled);
    }

    #[test]
    fn run_view_statically_empty_answers_every_shape_without_scanning() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("x", "a", "y");
        let (inst, names) = b.finish();
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::unconstrained(ProductEngine, ab.clone());
        let query = Query::parse(&mut ab, "a.ghost").unwrap();
        let (x, y) = (names["x"], names["y"]);
        let reqs = [
            EvalRequest::source(x),
            EvalRequest::sources(vec![x, y]),
            EvalRequest::target(y),
            EvalRequest::targets(vec![x, y]),
            EvalRequest::pair(x, y),
            EvalRequest::matrix(vec![x, y], vec![x, y]),
            // controlled requests take the same zero-scan fast path
            EvalRequest::pair(x, y).with_budget(10),
        ];
        for req in reqs {
            let resp = planned.run_view(&query, &graph, &req);
            assert_eq!(resp.stats.edges_scanned, 0, "{:?}", req.spec);
            assert_eq!(resp.termination, Termination::Complete);
            match (&req.spec, &resp.answers) {
                (SourceSpec::Sources(ss), Answers::Batch(b)) => {
                    assert_eq!(b.per_source().unwrap().len(), ss.len());
                }
                (SourceSpec::Targets(ts), Answers::Batch(b)) => {
                    assert_eq!(b.per_source().unwrap().len(), ts.len());
                }
                (SourceSpec::Matrix { .. }, Answers::Matrix(m)) => {
                    assert_eq!(m.reachable_count(), 0);
                }
                (_, Answers::Nodes(ns)) => assert!(ns.is_empty()),
                (_, Answers::Reachable(r)) => assert!(!r),
                other => panic!("unexpected payload shape: {other:?}"),
            }
        }
        // emptiness is decided once per plan, then served from the memo
        assert_eq!(planned.plan_cache_misses(), 1);
    }

    #[test]
    fn rewrite_hook_form_is_memoized() {
        let (mut ab, set, inst, _) = cached_workload(4);
        let graph = CsrGraph::from(&inst);
        let planned = PlannedEngine::new(ProductEngine, set, ab.clone());
        let q = parse_regex(&mut ab, "(a.b)*").unwrap();
        let r1 = planned.rewrite(&q, &graph);
        let r2 = planned.rewrite(&q, &graph);
        assert_eq!(r1, r2);
        assert_ne!(r1, q, "the cache substitution must fire");
        assert_eq!(planned.plans_cached(), 1);
    }
}
