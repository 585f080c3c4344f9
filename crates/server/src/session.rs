//! Sessions, query handles, and admission control — the client-facing
//! surface of the serving layer.
//!
//! A [`Session`] pins one [`Catalog`] epoch; every query it submits
//! evaluates against that pinned snapshot on a worker thread, through the
//! shared [`PlannedEngine`] (one plan memo, one `ScratchPool`, reused
//! across all workers). [`Session::refresh`] re-pins to the latest
//! published epoch; the old snapshot lives on until its last handle
//! finishes.
//!
//! A query enters as **text** ([`Session::submit_text`]) or as a prebuilt
//! [`Query`] + [`EvalRequest`] ([`Session::submit`]); either way it flows
//! parse → constraints → analyze → plan → eval, and the *only* evaluation
//! entry point is the unified request form
//! ([`PlannedEngine::run_view`]).
//!
//! Admission control counts **outstanding handles** (submitted, not yet
//! joined or dropped) against [`ServerConfig::max_concurrent`]; a
//! submission over the cap is rejected synchronously with
//! [`SubmitError::Rejected`], carrying the observed occupancy. Every
//! request — submitted or run synchronously — gets the server's default
//! fetch budget unless it carries its own, so a runaway query terminates
//! with [`rpq_core::Termination::BudgetExhausted`] instead of monopolizing
//! a worker, and every submission gets a cancellation flag
//! ([`QueryHandle::cancel`]). The flag never chooses the algorithm: the
//! same request through [`Session::run`] and through [`Session::submit`]
//! runs the same searches and reports the same work counters.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use rpq_automata::{Alphabet, ParseError};
use rpq_constraints::ConstraintSet;
use rpq_core::{EvalRequest, EvalResponse, ProductEngine, Query, SourceSpec};
use rpq_graph::{DeltaGraph, Epoch};
use rpq_optimizer::{parse_crpq, Crpq, PlannedEngine, PlannerConfig};

use crate::catalog::Catalog;
use crate::metrics::{Metrics, QueryClass};

/// Serving knobs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Admission cap: maximum outstanding [`QueryHandle`]s. Submissions
    /// over the cap are rejected with [`SubmitError::Rejected`].
    pub max_concurrent: usize,
    /// Fetch budget stamped onto requests that do not carry their own
    /// (`None` = unlimited by default).
    pub default_budget: Option<usize>,
    /// Intra-query parallelism ceiling: the engine's shared
    /// [`rpq_core::WorkerPool`] holds `parallelism - 1` extra-worker
    /// permits, leased per query by estimated frontier size. `1` keeps
    /// every query on the fully sequential hot path. Defaults to the
    /// machine's available parallelism.
    pub parallelism: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent: 64,
            default_budget: None,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Why a submission did not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the server is at its concurrency cap.
    Rejected {
        /// Outstanding handles observed at rejection time.
        active: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The query text did not parse.
    Parse(ParseError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Rejected { active, cap } => {
                write!(f, "admission rejected: {active} of {cap} slots in use")
            }
            SubmitError::Parse(e) => write!(f, "query did not parse: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<ParseError> for SubmitError {
    fn from(e: ParseError) -> SubmitError {
        SubmitError::Parse(e)
    }
}

/// Releases one admission slot when dropped (handle joined, dropped, or
/// the submission path unwound).
struct AdmissionSlot(Arc<AtomicUsize>);

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The serving front end: a shared planner over a [`Catalog`], sessions,
/// admission control, and [`Metrics`].
pub struct Server {
    catalog: Arc<Catalog>,
    engine: Arc<PlannedEngine<ProductEngine>>,
    set: ConstraintSet,
    alphabet: Mutex<Alphabet>,
    metrics: Arc<Metrics>,
    active: Arc<AtomicUsize>,
    config: ServerConfig,
}

/// How often the background calibration pass considers a pull-discount
/// step, in recorded queries.
const CALIBRATE_EVERY: usize = 256;

/// Piggy-backed calibration: refresh the scratch-pool telemetry, and every
/// [`CALIBRATE_EVERY`] recorded queries move the engine's **live** pull
/// discount a bounded step toward [`Metrics::suggest_pull_discount`].
///
/// Runs on whichever worker thread just recorded a query — there is no
/// sleeper thread. The step is at most a quarter of the gap (and at least
/// one unit), so a burst of unrepresentative queries cannot yank the knob;
/// in-flight queries are untouched because the engine reads the discount
/// once per request.
fn maybe_calibrate(engine: &PlannedEngine<ProductEngine>, metrics: &Metrics) {
    let pool = engine.scratch_pool();
    metrics.observe_scratch(pool.allocs(), pool.reuses());
    if !metrics.recorded().is_multiple_of(CALIBRATE_EVERY) {
        return;
    }
    calibrate_step(engine, metrics);
}

/// The one evaluation step every entry point shares: time `call` against
/// the shared engine, record it under `class`, and give the piggy-backed
/// calibration its turn.
fn evaluate(
    engine: &PlannedEngine<ProductEngine>,
    metrics: &Metrics,
    class: QueryClass,
    call: impl FnOnce() -> EvalResponse,
) -> EvalResponse {
    let start = Instant::now();
    let resp = call();
    metrics.record(class, start.elapsed(), &resp.stats, resp.termination);
    maybe_calibrate(engine, metrics);
    resp
}

/// One bounded pull-discount step (the [`maybe_calibrate`] payload,
/// callable unconditionally from [`Server::calibrate`]).
fn calibrate_step(engine: &PlannedEngine<ProductEngine>, metrics: &Metrics) {
    let current = engine.pull_discount() as isize;
    let target = metrics.suggest_pull_discount() as isize;
    let gap = target - current;
    if gap == 0 {
        return;
    }
    let step = if gap / 4 == 0 { gap.signum() } else { gap / 4 };
    engine.set_pull_discount((current + step).max(1) as usize);
}

impl Server {
    /// A server over `catalog` with no path constraints.
    pub fn new(catalog: Arc<Catalog>, alphabet: Alphabet) -> Server {
        Server::with_constraints(catalog, ConstraintSet::default(), alphabet)
    }

    /// A server whose planner rewrites under `set` (the constraints known
    /// to hold on the served data).
    pub fn with_constraints(
        catalog: Arc<Catalog>,
        set: ConstraintSet,
        alphabet: Alphabet,
    ) -> Server {
        let config = ServerConfig::default();
        let engine = PlannedEngine::new(ProductEngine, set.clone(), alphabet.clone()).with_config(
            PlannerConfig {
                parallelism: config.parallelism.max(1),
                ..PlannerConfig::default()
            },
        );
        Server {
            catalog,
            engine: Arc::new(engine),
            set,
            alphabet: Mutex::new(alphabet),
            metrics: Arc::new(Metrics::new()),
            active: Arc::new(AtomicUsize::new(0)),
            config,
        }
    }

    /// Replace the serving knobs. Rebuilds the shared planner so its
    /// worker pool and scratch pool match `config.parallelism` (call this
    /// before serving traffic — the old engine's plan memo is discarded).
    pub fn with_config(mut self, config: ServerConfig) -> Server {
        if config.parallelism != self.config.parallelism {
            let alphabet = self.alphabet.lock().clone();
            self.engine = Arc::new(
                PlannedEngine::new(ProductEngine, self.set.clone(), alphabet).with_config(
                    PlannerConfig {
                        parallelism: config.parallelism.max(1),
                        ..PlannerConfig::default()
                    },
                ),
            );
        }
        self.config = config;
        self
    }

    /// Force one bounded calibration step (the same move the background
    /// pass makes every `CALIBRATE_EVERY` (256) recorded queries): nudge the
    /// engine's live pull discount a quarter of the way toward
    /// [`Metrics::suggest_pull_discount`]. Never touches in-flight
    /// queries.
    pub fn calibrate(&self) {
        calibrate_step(&self.engine, &self.metrics);
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The snapshot store this server serves from.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The shared planner (plan memo + scratch pool, shared by every
    /// worker thread).
    pub fn engine(&self) -> &Arc<PlannedEngine<ProductEngine>> {
        &self.engine
    }

    /// The shared serving metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Outstanding handles right now.
    pub fn active_queries(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Parse query text against the server's shared alphabet (labels are
    /// interned on first sight). This is the text front end: the returned
    /// [`Query`] flows through constraints → analyze → plan → eval when
    /// submitted.
    pub fn parse(&self, text: &str) -> Result<Query, ParseError> {
        let mut ab = self.alphabet.lock();
        Query::parse(&mut ab, text)
    }

    /// Parse conjunctive query text (`ans(x,z) :- x -[r*]-> y, …`) against
    /// the server's shared alphabet. Errors carry byte spans into `text`
    /// (atom bodies included). [`Session::submit_text`] routes here
    /// automatically when the text contains `:-`.
    pub fn parse_crpq(&self, text: &str) -> Result<Crpq, ParseError> {
        let mut ab = self.alphabet.lock();
        parse_crpq(&mut ab, text)
    }

    /// Open a session pinned to the latest published epoch.
    pub fn session(&self) -> Session<'_> {
        Session {
            server: self,
            snapshot: self.catalog.pin(),
        }
    }

    /// Open a session pinned to a specific retained epoch (time travel
    /// within the catalog's ring).
    pub fn session_at(&self, epoch: Epoch) -> Option<Session<'_>> {
        Some(Session {
            server: self,
            snapshot: self.catalog.pin_at(epoch)?,
        })
    }
}

/// One client's view of the data: a pinned snapshot plus the submission
/// API. Cheap to open; open as many as you like.
pub struct Session<'s> {
    server: &'s Server,
    snapshot: Arc<DeltaGraph>,
}

impl Session<'_> {
    /// The epoch this session is pinned to.
    pub fn epoch(&self) -> Epoch {
        self.snapshot.epoch()
    }

    /// The pinned snapshot itself.
    pub fn snapshot(&self) -> &Arc<DeltaGraph> {
        &self.snapshot
    }

    /// Re-pin to the latest published epoch. In-flight handles submitted
    /// before the refresh keep their old snapshot.
    pub fn refresh(&mut self) {
        self.snapshot = self.server.catalog.pin();
    }

    /// Take an admission slot, or reject synchronously at the cap.
    fn admit(&self) -> Result<AdmissionSlot, SubmitError> {
        let cap = self.server.config.max_concurrent;
        let active = &self.server.active;
        if active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_err()
        {
            self.server.metrics.record_rejected();
            return Err(SubmitError::Rejected {
                active: active.load(Ordering::SeqCst),
                cap,
            });
        }
        Ok(AdmissionSlot(active.clone()))
    }

    /// The budget `req` runs under: its own, else the server's default.
    fn budget_for(&self, req: &EvalRequest) -> Option<usize> {
        req.budget.or(self.server.config.default_budget)
    }

    /// `req` under [`Session::budget_for`] (borrowed when it already
    /// carries that budget) — the synchronous entry points' stamp.
    fn budgeted<'r>(&self, req: &'r EvalRequest) -> Cow<'r, EvalRequest> {
        let budget = self.budget_for(req);
        if budget == req.budget {
            return Cow::Borrowed(req);
        }
        Cow::Owned(EvalRequest {
            budget,
            ..req.clone()
        })
    }

    /// Stamp the server's default budget onto a request that carries none,
    /// and ensure it has a cancellation flag; returns the flag for the
    /// handle.
    fn controls(&self, mut req: EvalRequest) -> (EvalRequest, Arc<AtomicBool>) {
        req.budget = self.budget_for(&req);
        let cancel = match &req.cancel {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(AtomicBool::new(false));
                req = req.with_cancel(c.clone());
                c
            }
        };
        (req, cancel)
    }

    /// Submit a parsed query. Returns a [`QueryHandle`] whose worker is
    /// already running, or rejects synchronously (admission).
    pub fn submit(&self, query: &Query, req: EvalRequest) -> Result<QueryHandle, SubmitError> {
        let slot = self.admit()?;
        let (req, cancel) = self.controls(req);
        let class = QueryClass::of(&req.spec);
        let snapshot = self.snapshot.clone();
        let epoch = snapshot.epoch();
        let engine = self.server.engine.clone();
        let metrics = self.server.metrics.clone();
        let query = query.clone();
        let join = std::thread::spawn(move || {
            evaluate(&engine, &metrics, class, || {
                engine.run_view(&query, &*snapshot, &req)
            })
        });
        Ok(QueryHandle {
            join,
            cancel,
            class,
            epoch,
            _slot: slot,
        })
    }

    /// Submit a conjunctive query: same admission, budget, cancellation,
    /// and metrics seams as [`Session::submit`], but the worker runs the
    /// cost-based join planner and semijoin executor
    /// ([`PlannedEngine::run_crpq`]). The request's [`SourceSpec`]
    /// restricts the *head* variables (source forms the first, target
    /// forms the second, pair/matrix both); accounted under
    /// [`QueryClass::Conjunctive`] with per-atom telemetry in the metrics.
    pub fn submit_crpq(&self, crpq: &Crpq, req: EvalRequest) -> Result<QueryHandle, SubmitError> {
        let slot = self.admit()?;
        let (req, cancel) = self.controls(req);
        let snapshot = self.snapshot.clone();
        let epoch = snapshot.epoch();
        let engine = self.server.engine.clone();
        let metrics = self.server.metrics.clone();
        let crpq = crpq.clone();
        let class = QueryClass::Conjunctive;
        let join = std::thread::spawn(move || {
            evaluate(&engine, &metrics, class, || {
                engine.run_crpq(&crpq, &*snapshot, &req)
            })
        });
        Ok(QueryHandle {
            join,
            cancel,
            class,
            epoch,
            _slot: slot,
        })
    }

    /// Submit query text: parse against the shared alphabet, then submit
    /// with the given request shape. Text containing `:-` is parsed as a
    /// conjunctive query (`ans(x,z) :- x -[r*]-> y, …`) and routed through
    /// [`Session::submit_crpq`]; anything else is a plain path query.
    pub fn submit_text(&self, text: &str, spec: SourceSpec) -> Result<QueryHandle, SubmitError> {
        if text.contains(":-") {
            let crpq = self.server.parse_crpq(text)?;
            return self.submit_crpq(&crpq, EvalRequest::new(spec));
        }
        let query = self.server.parse(text)?;
        self.submit(&query, EvalRequest::new(spec))
    }

    /// Evaluate a conjunctive query synchronously on the caller's thread
    /// (no admission slot or worker; the default budget applies, and the
    /// run is recorded in the metrics under [`QueryClass::Conjunctive`]).
    pub fn run_crpq(&self, crpq: &Crpq, req: &EvalRequest) -> EvalResponse {
        let req = self.budgeted(req);
        let (engine, metrics) = (&self.server.engine, &self.server.metrics);
        evaluate(engine, metrics, QueryClass::Conjunctive, || {
            engine.run_crpq(crpq, &*self.snapshot, &req)
        })
    }

    /// Evaluate synchronously on the caller's thread against the pinned
    /// snapshot (no admission slot, no worker thread; the default budget
    /// applies, and the run is recorded in the metrics). The low-latency
    /// path for point queries.
    pub fn run(&self, query: &Query, req: &EvalRequest) -> EvalResponse {
        let req = self.budgeted(req);
        let (engine, metrics) = (&self.server.engine, &self.server.metrics);
        evaluate(engine, metrics, QueryClass::of(&req.spec), || {
            engine.run_view(query, &*self.snapshot, &req)
        })
    }
}

/// A running (or finished) submitted query. Holds its admission slot until
/// joined or dropped; dropping without joining detaches the worker (it
/// still finishes and records metrics).
pub struct QueryHandle {
    join: JoinHandle<EvalResponse>,
    cancel: Arc<AtomicBool>,
    class: QueryClass,
    epoch: Epoch,
    _slot: AdmissionSlot,
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryHandle")
            .field("class", &self.class)
            .field("epoch", &self.epoch)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl QueryHandle {
    /// Raise the cooperative cancellation flag. The worker stops at its
    /// next BFS level boundary and returns the sound subset collected so
    /// far with [`rpq_core::Termination::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Has the worker finished (successfully or not)?
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// The metrics class this query is accounted under.
    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// The epoch the query is evaluating against.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Block until the worker finishes and take its response.
    pub fn join(self) -> EvalResponse {
        self.join.join().expect("query worker panicked")
    }
}
