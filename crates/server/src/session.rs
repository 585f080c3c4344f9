//! Sessions, query handles, and admission control — the client-facing
//! surface of the serving layer.
//!
//! A [`Session`] pins one [`Catalog`] epoch; every query it submits
//! evaluates against that pinned snapshot through the shared
//! [`PlannedEngine`] (one plan memo, one `ScratchPool`, reused by every
//! thread that runs a query). [`Session::refresh`] re-pins to the latest
//! published epoch; the old snapshot lives on until its last handle
//! finishes.
//!
//! A submitted query is a job on the server's executor (a fixed set of
//! parked threads over one FIFO; `executor.rs`). It runs on whichever
//! thread takes it first: an executor thread — so it starts whether or not
//! anyone touches its handle (at most half a millisecond late, while the
//! executor is off duty) — or the thread that calls
//! [`QueryHandle::join`] while the job is still queued, which removes it
//! from the queue and runs it in place. Either way it is the same closure,
//! so `submit(..).join()` on an idle server costs what [`Session::run`]
//! costs, and which thread ran a query is visible in no answer, no
//! termination and no work counter.
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
//! a thread, and every submission gets a cancellation flag
//! ([`QueryHandle::cancel`]). The flag never chooses the algorithm: the
//! same request through [`Session::run`] and through [`Session::submit`]
//! runs the same searches and reports the same work counters.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use rpq_automata::{parse_regex, Alphabet, ParseError};
use rpq_constraints::ConstraintSet;
use rpq_core::{EvalRequest, EvalResponse, ProductEngine, Query, SourceSpec};
use rpq_graph::{DeltaGraph, Epoch};
use rpq_optimizer::{parse_crpq, Crpq, PlannedEngine};

use crate::catalog::Catalog;
use crate::executor::{Executor, Task};
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
    /// How many threads the server may keep busy: the executor starts
    /// `max(1, parallelism - 1)` threads for submitted queries, the thread
    /// that joins a handle being the other worker. A query itself runs on
    /// one thread. Defaults to the machine's available parallelism.
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
    alphabet: Mutex<Interned>,
    metrics: Arc<Metrics>,
    active: Arc<AtomicUsize>,
    executor: Executor,
    config: ServerConfig,
}

/// The server's growing alphabet and the snapshot parsed queries share.
struct Interned {
    live: Alphabet,
    /// `live` as of the last [`Server::parse`] that found it grown.
    snapshot: Arc<Alphabet>,
}

/// The one evaluation step every entry point shares: time `call` against
/// the shared engine, record it under `class`, and refresh the scratch-pool
/// telemetry.
fn evaluate(
    engine: &PlannedEngine<ProductEngine>,
    metrics: &Metrics,
    class: QueryClass,
    call: impl FnOnce() -> EvalResponse,
) -> EvalResponse {
    let start = Instant::now();
    let resp = call();
    metrics.record(class, start.elapsed(), &resp.stats, resp.termination);
    let pool = engine.scratch_pool();
    metrics.observe_scratch(pool.allocs(), pool.reuses());
    resp
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
        let engine = PlannedEngine::new(ProductEngine, set, alphabet.clone());
        Server {
            catalog,
            engine: Arc::new(engine),
            alphabet: Mutex::new(Interned {
                snapshot: Arc::new(alphabet.clone()),
                live: alphabet,
            }),
            metrics: Arc::new(Metrics::new()),
            active: Arc::new(AtomicUsize::new(0)),
            executor: Executor::new(config.parallelism),
            config,
        }
    }

    /// Replace the serving knobs. Rebuilds the executor so its threads
    /// match `config.parallelism` (call this before serving traffic).
    pub fn with_config(mut self, config: ServerConfig) -> Server {
        if config.parallelism != self.config.parallelism {
            self.executor = Executor::new(config.parallelism);
        }
        self.config = config;
        self
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
    /// thread that runs a query).
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

    #[cfg(test)]
    pub(crate) fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Parse query text against the server's shared alphabet (labels are
    /// interned on first sight). This is the text front end: the returned
    /// [`Query`] flows through constraints → analyze → plan → eval when
    /// submitted. Queries share one alphabet snapshot until interning
    /// grows the alphabet.
    pub fn parse(&self, text: &str) -> Result<Query, ParseError> {
        let mut ab = self.alphabet.lock();
        let regex = parse_regex(&mut ab.live, text)?;
        if ab.snapshot.len() != ab.live.len() {
            ab.snapshot = Arc::new(ab.live.clone());
        }
        let snapshot = ab.snapshot.clone();
        drop(ab);
        Ok(Query::on_snapshot(regex, snapshot))
    }

    /// Parse conjunctive query text (`ans(x,z) :- x -[r*]-> y, …`) against
    /// the server's shared alphabet. Errors carry byte spans into `text`
    /// (atom bodies included). [`Session::submit_text`] routes here
    /// automatically when the text contains `:-`.
    pub fn parse_crpq(&self, text: &str) -> Result<Crpq, ParseError> {
        parse_crpq(&mut self.alphabet.lock().live, text)
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
        let slots = &self.server.active;
        // The occupancy reported is the one that refused the slot, not a
        // later reading another client's join may already have lowered.
        if let Err(active) = slots.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < cap).then_some(n + 1)
        }) {
            self.server.metrics.record_rejected();
            return Err(SubmitError::Rejected { active, cap });
        }
        Ok(AdmissionSlot(slots.clone()))
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

    /// Admit `req` and put its evaluation on the executor: the one way a
    /// submitted query comes to run. `call` gets the shared engine, the
    /// pinned snapshot and the request with its controls stamped.
    pub(crate) fn enqueue(
        &self,
        class: QueryClass,
        req: EvalRequest,
        call: impl FnOnce(&PlannedEngine<ProductEngine>, &DeltaGraph, &EvalRequest) -> EvalResponse
            + Send
            + 'static,
    ) -> Result<QueryHandle, SubmitError> {
        let slot = self.admit()?;
        let (req, cancel) = self.controls(req);
        let snapshot = self.snapshot.clone();
        let epoch = snapshot.epoch();
        let engine = self.server.engine.clone();
        let metrics = self.server.metrics.clone();
        let task = self.server.executor.submit(Box::new(move || {
            evaluate(&engine, &metrics, class, || call(&engine, &snapshot, &req))
        }));
        Ok(QueryHandle {
            task,
            cancel,
            class,
            epoch,
            _slot: slot,
        })
    }

    fn enqueue_query(&self, query: Query, req: EvalRequest) -> Result<QueryHandle, SubmitError> {
        self.enqueue(QueryClass::of(&req.spec), req, move |engine, graph, req| {
            engine.run_view(&query, graph, req)
        })
    }

    fn enqueue_crpq(&self, crpq: Crpq, req: EvalRequest) -> Result<QueryHandle, SubmitError> {
        self.enqueue(QueryClass::Conjunctive, req, move |engine, graph, req| {
            engine.run_crpq(&crpq, graph, req)
        })
    }

    /// Submit a parsed query, or reject synchronously (admission). The
    /// returned [`QueryHandle`]'s query is queued on the server's
    /// executor: a parked executor thread has been woken for it — or, if
    /// the executor is taking its half millisecond off after 256 wakes
    /// that found their job already claimed, looks when that is up — so it
    /// starts whether or not the handle is ever touched. A
    /// [`QueryHandle::join`] that arrives before any executor thread has
    /// taken it runs it on the joining thread instead.
    pub fn submit(&self, query: &Query, req: EvalRequest) -> Result<QueryHandle, SubmitError> {
        self.enqueue_query(query.clone(), req)
    }

    /// Submit a conjunctive query: same admission, budget, cancellation,
    /// hand-off and metrics seams as [`Session::submit`], but the job runs
    /// the cost-based join planner and semijoin executor
    /// ([`PlannedEngine::run_crpq`]). The request's [`SourceSpec`]
    /// restricts the *head* variables (source forms the first, target
    /// forms the second, pair/matrix both); accounted under
    /// [`QueryClass::Conjunctive`] with per-atom telemetry in the metrics.
    pub fn submit_crpq(&self, crpq: &Crpq, req: EvalRequest) -> Result<QueryHandle, SubmitError> {
        self.enqueue_crpq(crpq.clone(), req)
    }

    /// Submit query text: parse against the shared alphabet, then submit
    /// with the given request shape. Text containing `:-` is parsed as a
    /// conjunctive query (`ans(x,z) :- x -[r*]-> y, …`) and routed through
    /// [`Session::submit_crpq`]; anything else is a plain path query.
    pub fn submit_text(&self, text: &str, spec: SourceSpec) -> Result<QueryHandle, SubmitError> {
        if text.contains(":-") {
            let crpq = self.server.parse_crpq(text)?;
            return self.enqueue_crpq(crpq, EvalRequest::new(spec));
        }
        let query = self.server.parse(text)?;
        self.enqueue_query(query, EvalRequest::new(spec))
    }

    /// Evaluate a conjunctive query synchronously on the caller's thread
    /// (no admission slot, no hand-off; the default budget applies, and the
    /// run is recorded in the metrics under [`QueryClass::Conjunctive`]).
    pub fn run_crpq(&self, crpq: &Crpq, req: &EvalRequest) -> EvalResponse {
        let req = self.budgeted(req);
        let (engine, metrics) = (&self.server.engine, &self.server.metrics);
        evaluate(engine, metrics, QueryClass::Conjunctive, || {
            engine.run_crpq(crpq, &*self.snapshot, &req)
        })
    }

    /// Evaluate synchronously on the caller's thread against the pinned
    /// snapshot (no admission slot, no hand-off; the default budget
    /// applies, and the run is recorded in the metrics).
    pub fn run(&self, query: &Query, req: &EvalRequest) -> EvalResponse {
        let req = self.budgeted(req);
        let (engine, metrics) = (&self.server.engine, &self.server.metrics);
        evaluate(engine, metrics, QueryClass::of(&req.spec), || {
            engine.run_view(query, &*self.snapshot, &req)
        })
    }
}

/// A queued, running or finished submitted query. Holds its admission
/// slot until joined or dropped; dropping without joining detaches the
/// query (an executor thread still runs it and records metrics).
pub struct QueryHandle {
    task: Task,
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
    /// Raise the cooperative cancellation flag. The search stops at its
    /// next BFS level boundary (at once, if it has not started) and
    /// returns the sound subset collected so far with
    /// [`rpq_core::Termination::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Has the query finished (successfully or not)?
    pub fn is_finished(&self) -> bool {
        self.task.is_finished()
    }

    /// The metrics class this query is accounted under.
    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// The epoch the query is evaluating against.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Take the query's response: run it on this thread if no executor
    /// thread has started it yet, else block until the one that did
    /// finishes.
    ///
    /// # Panics
    /// With "query worker panicked" if the evaluation panicked, whichever
    /// thread ran it. The admission slot is released all the same.
    pub fn join(self) -> EvalResponse {
        self.task.join()
    }
}
