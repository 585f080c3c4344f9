//! The traced run: each op replayed through every layer's public
//! functions, a span around each call, per-layer metrics from the spans.
//!
//! A traced pass makes the real call for an op (`submit_text(..).join()`)
//! and then replays the same op piece by piece on the calling thread:
//! `Server::parse`, the planner on an engine with an empty memo (only if
//! the real call had to plan), `Session::run`, `PlannedEngine::run_view`,
//! `Metrics::record`. What the real call took beyond parse + plan + the
//! synchronous run is the **handoff**: thread spawn and join, admission,
//! `Query::clone`, and everything a fresh thread pays that the caller's
//! thread does not.
//!
//! On the read-only workloads the replays run as separate **sweeps** over
//! the schedule (all real calls, then all `run_sync` replays, then all
//! `core.run` replays, …). Replaying an op right after its real call would
//! find the op's rows and marks in cache and report half the real kernel
//! time; a sweep later, 200 other ops have passed through the cache, as
//! they had before the real call. Workloads whose state moves during a
//! pass (`plan-cold`'s memo, `churn-mixed`'s epochs) replay op by op; their
//! ops touch a handful of edges, so cache warmth is not what they measure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpq_automata::Nfa;
use rpq_constraints::general::Budget;
use rpq_constraints::{rewrite_closure_nfa, RewriteSystem};
use rpq_core::{
    EvalRequest, EvalResponse, EvalStats, FrontierMode, ProductEngine, Query, SourceSpec,
    Termination, PAR_LEVEL_THRESHOLD,
};
use rpq_graph::DeltaGraph;
use rpq_optimizer::join::{execute_join_parallel, plan_join, HeadBindings};
use rpq_optimizer::{
    analyze, certify_rewrite, optimize_with_stats, Crpq, PlannedEngine, PlannerConfig,
};
use rpq_server::{Metrics, QueryClass, Session, SubmitError};

use crate::harness::{us, Env, Outcome, PassRunner, Prepared, Serving, Window, SERVER_CONFIG};
use crate::names::{class_latency_name, PER_LAYER, SPAN_SELF_METRIC, SPAN_TOTAL_METRIC};
use crate::sched::{Class, Op, QueryOp, Workload};
use crate::stats::{loglog_slope, mad, median, percentile};
use crate::trace::{self_time_by_name, to_json, Span, SpanId, Tracer, NO_PARENT};

/// Untraced passes a traced run measures first, as the baseline its
/// overhead is taken against.
const TRACE_BASELINE_PASSES: usize = 12;
/// Most traced passes a traced run makes (it stops earlier if the window
/// closes).
const TRACE_MAX_PASSES: usize = 24;
/// Leading traced passes counts are taken over, and whose spans are
/// written to the trace file.
const TRACE_COUNT_PASSES: usize = 2;

/// Counters a traced pass reads off the real responses.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub commits: u64,
    pub edges: u64,
    pub answers: u64,
    pub push_levels: u64,
    pub pull_levels: u64,
    pub parallel_levels: u64,
    pub threads_used: u64,
    pub steals: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub certified: u64,
    pub rejected_rewrites: u64,
    pub nfa_states: u64,
    pub overlay_rows: u64,
    pub compactions: u64,
    pub scratch_allocs: u64,
    pub scratch_reuses: u64,
    pub not_complete: u64,
    pub rejected: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.ops += o.ops;
        self.commits += o.commits;
        self.edges += o.edges;
        self.answers += o.answers;
        self.push_levels += o.push_levels;
        self.pull_levels += o.pull_levels;
        self.parallel_levels += o.parallel_levels;
        self.threads_used += o.threads_used;
        self.steals += o.steals;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.certified += o.certified;
        self.rejected_rewrites += o.rejected_rewrites;
        self.nfa_states += o.nfa_states;
        self.overlay_rows += o.overlay_rows;
        self.compactions += o.compactions;
        self.scratch_allocs += o.scratch_allocs;
        self.scratch_reuses += o.scratch_reuses;
        self.not_complete += o.not_complete;
        self.rejected += o.rejected;
    }
}

/// What one traced pass produced.
pub struct TracedPass {
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Real-call latency per op, with its class.
    pub lat: Vec<(Class, u64)>,
    /// `(ladder step, edges scanned, core.run ns)` of each wide closure.
    pub ladder: Vec<(usize, u64, u64)>,
}

fn head_flags(spec: &SourceSpec) -> (bool, bool) {
    match spec {
        SourceSpec::Source(_) | SourceSpec::Sources(_) => (true, false),
        SourceSpec::Target(_) | SourceSpec::Targets(_) => (false, true),
        SourceSpec::Pair { .. } | SourceSpec::Matrix { .. } => (true, true),
        SourceSpec::Conjunctive { sources, targets } => (sources.is_some(), targets.is_some()),
    }
}

/// The request a submission turns into: `Session::submit` always attaches
/// a cancellation flag, which routes evaluation through the controlled
/// kernels — the synchronous replays must take the same route.
fn submitted_request(spec: &SourceSpec) -> EvalRequest {
    EvalRequest::new(spec.clone()).with_cancel(Arc::new(AtomicBool::new(false)))
}

enum Parsed {
    Path(Query),
    Conj(Crpq),
}

/// What the real call of a query op left behind for its replays.
struct Real {
    root: SpanId,
    stats: EvalStats,
    termination: Termination,
    snapshot: Arc<DeltaGraph>,
    req: EvalRequest,
}

/// One traced pass in progress.
struct Replay<'a> {
    env: &'a Env,
    serving: &'a Serving,
    tr: Tracer,
    /// A planner with an empty memo, so that planning a text the real
    /// call had to plan is a miss here too.
    cold: PlannedEngine<ProductEngine>,
    /// A private `Metrics`, so replayed records do not advance the
    /// server's calibration cadence.
    metrics: Metrics,
    counts: Counts,
    lat: Vec<(Class, u64)>,
    ladder: Vec<(usize, u64, u64)>,
}

impl<'a> Replay<'a> {
    fn text(&self, q: &QueryOp) -> &'a str {
        &self.env.schedule.texts[q.text]
    }

    /// The real call: the root span of the op. Nothing else happens here:
    /// on `nav-point` even a microsecond of bookkeeping between two calls
    /// lets the previous worker thread finish exiting and makes the next
    /// call ~5 µs faster than it is back to back.
    fn call(
        &mut self,
        i: u32,
        q: &QueryOp,
        session: &Session<'_>,
    ) -> (SpanId, Result<EvalResponse, SubmitError>) {
        let text = self.text(q);
        self.tr.span("server.submit_join", NO_PARENT, i, || {
            session.submit_text(text, q.spec.clone()).map(|h| h.join())
        })
    }

    /// Book a real call: its latency, its counters, and what its replays
    /// need.
    fn absorb(
        &mut self,
        q: &QueryOp,
        (root, submitted): (SpanId, Result<EvalResponse, SubmitError>),
        session: &Session<'_>,
    ) -> Option<Real> {
        self.lat
            .push((q.class, self.tr.spans[root as usize].dur_ns()));
        self.counts.ops += 1;
        let Ok(resp) = submitted else {
            self.counts.rejected += 1;
            return None;
        };
        let st = &resp.stats;
        let c = &mut self.counts;
        c.not_complete += u64::from(resp.termination != Termination::Complete);
        c.edges += st.edges_scanned as u64;
        c.answers += st.answers as u64;
        c.push_levels += st.push_levels as u64;
        c.pull_levels += st.pull_levels as u64;
        c.parallel_levels += st.parallel_levels as u64;
        c.threads_used += st.threads_used as u64;
        c.steals += st.steal_count as u64;
        c.plan_hits += st.plan_cache_hits as u64;
        c.plan_misses += st.plan_cache_misses as u64;
        c.certified += st.rewrites_certified as u64;
        c.rejected_rewrites += st.rewrites_rejected as u64;
        Some(Real {
            root,
            stats: resp.stats,
            termination: resp.termination,
            snapshot: session.snapshot().clone(),
            req: submitted_request(&q.spec),
        })
    }

    /// Parse, and — if the real call missed the plan memo — plan, through
    /// the planner's public pieces.
    fn front(&mut self, i: u32, q: &QueryOp, real: &Real) -> Parsed {
        let (env, server) = (self.env, &self.serving.server);
        let text = self.text(q);
        let snap = &*real.snapshot;
        let missed = real.stats.plan_cache_misses > 0;
        if q.class == Class::Crpq {
            let (_, crpq) = self
                .tr
                .span("automata.parse", real.root, i, || server.parse_crpq(text));
            let crpq = crpq.expect("the real call parsed this text");
            self.counts.nfa_states += crpq
                .atoms
                .iter()
                .map(|a| a.query.nfa().num_states() as u64)
                .sum::<u64>();
            if missed {
                let (sb, db) = head_flags(&q.spec);
                let config = server.engine().config();
                self.tr.span("optimizer.join_plan", real.root, i, || {
                    black_box(plan_join(&crpq, snap.stats(), config, sb, db))
                });
            }
            return Parsed::Conj(crpq);
        }
        let (_, query) = self
            .tr
            .span("automata.parse", real.root, i, || server.parse(text));
        let query = query.expect("the real call parsed this text");
        if missed {
            let (regex, stats) = (query.regex(), snap.stats());
            let cold = &self.cold;
            let (pl, _) = self.tr.span("optimizer.plan", real.root, i, || {
                black_box(cold.plan(&query, snap))
            });
            let budget = Budget::default();
            let winner =
                optimize_with_stats(&env.set, regex, &env.world.alphabet, &budget, stats).query;
            let (an, analysis) = self.tr.span("optimizer.analyze", pl, i, || {
                analyze(&env.set, regex, winner.clone(), stats)
            });
            if winner != *regex {
                let (ce, _) = self.tr.span("optimizer.certify", an, i, || {
                    black_box(certify_rewrite(&env.set, regex, &winner))
                });
                self.tr.span("constraints.closure", ce, i, || {
                    black_box(RewriteSystem::from_constraints(&env.set));
                    black_box(rewrite_closure_nfa(&env.set, &Nfa::thompson(&winner)));
                    black_box(rewrite_closure_nfa(&env.set, &Nfa::thompson(regex)));
                });
            }
            self.tr.span("automata.nfa_build", an, i, || {
                black_box(Nfa::thompson(&analysis.regex).trim())
            });
        }
        // The automaton the op ran on (a memo hit: the real call planned it).
        let plan = server.engine().plan(&query, snap);
        self.counts.nfa_states += plan.query.nfa().num_states() as u64;
        Parsed::Path(query)
    }

    /// `Session::run` / `Session::run_crpq`: the op without a thread.
    fn run_sync(&mut self, i: u32, parsed: &Parsed, real: &Real, session: &Session<'_>) -> SpanId {
        let req = &real.req;
        self.tr
            .span("server.run_sync", real.root, i, || match parsed {
                Parsed::Path(query) => black_box(session.run(query, req)),
                Parsed::Conj(crpq) => black_box(session.run_crpq(crpq, req)),
            })
            .0
    }

    /// The engine on the pinned snapshot, on the caller's thread.
    fn core_run(
        &mut self,
        i: u32,
        q: &QueryOp,
        parsed: &Parsed,
        real: &Real,
        rs: SpanId,
    ) -> SpanId {
        let engine = self.serving.server.engine();
        let (snap, req) = (&*real.snapshot, &real.req);
        let (cr, _) = self.tr.span("core.run", rs, i, || match parsed {
            Parsed::Path(query) => black_box(engine.run_view(query, snap, req)),
            Parsed::Conj(crpq) => black_box(engine.run_crpq(crpq, snap, req)),
        });
        if let Some(step) = q.wide {
            self.ladder.push((
                step,
                real.stats.edges_scanned as u64,
                self.tr.spans[cr as usize].dur_ns(),
            ));
        }
        cr
    }

    /// The join executor alone (conjunctive ops), called the way
    /// `PlannedEngine::run_crpq` calls it, and `Metrics::record`.
    fn tail(&mut self, i: u32, q: &QueryOp, parsed: &Parsed, real: &Real, rs: SpanId, cr: SpanId) {
        let engine = self.serving.server.engine();
        let (snap, req) = (&*real.snapshot, &real.req);
        if let (Parsed::Conj(crpq), SourceSpec::Sources(ss)) = (parsed, &q.spec) {
            let (sb, db) = head_flags(&q.spec);
            let (plan, _) = engine.crpq_plan(crpq, snap, sb, db);
            let heads = HeadBindings {
                sources: Some(ss),
                targets: None,
            };
            let dop = if snap.num_edges() >= PAR_LEVEL_THRESHOLD {
                SERVER_CONFIG.parallelism
            } else {
                1
            };
            let mode = FrontierMode::hybrid_with_discount(engine.pull_discount());
            let pool = engine.scratch_pool();
            self.tr.span("optimizer.join_exec", cr, i, || {
                let lease = engine.worker_pool().lease(dop);
                let mut scratch = pool.checkout();
                black_box(execute_join_parallel(
                    crpq,
                    &plan.order,
                    snap,
                    heads,
                    mode,
                    &req.control(),
                    lease.dop(),
                    pool,
                    &mut scratch,
                ))
            });
        }
        let class = match parsed {
            Parsed::Path(_) => QueryClass::of(&q.spec),
            Parsed::Conj(_) => QueryClass::Conjunctive,
        };
        let latency = Duration::from_nanos(self.tr.spans[real.root as usize].dur_ns());
        let metrics = &self.metrics;
        self.tr.span("server.metrics_record", rs, i, || {
            metrics.record(class, latency, &real.stats, real.termination)
        });
    }
}

/// Replay the schedule once with a span around every call.
pub fn run_traced_pass(env: &Env, serving: &Serving, epoch: Instant) -> TracedPass {
    let engine = serving.server.engine();
    let pool = engine.scratch_pool();
    let (allocs0, reuses0) = (pool.allocs(), pool.reuses());
    let compactions0 = serving.catalog.compactions();
    let mut rp = Replay {
        env,
        serving,
        tr: Tracer::new(epoch),
        cold: PlannedEngine::new(ProductEngine, env.set.clone(), env.world.alphabet.clone())
            .with_config(PlannerConfig {
                parallelism: SERVER_CONFIG.parallelism,
                ..PlannerConfig::default()
            }),
        metrics: Metrics::new(),
        counts: Counts::default(),
        lat: Vec::with_capacity(env.schedule.ops.len()),
        ladder: Vec::new(),
    };
    let mut session = serving.server.session();
    let ops = &env.schedule.ops;

    if env.schedule.workload.fresh_server_per_pass() {
        // State moves during the pass: replay each op where it stands.
        // A private copy of the writer's state replays delta application
        // and compaction without disturbing the catalog.
        let mut mirror = (env.schedule.workload == Workload::ChurnMixed)
            .then(|| DeltaGraph::new(env.base.clone()));
        for (i, op) in ops.iter().enumerate() {
            let i = i as u32;
            match op {
                Op::Commit(delta) => {
                    let (root, commit) = rp.tr.span("server.commit", NO_PARENT, i, || {
                        let c = serving.catalog.commit(delta);
                        session.refresh();
                        c
                    });
                    rp.lat
                        .push((Class::Commit, rp.tr.spans[root as usize].dur_ns()));
                    rp.counts.ops += 1;
                    rp.counts.commits += 1;
                    let mirror = mirror.as_mut().expect("commits occur on churn-mixed only");
                    rp.tr
                        .span("graph.delta_apply", root, i, || mirror.apply_delta(delta));
                    if commit.compacted {
                        rp.tr.span("graph.compact", root, i, || mirror.compact());
                    }
                    rp.tr
                        .span("server.pin", root, i, || black_box(serving.catalog.pin()));
                    rp.counts.overlay_rows += session.snapshot().overlay_rows() as u64;
                }
                Op::Query(q) => {
                    let called = rp.call(i, q, &session);
                    let Some(real) = rp.absorb(q, called, &session) else {
                        continue;
                    };
                    let parsed = rp.front(i, q, &real);
                    let rs = rp.run_sync(i, &parsed, &real, &session);
                    let cr = rp.core_run(i, q, &parsed, &real, rs);
                    rp.tail(i, q, &parsed, &real, rs, cr);
                }
            }
        }
    } else {
        // Read-only: one sweep per replayed call (see the module docs).
        let queries: Vec<(u32, &QueryOp)> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Query(q) => Some((i as u32, q)),
                Op::Commit(_) => None,
            })
            .collect();
        let called: Vec<_> = queries
            .iter()
            .map(|&(i, q)| rp.call(i, q, &session))
            .collect();
        let done: Vec<(u32, &QueryOp, Real)> = queries
            .into_iter()
            .zip(called)
            .filter_map(|((i, q), c)| rp.absorb(q, c, &session).map(|r| (i, q, r)))
            .collect();
        let mut parsed = Vec::with_capacity(done.len());
        let mut rs = Vec::with_capacity(done.len());
        for (i, q, real) in &done {
            let p = rp.front(*i, q, real);
            rs.push(rp.run_sync(*i, &p, real, &session));
            parsed.push(p);
        }
        let cr: Vec<SpanId> = done
            .iter()
            .zip(&parsed)
            .zip(&rs)
            .map(|(((i, q, real), p), &rs)| rp.core_run(*i, q, p, real, rs))
            .collect();
        for ((((i, q, real), p), &rs), &cr) in done.iter().zip(&parsed).zip(&rs).zip(&cr) {
            rp.tail(*i, q, p, real, rs, cr);
        }
    }
    rp.counts.compactions = (serving.catalog.compactions() - compactions0) as u64;
    rp.counts.scratch_allocs = (pool.allocs() - allocs0) as u64;
    rp.counts.scratch_reuses = (pool.reuses() - reuses0) as u64;
    TracedPass {
        spans: rp.tr.spans,
        counts: rp.counts,
        lat: rp.lat,
        ladder: rp.ladder,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.dur_ns();
    }
    out
}

/// The traced run: every per-layer metric, and the span file.
pub fn run_traced(
    env: &Env,
    prepared: &Prepared,
    window: Window,
    trace_path: &std::path::Path,
) -> Outcome {
    let mut runner = PassRunner::new(env, &prepared.shared);
    for _ in 0..window.warmup_passes() {
        runner.pass();
    }
    let started = Instant::now();
    // Per untraced pass: its wall time, and the sum of its op latencies —
    // the like-for-like baseline of the traced passes' summed real calls
    // (a pass's wall time also holds the client's work between calls).
    let baseline: Vec<(f64, f64)> = (0..if window.smoke() {
        1
    } else {
        TRACE_BASELINE_PASSES
    })
        .map(|_| {
            let pass = runner.pass();
            (us(pass.wall_ns), us(pass.lat_ns.iter().sum()))
        })
        .collect();
    let baseline_wall: Vec<f64> = baseline.iter().map(|b| b.0).collect();
    let baseline_calls: Vec<f64> = baseline.iter().map(|b| b.1).collect();
    let max_passes = match window {
        Window::Passes(n) => n,
        Window::Seconds(_) => TRACE_MAX_PASSES,
    };
    let mut traced: Vec<TracedPass> = Vec::new();
    while traced.len() < max_passes && (traced.is_empty() || window.open(started, traced.len())) {
        traced.push(runner.with_serving(|s| run_traced_pass(env, s, started)));
    }

    // Per pass: self and total time per span name, per op of the pass.
    let mut per_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_sum_frac = Vec::new();
    let mut real_wall = Vec::new();
    let mut ns_per_edge = Vec::new();
    let mut class_lat: Vec<Vec<f64>> = vec![Vec::new(); Class::ALL.len()];
    for pass in &traced {
        let ops = pass.counts.ops as f64;
        let self_by = self_time_by_name(&pass.spans);
        let total_by = total_by_name(&pass.spans);
        for (span, metric) in SPAN_SELF_METRIC {
            let v = self_by.get(span).copied().unwrap_or(0);
            per_metric.entry(metric).or_default().push(us(v) / ops);
        }
        for (span, metric) in SPAN_TOTAL_METRIC {
            let v = total_by.get(span).copied().unwrap_or(0);
            per_metric.entry(metric).or_default().push(us(v) / ops);
        }
        let roots: u64 = pass
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::dur_ns)
            .sum();
        self_sum_frac.push(ratio(self_by.values().sum(), roots));
        real_wall.push(us(roots));
        ns_per_edge.push(ratio(
            total_by.get("core.run").copied().unwrap_or(0),
            pass.counts.edges,
        ));
        for class in Class::ALL {
            let ls: Vec<f64> = pass
                .lat
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|&(_, ns)| us(ns))
                .collect();
            if !ls.is_empty() {
                class_lat[class.index()].push(percentile(&ls, 0.5));
            }
        }
    }

    // Counts: over a fixed prefix of traced passes.
    let counted = &traced[..traced.len().min(TRACE_COUNT_PASSES)];
    let mut c = Counts::default();
    for p in counted {
        c.add(&p.counts);
    }
    let not_complete: u64 = traced.iter().map(|p| p.counts.not_complete).sum();
    let rejected: u64 = traced.iter().map(|p| p.counts.rejected).sum();

    // The scaling curve: per ladder step, median cost against edges.
    let points: Vec<(f64, f64)> = (0..4)
        .filter_map(|step| {
            let at: Vec<&(usize, u64, u64)> = traced
                .iter()
                .flat_map(|p| &p.ladder)
                .filter(|l| l.0 == step)
                .collect();
            (!at.is_empty()).then(|| {
                (
                    median(&at.iter().map(|l| l.1 as f64).collect::<Vec<_>>()),
                    median(&at.iter().map(|l| us(l.2)).collect::<Vec<_>>()),
                )
            })
        })
        .collect();

    let build_us = |f: fn(&crate::harness::BuildTimes) -> Duration| {
        median(
            &prepared
                .builds
                .iter()
                .map(|b| f(b).as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let mut values: BTreeMap<&'static str, f64> = per_metric
        .iter()
        .map(|(name, vs)| (*name, median(vs)))
        .collect();
    for class in Class::ALL {
        values.insert(class_latency_name(class), median(&class_lat[class.index()]));
    }
    values.extend([
        ("automata.nfa_states_per_op", ratio(c.nfa_states, c.ops)),
        (
            "optimizer.plan_hit_ratio",
            ratio(c.plan_hits, c.plan_hits + c.plan_misses),
        ),
        (
            "optimizer.certify_accept_ratio",
            ratio(c.certified, c.certified + c.rejected_rewrites),
        ),
        ("core.ns_per_edge", median(&ns_per_edge)),
        ("core.push_levels_per_op", ratio(c.push_levels, c.ops)),
        ("core.pull_levels_per_op", ratio(c.pull_levels, c.ops)),
        ("core.answers_per_op", ratio(c.answers, c.ops)),
        (
            "core.scratch_reuse_ratio",
            ratio(c.scratch_reuses, c.scratch_reuses + c.scratch_allocs),
        ),
        (
            "core.parallel_levels_per_op",
            ratio(c.parallel_levels, c.ops),
        ),
        ("core.threads_used_per_op", ratio(c.threads_used, c.ops)),
        ("core.steals_per_op", ratio(c.steals, c.ops)),
        ("core.scaling_exponent", loglog_slope(&points)),
        ("graph.csr_build_us", build_us(|b| b.csr)),
        ("graph.overlay_rows", ratio(c.overlay_rows, c.commits)),
        (
            "server.compactions_per_pass",
            ratio(c.compactions, counted.len() as u64),
        ),
        ("server.build_us", build_us(|b| b.server)),
        ("server.not_complete", not_complete as f64),
        ("server.rejected", rejected as f64),
        ("bench.passes", traced.len() as f64),
        (
            "bench.pass_mad_frac",
            mad(&baseline_wall) / median(&baseline_wall),
        ),
        (
            "bench.trace_overhead_frac",
            median(&real_wall) / median(&baseline_calls) - 1.0,
        ),
        ("bench.self_sum_frac", median(&self_sum_frac)),
    ]);
    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("no value computed for {}", m.name));
            (m.name, *v)
        })
        .collect();

    let dumped: Vec<Vec<Span>> = traced
        .iter()
        .take(TRACE_COUNT_PASSES)
        .map(|p| p.spans.clone())
        .collect();
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).expect("create the trace directory");
    }
    std::fs::write(trace_path, to_json(&dumped)).expect("write the trace file");

    let spread = |f: fn(&Counts) -> u64| -> String {
        let vs: Vec<u64> = traced.iter().map(|p| f(&p.counts)).collect();
        format!(
            "{}..{}",
            vs.iter().min().expect("at least one traced pass"),
            vs.iter().max().expect("at least one traced pass")
        )
    };
    let oracle = prepared.oracle;
    let failed = not_complete as usize + rejected as usize + runner.drifted + oracle.mismatched;
    let notes = vec![
        format!(
            "workload {} seed {} schedule_hash {:016x}",
            env.schedule.workload.name(),
            env.world.seed,
            env.schedule.hash
        ),
        format!(
            "traced passes {} (counts over the first {}), untraced baseline {} passes, spans of {} passes in {}",
            traced.len(),
            counted.len(),
            baseline.len(),
            dumped.len(),
            trace_path.display()
        ),
        format!(
            "scheduling-dependent counts, per pass over all traced passes: steals {}, threads_used {}",
            spread(|k| k.steals),
            spread(|k| k.threads_used)
        ),
        format!(
            "scaling ladder (edges, core.run us): {:?}",
            points
                .iter()
                .map(|p| (p.0 as u64, (p.1 * 10.0).round() / 10.0))
                .collect::<Vec<_>>()
        ),
        format!(
            "oracle: {} ops checked, {} mismatched; answer-count drift {}",
            oracle.checked, oracle.mismatched, runner.drifted
        ),
    ];
    Outcome {
        correct: failed == 0,
        attempted: traced.len() * env.schedule.ops.len() + oracle.checked,
        failed,
        metrics,
        notes,
        schedule_hash: env.schedule.hash,
    }
}
