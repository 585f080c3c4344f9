//! The closed-loop, one-client driver: cold builds, oracle checks, warm-up
//! and timed passes (the traced replay is in `replay.rs`).
//!
//! One client thread calls `Session::submit_text(..).join()` and waits for
//! each reply before sending the next request (callers that wait for a
//! reply make a closed loop). The machine has two cores: the client plus
//! the server's per-query worker thread are the whole machine, so a second
//! client would measure the scheduler, not the server.
//!
//! A pass is timed in *slices* with a clock probe on either side
//! (`clock.rs`); the run's metrics are built from the quiet value of every
//! op and slice over all passes (`quiet.rs`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpq_constraints::ConstraintSet;
use rpq_core::{eval_oracle, EvalResponse, Query, SourceSpec, Termination};
use rpq_graph::{CompactionPolicy, CsrGraph, Instance, Oid};
use rpq_optimizer::join::{execute_naive, HeadBindings};
use rpq_optimizer::parse_crpq;
use rpq_server::{Catalog, Server, ServerConfig};

use crate::clock::{probe_ns, Bracket, REFERENCE_PROBE_NS};
use crate::gen::{Region, World};
use crate::quiet::Samples;
use crate::sched::{Class, Op, QueryOp, Schedule, Workload, CHURN_MIN_LOG_LEN};
use crate::stats::{mad, median, percentile};

/// The serving configuration under test, spelled out rather than defaulted
/// so that a change of `ServerConfig::default()` cannot move the baseline.
pub const SERVER_CONFIG: ServerConfig = ServerConfig {
    max_concurrent: 64,
    default_budget: None,
    parallelism: 2,
};
/// Passes run and discarded before the timed window opens: they fill the
/// plan memo and the scratch pool, and let the server's pull-discount
/// calibration (a step every 256 queries) settle.
pub const WARMUP_PASSES: usize = 5;
/// Counts (`edges_per_op`, every per-layer count) are taken over this many
/// leading timed passes. Every run completes at least this many, so the
/// counts do not depend on how many passes a faster machine fits.
pub const COUNT_PASSES: usize = 16;
/// Idle time between set-up and warm-up. The reference machine (a 2-vCPU
/// microVM) has two wake-up regimes: after both vCPUs have been busy at
/// once for ~2 s (a compile, a parallel kernel), waking a sleeping thread
/// costs ~60 µs instead of ~12 µs, and it stays that way under any load
/// until the guest has been fully idle for 4–5 s. Every run therefore
/// idles first, so that its window opens in the fast regime whatever ran
/// before it. See README.md for the measurements.
pub const SETTLE_IDLE: Duration = Duration::from_secs(6);
/// Cold builds per run; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 5;
/// Word-length bound handed to `eval_oracle` for `r*`-shaped queries: the
/// regions these run on have diameter ≤ 16, so 40 letters reach everything.
const ORACLE_DEPTH: usize = 40;
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("bench_e2e reads /proc and calls clock_gettime: 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process (every thread, finished
/// ones included), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, enforced by the cfg above), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `VmHWM` of this process in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Everything generated from the seed.
pub struct Env {
    pub world: World,
    /// The graph as a `CsrGraph`: `churn-mixed` clones it into a fresh
    /// `Catalog` per pass, schedule generation follows paths on it, and
    /// the conjunctive oracle evaluates against it.
    pub base: CsrGraph,
    pub schedule: Schedule,
    pub set: ConstraintSet,
}

impl Env {
    pub fn new(workload: Workload, seed: u64) -> Env {
        let world = World::generate(seed);
        let base = world.csr();
        let schedule = Schedule::generate(workload, &world, &base);
        let set = world.constraints();
        Env {
            world,
            base,
            schedule,
            set,
        }
    }

    fn policy(&self) -> CompactionPolicy {
        match self.schedule.workload {
            // Fires on log length alone, once per pass (see sched.rs).
            Workload::ChurnMixed => CompactionPolicy {
                max_log_ratio: 0.0,
                min_log_len: CHURN_MIN_LOG_LEN,
                max_overlay_row_fraction: f64::INFINITY,
            },
            _ => CompactionPolicy::default(),
        }
    }

    fn catalog(&self, csr: CsrGraph) -> Arc<Catalog> {
        Arc::new(Catalog::new(csr).with_policy(self.policy()))
    }

    fn server(&self, catalog: &Arc<Catalog>) -> Server {
        Server::with_constraints(
            catalog.clone(),
            self.set.clone(),
            self.world.alphabet.clone(),
        )
        .with_config(SERVER_CONFIG)
    }

    /// Execute every distinct query text once (plans it, sizes the scratch
    /// pool).
    fn first_executions(&self, server: &Server) {
        let session = server.session();
        for q in self.schedule.first_use_of_each_text() {
            let handle = session
                .submit_text(&self.schedule.texts[q.text], q.spec.clone())
                .expect("generated texts parse and one client never hits the cap");
            black_box(handle.join());
        }
    }
}

/// A catalog and the server over it.
pub struct Serving {
    pub catalog: Arc<Catalog>,
    pub server: Server,
}

/// One cold build's phases.
#[derive(Copy, Clone, Debug)]
pub struct BuildTimes {
    /// Edge list → `Instance` → `CsrGraph`.
    pub csr: Duration,
    /// `Catalog::new` + `Server::with_constraints` + `with_config`.
    pub server: Duration,
    /// The whole build, first execution of every query text included.
    pub total: Duration,
    /// Clock probes before and after the build.
    pub clock: Bracket,
}

impl BuildTimes {
    /// The whole build in seconds at the reference clock. A build is
    /// ~0.1 s, long enough to straddle a clock switch; it is scaled by the
    /// mean of its probes either way, and `setup_s` is a median of five.
    pub fn total_at_reference(&self) -> f64 {
        self.total.as_secs_f64() * self.clock.scale()
    }
}

/// Edge list → `CsrGraph` → `Catalog` → `Server` → first execution of
/// every distinct query text of the workload.
pub fn cold_build(env: &Env) -> (Serving, BuildTimes) {
    let before_ns = probe_ns();
    let t0 = Instant::now();
    let csr = env.world.csr();
    let t_csr = t0.elapsed();
    let catalog = env.catalog(csr);
    let server = env.server(&catalog);
    let t_server = t0.elapsed() - t_csr;
    env.first_executions(&server);
    let total = t0.elapsed();
    let times = BuildTimes {
        csr: t_csr,
        server: t_server,
        total,
        clock: Bracket {
            before_ns,
            after_ns: probe_ns(),
        },
    };
    (Serving { catalog, server }, times)
}

/// A fresh serving stack for one pass of a workload whose passes must not
/// share state, built outside the timed window. `plan-cold` gets a new
/// `Server` (empty plan memo) over the shared catalog; `churn-mixed` gets
/// a new `Catalog` over a copy of the base graph and a server with warm
/// plans.
pub fn fresh_serving(env: &Env, shared: &Serving) -> Serving {
    match env.schedule.workload {
        Workload::ChurnMixed => {
            let catalog = env.catalog(env.base.clone());
            let server = env.server(&catalog);
            env.first_executions(&server);
            Serving { catalog, server }
        }
        _ => Serving {
            catalog: shared.catalog.clone(),
            server: env.server(&shared.catalog),
        },
    }
}

// ---------------------------------------------------------------------------
// Oracle checks
// ---------------------------------------------------------------------------

fn region_of(world: &World, node: Oid) -> Region {
    std::iter::once(&world.nav)
        .chain(std::iter::once(&world.join))
        .chain(&world.mini)
        .chain(&world.tiny)
        .chain(&world.small)
        .chain(&world.wide)
        .copied()
        .find(|r| node.0 >= r.lo && node.0 < r.lo + r.n)
        .expect("every node lies in a region")
}

/// Does `resp` equal what the definition of the query says? The reference
/// is `rpq_core::eval_oracle` (word enumeration over the *original* text,
/// not the planner's rewrite) for path queries and
/// `rpq_optimizer::execute_naive` for conjunctive ones.
fn answers_match(
    env: &Env,
    inst: &Instance,
    text: &str,
    op: &QueryOp,
    resp: &EvalResponse,
) -> bool {
    let mut ab = env.world.alphabet.clone();
    if op.class == Class::Crpq {
        let SourceSpec::Sources(ss) = &op.spec else {
            return false;
        };
        let Ok(crpq) = parse_crpq(&mut ab, text) else {
            return false;
        };
        let heads = HeadBindings {
            sources: Some(ss),
            targets: None,
        };
        // Conjunctive ops run on `kernel-scan` only, which never mutates
        // the graph, so the base snapshot is the data they were asked on.
        let (expected, _) = execute_naive(&crpq, &env.base, heads);
        return resp.bindings() == Some(&expected[..]);
    }
    let Ok(query) = Query::parse(&mut ab, text) else {
        return false;
    };
    let nfa = query.nfa();
    let bound = Some(nfa.longest_accepted_len().unwrap_or(ORACLE_DEPTH));
    let forward = |s: Oid| eval_oracle(nfa, inst, s, bound);
    match &op.spec {
        SourceSpec::Source(s) => resp.nodes() == Some(&forward(*s)[..]),
        SourceSpec::Pair { source, target } => {
            resp.reachable() == Some(forward(*source).binary_search(target).is_ok())
        }
        SourceSpec::Sources(ss) => {
            let Some(per) = resp.batch().and_then(|b| b.per_source()) else {
                return false;
            };
            per.len() == ss.len()
                && ss
                    .iter()
                    .zip(per)
                    .take(4)
                    .all(|(s, got)| *got == forward(*s))
        }
        SourceSpec::Targets(ts) => {
            let Some(per) = resp.batch().and_then(|b| b.per_source()) else {
                return false;
            };
            // Regions are closed, so only nodes of the target's own region
            // can reach it: ask the forward oracle from each of them.
            per.len() == ts.len()
                && ts.iter().zip(per).take(2).all(|(t, got)| {
                    let reg = region_of(&env.world, *t);
                    let expected: Vec<Oid> = (0..reg.n as usize)
                        .map(|i| reg.node(i))
                        .filter(|o| forward(*o).binary_search(t).is_ok())
                        .collect();
                    *got == expected
                })
        }
        SourceSpec::Matrix { sources, targets } => {
            let Some(m) = resp.matrix() else {
                return false;
            };
            sources.iter().enumerate().all(|(i, s)| {
                let row = forward(*s);
                targets
                    .iter()
                    .enumerate()
                    .all(|(j, t)| m.reachable(i, j) == row.binary_search(t).is_ok())
            })
        }
        SourceSpec::Target(_) | SourceSpec::Conjunctive { .. } => false,
    }
}

/// Which ops of the schedule the oracle re-derives: 40 evenly spaced reads
/// (so `churn-mixed` is checked in every part of its delta history), or on
/// `kernel-scan` the first few of each class — conjunctive ops and the
/// first step of the wide ladder included.
fn oracle_sample(schedule: &Schedule) -> Vec<usize> {
    if schedule.workload == Workload::KernelScan {
        let mut taken = [0usize; Class::ALL.len()];
        let mut wide_taken = 0;
        let mut out = Vec::new();
        for (i, op) in schedule.ops.iter().enumerate() {
            let Op::Query(q) = op else { continue };
            let quota = match (q.class, q.wide) {
                (_, Some(0)) => {
                    wide_taken += 1;
                    usize::from(wide_taken <= 1)
                }
                (_, Some(_)) => 0,
                (Class::Closure | Class::Pair, None) => 10,
                _ => 3,
            };
            if q.wide.is_some() {
                if quota == 1 {
                    out.push(i);
                }
            } else if taken[q.class.index()] < quota {
                taken[q.class.index()] += 1;
                out.push(i);
            }
        }
        return out;
    }
    let reads: Vec<usize> = schedule
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Query(_)))
        .map(|(i, _)| i)
        .collect();
    (0..40).map(|k| reads[k * reads.len() / 40]).collect()
}

/// Outcome of the oracle phase.
#[derive(Copy, Clone, Debug, Default)]
pub struct OracleReport {
    pub checked: usize,
    pub mismatched: usize,
}

/// Replay one pass outside any timed window and compare a sample of its
/// answers with the oracle. Deltas are mirrored into `inst`, so reads on
/// post-delta epochs are checked against the graph as it stood then.
pub fn oracle_check(env: &Env, shared: &Serving) -> OracleReport {
    let sample = oracle_sample(&env.schedule);
    let mut inst = env.world.instance();
    let serving;
    let serving = if env.schedule.workload.fresh_server_per_pass() {
        serving = fresh_serving(env, shared);
        &serving
    } else {
        shared
    };
    let mut session = serving.server.session();
    let mut report = OracleReport::default();
    let last = *sample.last().expect("sample is not empty");
    for (i, op) in env.schedule.ops.iter().enumerate().take(last + 1) {
        match op {
            Op::Commit(delta) => {
                serving.catalog.commit(delta);
                session.refresh();
                for &(f, l, t) in &delta.dels {
                    inst.remove_edge(f, l, t);
                }
                for &(f, l, t) in &delta.adds {
                    inst.add_edge(f, l, t);
                }
            }
            // Unsampled reads change no state: skip them.
            Op::Query(q) if sample.binary_search(&i).is_ok() => {
                let text = &env.schedule.texts[q.text];
                let ok = match session.submit_text(text, q.spec.clone()) {
                    Ok(h) => {
                        let resp = h.join();
                        resp.termination == Termination::Complete
                            && answers_match(env, &inst, text, q, &resp)
                    }
                    Err(_) => false,
                };
                report.checked += 1;
                report.mismatched += usize::from(!ok);
            }
            Op::Query(_) => {}
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Untraced passes
// ---------------------------------------------------------------------------

/// A stretch of `Workload::slice_ops` consecutive ops of a pass.
pub struct Slice {
    pub wall_ns: u64,
    /// Process CPU time (all threads) over the slice.
    pub cpu_ns: u64,
    pub clock: Bracket,
}

/// What one untraced pass measured.
pub struct Pass {
    /// The whole pass, clock probes included.
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Slice `j` holds ops `j * slice_ops ..`.
    pub slices: Vec<Slice>,
    /// Submit→join (or commit→refresh) latency of every op, in op order.
    pub lat_ns: Vec<u64>,
    pub edges: u64,
    /// Answer count of every op (`applied` mutations for commits): the
    /// cheap fingerprint compared across passes.
    pub answers: Vec<u32>,
    pub not_complete: usize,
    pub rejected: usize,
    pub compactions: usize,
}

/// Replay the schedule once against `serving`, timing every op.
pub fn run_pass(env: &Env, serving: &Serving) -> Pass {
    let ops = &env.schedule.ops;
    let texts = &env.schedule.texts;
    let mut lat_ns = Vec::with_capacity(ops.len());
    let mut answers = Vec::with_capacity(ops.len());
    let (mut edges, mut not_complete, mut rejected) = (0u64, 0usize, 0usize);
    let compactions0 = serving.catalog.compactions();
    let mut session = serving.server.session();
    let slice_ops = env.schedule.workload.slice_ops();
    let mut slices = Vec::with_capacity(ops.len().div_ceil(slice_ops));
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let mut before_ns = probe_ns();
    for slice in ops.chunks(slice_ops) {
        let slice_cpu0 = process_cpu_ns();
        let slice_t0 = Instant::now();
        for op in slice {
            let start = Instant::now();
            match op {
                Op::Query(q) => match session.submit_text(&texts[q.text], q.spec.clone()) {
                    Ok(handle) => {
                        let resp = handle.join();
                        lat_ns.push(start.elapsed().as_nanos() as u64);
                        edges += resp.stats.edges_scanned as u64;
                        answers.push(resp.stats.answers as u32);
                        not_complete += usize::from(resp.termination != Termination::Complete);
                    }
                    Err(_) => {
                        lat_ns.push(start.elapsed().as_nanos() as u64);
                        answers.push(u32::MAX);
                        rejected += 1;
                    }
                },
                Op::Commit(delta) => {
                    let commit = serving.catalog.commit(delta);
                    session.refresh();
                    lat_ns.push(start.elapsed().as_nanos() as u64);
                    answers.push(commit.applied as u32);
                }
            }
        }
        let wall_ns = slice_t0.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - slice_cpu0;
        let after_ns = probe_ns();
        slices.push(Slice {
            wall_ns,
            cpu_ns,
            clock: Bracket {
                before_ns,
                after_ns,
            },
        });
        before_ns = after_ns;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu0;
    Pass {
        wall_ns,
        cpu_ns,
        slices,
        lat_ns,
        edges,
        answers,
        not_complete,
        rejected,
        compactions: serving.catalog.compactions() - compactions0,
    }
}

/// Runs passes back to back, giving each the serving stack its workload
/// calls for and comparing every pass's answer counts with the first's.
pub(crate) struct PassRunner<'a> {
    env: &'a Env,
    shared: &'a Serving,
    reference: Option<Vec<u32>>,
    /// Ops whose answer count differed from the first pass's.
    pub drifted: usize,
}

impl<'a> PassRunner<'a> {
    pub(crate) fn new(env: &'a Env, shared: &'a Serving) -> PassRunner<'a> {
        PassRunner {
            env,
            shared,
            reference: None,
            drifted: 0,
        }
    }

    pub(crate) fn with_serving<T>(&self, f: impl FnOnce(&Serving) -> T) -> T {
        if self.env.schedule.workload.fresh_server_per_pass() {
            f(&fresh_serving(self.env, self.shared))
        } else {
            f(self.shared)
        }
    }

    fn check(&mut self, answers: &[u32]) {
        match &self.reference {
            None => self.reference = Some(answers.to_vec()),
            Some(r) => self.drifted += r.iter().zip(answers).filter(|(a, b)| a != b).count(),
        }
    }

    pub(crate) fn pass(&mut self) -> Pass {
        let pass = self.with_serving(|s| run_pass(self.env, s));
        self.check(&pass.answers);
        pass
    }
}

pub(crate) fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The result line's payload.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
    pub schedule_hash: u64,
}

/// How long a run measures.
#[derive(Copy, Clone, Debug)]
pub enum Window {
    /// As many timed passes as fit.
    Seconds(f64),
    /// Exactly this many timed passes (`--smoke`).
    Passes(usize),
}

impl Window {
    pub(crate) fn smoke(&self) -> bool {
        matches!(self, Window::Passes(_))
    }

    /// Passes run and discarded before measuring.
    pub(crate) fn warmup_passes(&self) -> usize {
        if self.smoke() {
            1
        } else {
            WARMUP_PASSES
        }
    }

    pub(crate) fn open(&self, started: Instant, done: usize) -> bool {
        match *self {
            Window::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Window::Passes(n) => done < n,
        }
    }
}

/// Median of `SETUP_BUILDS` cold builds (or one, under `--smoke`); the
/// last build's serving stack is the one the run goes on to measure.
fn setup(env: &Env, builds: usize) -> (Serving, Vec<BuildTimes>) {
    let mut times = Vec::with_capacity(builds);
    let mut kept: Option<Serving> = None;
    for _ in 0..builds {
        // Drop the previous build before the next so that peak RSS holds
        // one build, not all of them.
        drop(kept.take());
        let (serving, t) = cold_build(env);
        times.push(t);
        kept = Some(serving);
    }
    (kept.expect("at least one build"), times)
}

/// What every run does before its first pass.
pub struct Prepared {
    pub(crate) shared: Serving,
    pub(crate) builds: Vec<BuildTimes>,
    pub(crate) oracle: OracleReport,
}

/// Cold builds, oracle checks, and — unless this is a smoke run — the
/// settling idle.
pub fn prepare(env: &Env, window: Window) -> Prepared {
    let (shared, builds) = setup(env, if window.smoke() { 1 } else { SETUP_BUILDS });
    let oracle = oracle_check(env, &shared);
    if !window.smoke() {
        std::thread::sleep(SETTLE_IDLE);
    }
    Prepared {
        shared,
        builds,
        oracle,
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(env: &Env, prepared: &Prepared, window: Window) -> Outcome {
    let Prepared {
        shared,
        builds,
        oracle,
    } = prepared;
    let mut runner = PassRunner::new(env, shared);
    for _ in 0..window.warmup_passes() {
        runner.pass();
    }
    let ops = env.schedule.ops.len();
    let mut samples = Samples::new(ops, env.schedule.workload.slice_ops());
    // Raw whole-pass wall times and slice probes: diagnostics only.
    let (mut wall, mut probes): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let (mut edges, mut counted) = (0u64, 0usize);
    let (mut not_complete, mut rejected, mut compactions) = (0usize, 0usize, 0usize);
    let started = Instant::now();
    while window.open(started, wall.len()) {
        let pass = runner.pass();
        samples.absorb(&pass);
        if wall.is_empty() {
            compactions = pass.compactions;
        }
        if counted < COUNT_PASSES {
            counted += 1;
            edges += pass.edges;
        }
        not_complete += pass.not_complete;
        rejected += pass.rejected;
        probes.extend(pass.slices.iter().map(|s| s.clock.after_ns as f64));
        wall.push(us(pass.wall_ns));
    }
    let passes = wall.len();
    let failed = not_complete + rejected + runner.drifted + oracle.mismatched;
    let attempted = passes * ops + oracle.checked;

    let quiet_lat: Vec<f64> = samples
        .quiet_latencies()
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let quiet_wall_us = samples.quiet_pass_wall() / 1e3;
    let wall_med = median(&wall);
    let metrics = vec![
        (
            "setup_s",
            median(
                &builds
                    .iter()
                    .map(BuildTimes::total_at_reference)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("qps", ops as f64 / (quiet_wall_us / 1e6)),
        ("lat_p50_us", percentile(&quiet_lat, 0.50)),
        ("lat_p95_us", percentile(&quiet_lat, 0.95)),
        ("cpu_us_per_op", samples.quiet_pass_cpu() / 1e3 / ops as f64),
        ("edges_per_op", edges as f64 / (counted * ops) as f64),
        ("rss_peak_mb", rss_peak_mb()),
    ];
    let notes = vec![
        format!(
            "workload {} seed {} schedule_hash {:016x}",
            env.schedule.workload.name(),
            env.world.seed,
            env.schedule.hash
        ),
        format!(
            "graph: {} nodes, {} edges, {} labels; {} ops per pass ({} beyond p95)",
            env.world.num_nodes,
            env.base.num_edges(),
            env.world.alphabet.len(),
            ops,
            ops - (0.95 * ops as f64).ceil() as usize
        ),
        format!(
            "passes {} (counts over the first {}), quiet pass {:.1} ms at the reference clock; raw pass wall median {:.1} ms, MAD/median {:.4}",
            passes,
            counted,
            quiet_wall_us / 1e3,
            wall_med / 1e3,
            mad(&wall) / wall_med
        ),
        format!(
            "clock probe ns p05/p50/p95 {:.0}/{:.0}/{:.0} (reference {:.0}); slices at one clock {} of {}",
            percentile(&probes, 0.05),
            percentile(&probes, 0.50),
            percentile(&probes, 0.95),
            REFERENCE_PROBE_NS,
            samples.slices_steady,
            samples.slices_seen
        ),
        format!(
            "raw pass wall ms by tenth of the window: {:?}",
            wall.chunks(wall.len().div_ceil(10).max(1))
                .map(|c| (median(c) / 100.0).round() / 10.0)
                .collect::<Vec<_>>()
        ),
        format!(
            "oracle: {} ops checked, {} mismatched; answer-count drift {}; not complete {}; rejected {}; compactions per pass {}",
            oracle.checked,
            oracle.mismatched,
            runner.drifted,
            not_complete,
            rejected,
            compactions
        ),
    ];
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        schedule_hash: env.schedule.hash,
    }
}
