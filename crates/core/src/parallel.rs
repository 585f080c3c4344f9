//! Intra-query parallelism: the worker-permit governor, the fan-out
//! constants, and the wave fan-out of the bit-parallel lane kernels.
//!
//! A product search parallelizes two ways, both without changing any
//! observable semantics:
//!
//! * **inside one BFS** — the level-synchronous driver in
//!   [`crate::product`] fans a level whose priced cost clears
//!   [`PAR_LEVEL_THRESHOLD`] across `std::thread::scope` workers (push
//!   levels chunk the frontier, pull levels slab the node range; see the
//!   driver's docs), and runs every cheaper level inline;
//! * **across independent BFSs** — the lane kernels of [`crate::batch`]
//!   process seeds in waves of 64 that share nothing, so `wave_fanout`
//!   hands whole waves to workers drawing arenas from a [`crate::ScratchPool`]
//!   and re-assembles the per-wave payloads in wave order.
//!
//! [`WorkerPool`] is the *governor*: a counter of spawnable extra workers
//! shared by every query an engine serves concurrently. A query leases up
//! to `DoP − 1` permits for its lifetime (returned on drop), so total
//! fan-out never exceeds the configured parallelism no matter how many big
//! closures arrive at once — and a query granted nothing simply runs
//! sequentially.

use std::sync::atomic::{AtomicUsize, Ordering};

use rpq_automata::Nfa;
use rpq_graph::{GraphView, Oid};

use crate::batch::batch_wave_kernel_sink;
use crate::product::SearchOpts;
use crate::scratch::EvalScratch;
use crate::stats::EvalStats;

/// Minimum priced level cost (edge scans) before a level fans out to
/// worker threads; cheaper levels run inline on the calling thread.
pub const PAR_LEVEL_THRESHOLD: usize = 1 << 14;

/// Frontier pairs per shared-cursor claim in a parallel push sweep.
pub(crate) const PUSH_CHUNK: usize = 64;

/// Contiguous nodes per shared-cursor slab in a parallel pull sweep.
pub(crate) const PULL_SLAB: usize = 512;

/// Probes drawn per budget lease in a parallel pull sweep: small enough
/// that a worker parks little unspent budget (a stranded lease can trip
/// the search at most `workers × BUDGET_LEASE` probes early — never late),
/// large enough to keep the shared counter off the hot path.
pub(crate) const BUDGET_LEASE: usize = 64;

/// Shared governor for intra-query parallelism: a pool of "extra worker"
/// permits sized by the configured parallelism. Queries lease permits for
/// their lifetime via [`WorkerPool::lease`]; the lease's
/// [`WorkerLease::dop`] is the degree of parallelism actually granted
/// (always ≥ 1 — a query denied permits runs sequentially, it is never
/// blocked).
#[derive(Debug)]
pub struct WorkerPool {
    /// Extra-worker permits currently available.
    extra: AtomicUsize,
    /// Configured total parallelism (1 = sequential only).
    parallelism: usize,
}

impl WorkerPool {
    /// A pool allowing `parallelism` total threads across all concurrent
    /// queries (each query's own thread counts as one, so
    /// `parallelism − 1` extra-worker permits are available).
    pub fn new(parallelism: usize) -> WorkerPool {
        let parallelism = parallelism.max(1);
        WorkerPool {
            extra: AtomicUsize::new(parallelism - 1),
            parallelism,
        }
    }

    /// The configured total parallelism.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Extra-worker permits currently unleased.
    pub fn available(&self) -> usize {
        self.extra.load(Ordering::Relaxed)
    }

    /// Lease up to `target_dop − 1` extra-worker permits (whatever is
    /// available, possibly none). The permits return to the pool when the
    /// lease drops.
    pub fn lease(&self, target_dop: usize) -> WorkerLease<'_> {
        let want = target_dop.max(1) - 1;
        let mut granted = 0usize;
        let _ = self
            .extra
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |avail| {
                granted = want.min(avail);
                Some(avail - granted)
            });
        WorkerLease {
            pool: self,
            granted,
        }
    }
}

/// A query-lifetime grant of extra-worker permits from a [`WorkerPool`];
/// permits are returned on drop.
#[derive(Debug)]
pub struct WorkerLease<'a> {
    pool: &'a WorkerPool,
    granted: usize,
}

impl WorkerLease<'_> {
    /// The degree of parallelism this lease allows: the leased extra
    /// workers plus the query's own thread.
    pub fn dop(&self) -> usize {
        self.granted + 1
    }
}

impl Drop for WorkerLease<'_> {
    fn drop(&mut self) {
        self.pool.extra.fetch_add(self.granted, Ordering::Release);
    }
}

/// Fan the bit-parallel wave kernel's independent 64-lane waves across up
/// to `opts.dop` workers: wave indices are claimed from a shared cursor
/// (claims past a worker's fair share count as steals), each worker runs
/// the unchanged sequential kernel on its claimed wave with an arena from
/// `opts.pool`, and `per_wave` turns each wave's accepting masks into a
/// representation-specific payload. Payloads are re-assembled in wave
/// order, so every caller sees exactly the sequential kernel's output.
/// A sequential search (or a single wave) runs the kernel inline on
/// `scratch`.
pub(crate) fn wave_fanout<G, T, F>(
    nfa: &Nfa,
    graph: &G,
    seeds: &[Oid],
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
    per_wave: F,
) -> (Vec<T>, EvalStats)
where
    G: GraphView,
    T: Send,
    F: Fn(&[u64], usize, usize) -> T + Sync,
{
    let reverse_adj = opts.reverse_adj;
    let n_waves = seeds.len().div_ceil(64);
    let threads = opts.effective_dop().min(n_waves.max(1));
    let pool = match opts.pool {
        Some(pool) if threads > 1 => pool,
        _ => {
            let mut waves: Vec<T> = Vec::with_capacity(n_waves); // alloc-ok: result value
            let stats = batch_wave_kernel_sink(
                nfa,
                graph,
                seeds,
                reverse_adj,
                scratch,
                &mut |masks, wave_start, wave_len| {
                    waves.push(per_wave(masks, wave_start, wave_len));
                },
            );
            return (waves, stats);
        }
    };

    let cursor = AtomicUsize::new(0);
    let fair = n_waves.div_ceil(threads);
    // One worker body shared by the spawned threads and the calling
    // thread; all captures are immutable, so the closure is `Fn` + `Sync`.
    let work = |scr: &mut EvalScratch| -> (Vec<(usize, T)>, EvalStats, usize) {
        let mut outs: Vec<(usize, T)> = Vec::new(); // alloc-ok: per-worker result collection
        let mut wstats = EvalStats::default();
        let mut steals = 0usize;
        let mut claimed = 0usize;
        loop {
            let wi = cursor.fetch_add(1, Ordering::Relaxed);
            if wi >= n_waves {
                break;
            }
            if claimed >= fair {
                steals += 1;
            }
            claimed += 1;
            let start = wi * 64;
            let end = (start + 64).min(seeds.len());
            let s = batch_wave_kernel_sink(
                nfa,
                graph,
                &seeds[start..end],
                reverse_adj,
                scr,
                &mut |masks, _local_start, wave_len| {
                    // The sub-slice's wave starts at 0; re-anchor to the
                    // wave's global seed index for the payload builder.
                    outs.push((wi, per_wave(masks, start, wave_len)));
                },
            );
            wstats.merge(&s);
        }
        (outs, wstats, steals)
    };

    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n_waves); // alloc-ok: result assembly
    let mut stats = EvalStats::default();
    let mut steals_total = 0usize;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads - 1); // alloc-ok: one tiny vec per fan-out, not per edge
        for _ in 0..threads - 1 {
            handles.push(s.spawn(|| {
                let mut scr = pool.checkout();
                work(&mut scr)
            }));
        }
        let (outs, wstats, steals) = work(scratch);
        tagged.extend(outs);
        stats.merge(&wstats);
        steals_total += steals;
        for h in handles {
            let (outs, wstats, steals) = match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            tagged.extend(outs);
            stats.merge(&wstats);
            steals_total += steals;
        }
    });
    tagged.sort_unstable_by_key(|&(wi, _)| wi);
    stats.threads_used = stats.threads_used.max(threads);
    stats.steal_count += steals_total;
    stats.parallel_levels += 1;
    (tagged.into_iter().map(|(_, t)| t).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::search_lanes;
    use crate::pairset::search_pairs;
    use crate::scratch::ScratchPool;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::{CsrGraph, InstanceBuilder};

    fn web(n: usize) -> (CsrGraph, Nfa) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..n {
            b.edge(&format!("n{i}"), "a", &format!("n{}", (i * 7 + 1) % n));
            b.edge(&format!("n{i}"), "b", &format!("n{}", (i * 13 + 5) % n));
            if i % 3 == 0 {
                b.edge(&format!("n{i}"), "c", &format!("n{}", (i * 31 + 2) % n));
            }
        }
        let (inst, _) = b.finish();
        let r = parse_regex(&mut ab, "(a+b+c)*").unwrap();
        (CsrGraph::from(&inst), Nfa::thompson(&r))
    }

    #[test]
    fn wave_fanout_agrees_with_sequential_kernels() {
        let (graph, nfa) = web(300);
        let seeds: Vec<Oid> = (0..300).step_by(2).map(|i| Oid(i as u32)).collect();
        let targets: Vec<Oid> = (0..300).step_by(7).map(|i| Oid(i as u32)).collect();
        let reversed = nfa.reverse();

        // every kernel under `opts`: lanes and pairs forward and backward,
        // and the both-bound pairs
        let run = |opts: &SearchOpts<'_>, s: &mut EvalScratch| {
            let back = SearchOpts {
                reverse_adj: true,
                ..*opts
            };
            (
                search_lanes(&nfa, &graph, &seeds, opts, s),
                search_lanes(&reversed, &graph, &targets, &back, s),
                search_pairs(&nfa, &graph, &seeds, None, opts, s),
                search_pairs(&reversed, &graph, &targets, None, &back, s),
                search_pairs(&nfa, &graph, &seeds, Some(&targets), opts, s),
            )
        };
        let (batch_seq, to_seq, from_seq, tgt_seq, bound_seq) =
            run(&SearchOpts::default(), &mut EvalScratch::new());

        for dop in [1usize, 2, 4] {
            let pool = ScratchPool::new();
            let opts = SearchOpts {
                dop,
                pool: Some(&pool),
                ..SearchOpts::default()
            };
            let (b, t, f, g, h) = run(&opts, &mut EvalScratch::new());
            assert_eq!(b.per_source(), batch_seq.per_source(), "batch dop={dop}");
            assert_eq!(b.union(), batch_seq.union(), "batch union dop={dop}");
            assert_eq!(b.stats.answers, batch_seq.stats.answers);
            assert_eq!(t.per_source(), to_seq.per_source(), "to-batch dop={dop}");
            assert_eq!(f.pairs, from_seq.pairs, "pairs-from dop={dop}");
            assert_eq!(g.pairs, tgt_seq.pairs, "pairs-to dop={dop}");
            assert_eq!(h.pairs, bound_seq.pairs, "pairs-bound dop={dop}");
            if dop > 1 {
                assert!(h.stats.threads_used >= 2, "fan-out engaged at dop={dop}");
            }
        }
    }

    #[test]
    fn worker_pool_governs_permits() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.parallelism(), 4);
        assert_eq!(pool.available(), 3);
        let a = pool.lease(4);
        assert_eq!(a.dop(), 4);
        assert_eq!(pool.available(), 0);
        let b = pool.lease(4);
        assert_eq!(b.dop(), 1, "denied queries run sequentially");
        drop(a);
        assert_eq!(pool.available(), 3);
        let c = pool.lease(2);
        assert_eq!(c.dop(), 2);
        assert_eq!(pool.available(), 2);
        drop((b, c));
        assert_eq!(pool.available(), 3);
        // sequential-only pool grants nothing
        let seq = WorkerPool::new(1);
        assert_eq!(seq.lease(8).dop(), 1);
    }
}
