//! Intra-query parallelism: the worker-permit governor and the fan-out
//! constants of the product BFS.
//!
//! The level-synchronous driver in [`crate::product`] fans a BFS level
//! whose priced cost clears [`PAR_LEVEL_THRESHOLD`] across
//! `std::thread::scope` workers (push levels chunk the frontier, pull
//! levels slab the node range; see the driver's docs) and runs every
//! cheaper level inline — without changing any observable semantics.
//!
//! [`WorkerPool`] is the *governor*: a counter of spawnable extra workers
//! shared by every query an engine serves concurrently. A query leases up
//! to `DoP − 1` permits for its lifetime (returned on drop), so total
//! fan-out never exceeds the configured parallelism no matter how many big
//! closures arrive at once — and a query granted nothing simply runs
//! sequentially.

use std::sync::atomic::{AtomicUsize, Ordering};

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

#[cfg(test)]
mod tests {
    use super::*;

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
