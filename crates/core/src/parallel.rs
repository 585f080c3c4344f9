//! Names left over from intra-query parallelism and from the pull half of
//! the hybrid frontier, all of them inert.
//!
//! Every BFS level runs on the query's own thread: on the two vCPUs this
//! repository is measured on, two busy threads do not add up to more than
//! one, and a fanned-out level lost 28–43 % latency at twice the CPU
//! (`CHANGES.md`, PR 25). Concurrency lives across queries, on the server's
//! executor. And every level is one push sweep: no level is priced, so
//! there is no mode to choose and no discount to price a pull with. The
//! items below keep their signatures only so that the end-to-end benchmark
//! (`bench_e2e/`, which a change claiming a gain may not edit) still
//! compiles; nothing in the served stack reads them. Each is deleted with
//! ROADMAP 1(b).

use std::marker::PhantomData;

/// Inert since PR 25; deleted with ROADMAP 1(b). No level fans out, so no
/// level cost is compared with this threshold.
pub const PAR_LEVEL_THRESHOLD: usize = 1 << 14;

/// Inert since PR 25; deleted with ROADMAP 1(b). A pool that holds no
/// permits: every [`WorkerPool::lease`] grants a degree of parallelism
/// of 1.
#[derive(Debug, Default)]
pub struct WorkerPool;

impl WorkerPool {
    /// Inert since PR 25; deleted with ROADMAP 1(b). `parallelism` is
    /// ignored.
    pub fn new(_parallelism: usize) -> WorkerPool {
        WorkerPool
    }

    /// Inert since PR 25; deleted with ROADMAP 1(b). Grants nothing.
    pub fn lease(&self, _target_dop: usize) -> WorkerLease<'_> {
        WorkerLease(PhantomData)
    }
}

/// Inert since PR 25; deleted with ROADMAP 1(b). What a
/// [`WorkerPool::lease`] returns.
#[derive(Debug)]
pub struct WorkerLease<'a>(PhantomData<&'a WorkerPool>);

impl WorkerLease<'_> {
    /// Inert since PR 25; deleted with ROADMAP 1(b). Always 1.
    pub fn dop(&self) -> usize {
        1
    }
}

/// Inert, like the rest of this module; deleted with ROADMAP 1(b). Every
/// level is one push sweep, so there is no frontier mode to choose; the one
/// value stands for the one way a level runs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierMode;

impl FrontierMode {
    /// Inert; deleted with ROADMAP 1(b). No level is priced, so the
    /// discount is ignored.
    pub fn hybrid_with_discount(_pull_discount: usize) -> FrontierMode {
        FrontierMode
    }
}
