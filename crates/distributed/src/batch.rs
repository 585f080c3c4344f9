//! A threaded driver for batched multi-source evaluation.
//!
//! Unlike the Section 3.1 protocol runners (one site per *object*, message
//! passing between them), this driver parallelizes over the *source set*:
//! the sources are partitioned into contiguous chunks, each worker thread
//! answers its chunk as one `Sources` / `Targets` request
//! ([`rpq_core::run_request`]) against the shared immutable [`CsrGraph`]
//! snapshot, and the per-chunk answers are stitched back together in
//! source order. Results are ferried back over
//! the vendored crossbeam channels, so the driver composes with the same
//! plumbing as the protocol runners.
//!
//! This is the shape the all-pairs / view-materialization workloads need:
//! an embarrassingly parallel outer loop around a set-at-a-time inner
//! kernel, with no shared mutable state beyond the snapshot.

use std::sync::Arc;
use std::thread;

use crossbeam::channel::unbounded;

use rpq_core::{
    run_default, run_request, BatchResult, Direction, Engine, EvalRequest, EvalResponse,
    EvalResult, EvalStats, ProductEngine, Query, ScratchPool, SearchOpts, SourceSpec,
};
use rpq_graph::{CsrGraph, Oid};

/// Batched multi-source evaluation partitioned across worker threads.
///
/// `eval` delegates to the single-source product BFS; a `Sources` request
/// fans the source set out over `workers` threads, each answering its
/// chunk of sources over the (shared, immutable) snapshot; a `Targets`
/// request does the same with chunks of *targets* (reversed NFA, reverse
/// adjacency). Every worker draws its arenas from a shared
/// [`ScratchPool`], so steady-state batches allocate no frontier memory.
#[derive(Clone, Debug)]
pub struct PartitionedBatchEngine {
    /// Number of worker threads to partition the source set across.
    pub workers: usize,
    pool: Arc<ScratchPool>,
}

impl PartitionedBatchEngine {
    /// A driver over `workers` threads with a fresh scratch pool.
    pub fn new(workers: usize) -> PartitionedBatchEngine {
        PartitionedBatchEngine {
            workers,
            pool: Arc::new(ScratchPool::new()),
        }
    }

    /// The scratch pool shared by this driver's workers (cloned engines
    /// share the same pool).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Fan `items` out over the workers, run `kernel` on each chunk with a
    /// pooled scratch, and stitch the per-chunk responses back in order.
    fn run_partitioned<K>(&self, items: &[Oid], kernel: K) -> EvalResponse
    where
        K: Fn(&[Oid], &mut rpq_core::EvalScratch) -> EvalResponse + Sync,
    {
        let workers = self.workers.max(1);
        if items.is_empty() || workers == 1 {
            let mut scratch = self.pool.checkout();
            return kernel(items, &mut scratch);
        }
        // Contiguous chunks, one per worker (last workers may be idle when
        // there are fewer items than threads).
        let chunk_len = items.len().div_ceil(workers);
        let (tx, rx) = unbounded::<(usize, EvalResponse)>();
        let (pool, kernel) = (&self.pool, &kernel);
        thread::scope(|scope| {
            for (idx, chunk) in items.chunks(chunk_len).enumerate() {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut scratch = pool.checkout();
                    let res = kernel(chunk, &mut scratch);
                    tx.send((idx, res)).expect("result channel open");
                });
            }
        });
        drop(tx);

        let mut chunks: Vec<Option<EvalResponse>> = Vec::new();
        for (idx, res) in rx.iter() {
            if chunks.len() <= idx {
                chunks.resize(idx + 1, None);
            }
            chunks[idx] = Some(res);
        }
        let mut stats = EvalStats::default();
        let mut classes_max = 0usize;
        let mut per_source: Vec<Vec<Oid>> = Vec::with_capacity(items.len());
        for chunk in chunks {
            let chunk = chunk.expect("every chunk reports");
            stats.merge(&chunk.stats);
            classes_max = classes_max.max(chunk.stats.classes_materialized);
            let batch = chunk.batch().expect("chunk requests are batch-shaped");
            per_source.extend_from_slice(batch.per_source().expect("batch kernel partitions"));
        }
        // Summing distinct-states-touched across chunks would count the
        // same NFA state once per worker; report the max instead — a lower
        // bound on the batch-wide distinct count, on the same scale as the
        // single-threaded kernel's number.
        stats.classes_materialized = classes_max;
        EvalResponse::from_batch(BatchResult::from_per_source(per_source), stats)
    }
}

impl Default for PartitionedBatchEngine {
    fn default() -> Self {
        PartitionedBatchEngine::new(4)
    }
}

impl Engine for PartitionedBatchEngine {
    fn name(&self) -> &'static str {
        "batch-partitioned"
    }

    fn eval(&self, query: &Query, graph: &CsrGraph, source: Oid) -> EvalResult {
        ProductEngine.eval(query, graph, source)
    }

    /// Specializes the multi-source and multi-target arms by fanning the
    /// item set out over the worker threads, each answering its chunk
    /// through [`run_request`] (one reversal of the query's NFA serves
    /// every worker). The chunks cannot share a budget, so a request
    /// carrying controls — like everything else — falls back to
    /// [`run_default`].
    fn run(&self, query: &Query, graph: &CsrGraph, req: &EvalRequest) -> EvalResponse {
        let (items, chunk_spec): (_, fn(Vec<Oid>) -> SourceSpec) = match &req.spec {
            SourceSpec::Sources(sources) if !req.is_controlled() => (sources, SourceSpec::Sources),
            SourceSpec::Targets(targets) if !req.is_controlled() => (targets, SourceSpec::Targets),
            _ => return run_default(self, query, graph, req),
        };
        let (nfa, reversed) = (query.nfa(), query.nfa().reverse());
        let opts = SearchOpts::default();
        self.run_partitioned(items, |chunk, scratch| {
            let spec = chunk_spec(chunk.to_vec());
            // no pair arm here, so the pair direction is never read
            let dir = Direction::Forward;
            run_request(nfa, &reversed, graph, &spec, dir, &opts, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpq_automata::Alphabet;
    use rpq_graph::generators::web_graph;

    #[test]
    fn partitioned_batch_matches_per_source_loop() {
        let mut ab = Alphabet::new();
        let labels: Vec<_> = (0..3).map(|i| ab.intern(&format!("l{i}"))).collect();
        let mut rng = StdRng::seed_from_u64(99);
        let (inst, _) = web_graph(&mut rng, 60, 3, &labels);
        let csr = CsrGraph::from(&inst);
        let sources: Vec<Oid> = (0..30).map(|i| Oid(i as u32)).collect();
        for qs in ["l0.(l1+l2)*", "(l0+l1+l2)*", "l2.l2"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            for workers in [1usize, 3, 8, 64] {
                let engine = PartitionedBatchEngine::new(workers);
                let resp = engine.run(&query, &csr, &EvalRequest::sources(sources.clone()));
                let per = resp.batch().unwrap().per_source().unwrap();
                assert_eq!(per.len(), sources.len());
                for (i, &s) in sources.iter().enumerate() {
                    let single = ProductEngine.eval(&query, &csr, s);
                    assert_eq!(per[i], single.answers, "{qs} workers={workers} src={i}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut ab = Alphabet::new();
        let labels: Vec<_> = (0..2).map(|i| ab.intern(&format!("l{i}"))).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let (inst, _) = web_graph(&mut rng, 10, 2, &labels);
        let csr = CsrGraph::from(&inst);
        let query = Query::parse(&mut ab, "l0*").unwrap();
        let resp =
            PartitionedBatchEngine::default().run(&query, &csr, &EvalRequest::sources(vec![]));
        assert!(resp.batch().unwrap().union().is_empty());
    }
}
