//! Batched result shapes — per-seed answer sets and the N×M matrix.
//!
//! Real workloads ask the same query from *many* seeds (figure
//! reproductions, the distributed runners, all-pairs materialization).
//! [`crate::run_request`] answers a `Sources` / `Targets` / `Matrix`
//! request with one product search per seed — every seed gets the depth
//! cap and budget/cancellation protocol of the one product-BFS driver —
//! and reports the per-seed sets
//! as a [`BatchResult`] or a bit-packed [`MatrixResult`], both aligned
//! with the request.

use rpq_graph::Oid;

/// Answers of a batched evaluation over a source set.
///
/// Always carries the union `⋃ᵢ p(oᵢ, I)`. Engines that partition by
/// source also report the per-source answer sets; union-only engines (e.g.
/// semi-naive Datalog seeded with every source at once) report
/// `per_source() == None`. The batch's work counters — per-source counters
/// merged, not discarded, see [`crate::EvalStats::merge`] — are the
/// enclosing [`crate::EvalResponse::stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchResult {
    per_source: Option<Vec<Vec<Oid>>>,
    union: Vec<Oid>,
}

impl BatchResult {
    /// Build from per-source answer sets (each sorted); computes the union.
    pub fn from_per_source(per_source: Vec<Vec<Oid>>) -> BatchResult {
        let mut union: Vec<Oid> = per_source.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        BatchResult {
            per_source: Some(per_source),
            union,
        }
    }

    /// Build from a union-only computation (`union` need not be sorted).
    pub fn union_only(mut union: Vec<Oid>) -> BatchResult {
        union.sort_unstable();
        union.dedup();
        BatchResult {
            per_source: None,
            union,
        }
    }

    /// The union of all per-source answer sets, sorted.
    pub fn union(&self) -> &[Oid] {
        &self.union
    }

    /// Per-source answer sets aligned with the `sources` argument, if the
    /// engine partitioned by source (`None` for union-only engines).
    pub fn per_source(&self) -> Option<&[Vec<Oid>]> {
        self.per_source.as_deref()
    }

    /// Re-align per-seed sets that were computed over a prefix of the
    /// in-range seeds of `requested` (out-of-range oids seed nothing; the
    /// loop stops at the first seed that does not complete): every
    /// requested seed gets a slot, the skipped ones an empty set.
    pub(crate) fn aligned_to(mut self, requested: &[Oid], nv: usize) -> BatchResult {
        if let Some(per) = &mut self.per_source {
            if per.len() != requested.len() {
                let mut computed = std::mem::take(per).into_iter();
                let slot = |o: &Oid| {
                    if o.index() < nv {
                        computed.next().unwrap_or_default()
                    } else {
                        Vec::default()
                    }
                };
                *per = requested.iter().map(slot).collect();
            }
        }
        self
    }
}

/// Bit-packed N×M reachability matrix: `reachable(i, j)` answers
/// `targets[j] ∈ p(sources[i], I)`. [`crate::run_request`] fills one row
/// per source search, probing that source's sorted answer set once per
/// target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixResult {
    sources: Vec<Oid>,
    targets: Vec<Oid>,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl MatrixResult {
    /// An all-unreachable matrix over the given axes — the starting point
    /// for the row-by-row fill (cells are marked per completed source) and
    /// the zero-work result for statically empty queries.
    pub fn new(sources: Vec<Oid>, targets: Vec<Oid>) -> MatrixResult {
        let words_per_row = targets.len().div_ceil(64);
        let bits = vec![0u64; sources.len() * words_per_row];
        MatrixResult {
            sources,
            targets,
            words_per_row,
            bits,
        }
    }

    /// Mark `(sources[i], targets[j])` reachable.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Does a path from `sources[i]` to `targets[j]` spell a query word?
    #[inline]
    pub fn reachable(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// The row objects (path starts), in request order.
    pub fn sources(&self) -> &[Oid] {
        &self.sources
    }

    /// The column objects (path ends), in request order.
    pub fn targets(&self) -> &[Oid] {
        &self.targets
    }

    /// Number of reachable `(source, target)` cells.
    pub fn reachable_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Re-seat a matrix computed over the in-range rows and columns of the
    /// requested axes onto those axes: an oid `>= nv` keeps its row or
    /// column, all unreachable.
    pub(crate) fn spread_over(self, sources: &[Oid], targets: &[Oid], nv: usize) -> MatrixResult {
        if self.sources.len() == sources.len() && self.targets.len() == targets.len() {
            return self;
        }
        let live = |axis: &[Oid]| -> Vec<usize> {
            let kept = axis.iter().enumerate().filter(|(_, o)| o.index() < nv);
            kept.map(|(i, _)| i).collect()
        };
        let mut full = MatrixResult::new(sources.to_vec(), targets.to_vec());
        let (rows, cols) = (live(sources), live(targets));
        for (li, &i) in rows.iter().enumerate() {
            for (lj, &j) in cols.iter().enumerate() {
                if self.reachable(li, lj) {
                    full.set(i, j);
                }
            }
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, ProductEngine, Query};
    use crate::request::EvalRequest;
    use rpq_automata::Alphabet;
    use rpq_graph::{CsrGraph, InstanceBuilder};

    fn batch(query: &Query, csr: &CsrGraph, sources: &[Oid]) -> BatchResult {
        let resp = ProductEngine.run(query, csr, &EvalRequest::sources(sources.to_vec()));
        resp.batch().expect("batch payload").clone()
    }

    fn diamond() -> (Alphabet, CsrGraph, Vec<Oid>) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s0", "a", "m");
        b.edge("s1", "a", "m");
        b.edge("s2", "a", "m");
        b.edge("m", "b", "t1");
        b.edge("t1", "b", "t2");
        b.edge("t2", "b", "t1");
        let (inst, names) = b.finish();
        let sources = vec![names["s0"], names["s1"], names["s2"], names["m"]];
        (ab, CsrGraph::from(&inst), sources)
    }

    #[test]
    fn batch_matches_per_source_loop() {
        let (mut ab, csr, sources) = diamond();
        for qs in ["a.b*", "b*", "(a+b)*", "a.b.b", "()", "[]"] {
            let query = Query::parse(&mut ab, qs).unwrap();
            let batch = batch(&query, &csr, &sources);
            let per = batch.per_source().unwrap();
            assert_eq!(per.len(), sources.len());
            for (i, &s) in sources.iter().enumerate() {
                let single = ProductEngine.eval(&query, &csr, s);
                assert_eq!(per[i], single.answers, "{qs} source {i}");
            }
        }
    }

    #[test]
    fn empty_source_set_is_empty() {
        let (mut ab, csr, _) = diamond();
        let query = Query::parse(&mut ab, "a*").unwrap();
        let batch = batch(&query, &csr, &[]);
        assert!(batch.union().is_empty());
        assert_eq!(batch.per_source(), Some(&[][..]));
    }

    #[test]
    fn duplicate_sources_each_get_a_slot() {
        let (mut ab, csr, sources) = diamond();
        let query = Query::parse(&mut ab, "a.b*").unwrap();
        let dup = vec![sources[0], sources[0], sources[1]];
        let batch = batch(&query, &csr, &dup);
        let per = batch.per_source().unwrap();
        assert_eq!(per.len(), 3);
        assert_eq!(per[0], per[1]);
    }
}
