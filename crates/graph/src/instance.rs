//! Finite instances of the `Ref(source, label, destination)` schema.
//!
//! Section 2.1 views a semistructured database as a labeled directed graph:
//! `Ref(o1, l, o2)` says there is an edge labeled `l` from object `o1` to
//! `o2`. Objects have *finite outdegree* ("objects are small"); indegree is
//! unconstrained. An [`Instance`] stores the graph in adjacency form, keyed
//! by dense [`Oid`]s, with optional human-readable node names used by traces
//! and DOT rendering (the paper's `d`, `o1`, `o2`, …).

use std::collections::HashMap;
use std::fmt;

use rpq_automata::{Alphabet, Symbol};

use crate::csr::LabelStats;

/// A dense object identifier within one [`Instance`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u32);

impl Oid {
    /// The dense index of this object.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A finite labeled directed graph — one instance of the `Ref` schema.
///
/// This is the *mutable builder* form; freeze it into the label-indexed
/// [`crate::CsrGraph`] for query-time evaluation.
///
/// **Invariant:** every adjacency row is sorted by `(Symbol, Oid)`; the
/// query and mutation methods rely on it via binary search. Every
/// constructor in this crate maintains it. If an instance is ever
/// rehydrated from an external encoding that predates the invariant (a
/// decoder that does not validate it), call [`Instance::normalize`] once
/// before use.
#[derive(Clone, Debug, Default)]
pub struct Instance {
    /// `out[o] = [(label, destination), …]` kept sorted by `(Symbol, Oid)`,
    /// so membership is a binary search and label groups are contiguous.
    out: Vec<Vec<(Symbol, Oid)>>,
    /// Optional display names per node.
    names: Vec<Option<String>>,
    edge_count: usize,
    /// Per-label statistics, maintained incrementally by
    /// [`Instance::add_edge`]/[`Instance::remove_edge`] so snapshotting
    /// ([`crate::CsrGraph::from`]) pays no recount.
    stats: LabelStats,
}

impl Instance {
    /// An empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Add an anonymous node.
    pub fn add_node(&mut self) -> Oid {
        self.out.push(Vec::new());
        self.names.push(None);
        Oid(self.out.len() as u32 - 1)
    }

    /// Add a named node (names are for display only and need not be unique,
    /// though [`Instance::node_by_name`] returns the first match).
    pub fn add_named_node(&mut self, name: &str) -> Oid {
        let o = self.add_node();
        self.names[o.index()] = Some(name.to_owned());
        o
    }

    /// Add an edge `Ref(from, label, to)`. Duplicate edges are ignored
    /// (relations are sets). Returns true if the edge was new.
    ///
    /// Rows are kept sorted by `(Symbol, Oid)`, so the dedup check is a
    /// binary search rather than a linear scan — bulk loading `d` edges
    /// onto one node costs `O(d log d)` comparisons, not `O(d²)`.
    pub fn add_edge(&mut self, from: Oid, label: Symbol, to: Oid) -> bool {
        let row = &mut self.out[from.index()];
        match row.binary_search(&(label, to)) {
            Ok(_) => false,
            Err(pos) => {
                // new source for the label iff no neighbor in the row
                // carries it (rows are sorted, so only positions pos-1 and
                // pos need checking)
                let had_label = (pos > 0 && row[pos - 1].0 == label)
                    || row.get(pos).is_some_and(|&(l, _)| l == label);
                row.insert(pos, (label, to));
                self.edge_count += 1;
                self.stats.note_added(label, !had_label);
                true
            }
        }
    }

    /// Remove the edge `Ref(from, label, to)` if present. Returns true if
    /// an edge was removed. Statistics stay incrementally maintained, so
    /// mutate-then-snapshot loops never pay a recount.
    pub fn remove_edge(&mut self, from: Oid, label: Symbol, to: Oid) -> bool {
        let row = &mut self.out[from.index()];
        match row.binary_search(&(label, to)) {
            Ok(pos) => {
                row.remove(pos);
                self.edge_count -= 1;
                let still_has = (pos > 0 && row[pos - 1].0 == label)
                    || row.get(pos).is_some_and(|&(l, _)| l == label);
                self.stats.note_removed(label, !still_has);
                true
            }
            Err(_) => false,
        }
    }

    /// Per-label statistics, maintained incrementally on every mutation.
    pub fn stats(&self) -> &LabelStats {
        &self.stats
    }

    /// Simulate an instance rehydrated from an encoding that predates the
    /// incremental stats field (rows populated, statistics empty) — for
    /// exercising `CsrGraph::from`'s staleness fallback.
    #[cfg(test)]
    pub(crate) fn clear_stats_for_test(&mut self) {
        self.stats = LabelStats::default();
    }

    /// Restore the sorted-row invariant and recount edges and statistics
    /// after rehydrating from an encoding that does not guarantee them
    /// (see the type docs). Always sweeps every row (`O(nodes + edges)`);
    /// the per-row sort is skipped when a row is already sorted.
    pub fn normalize(&mut self) {
        let mut count = 0usize;
        for row in &mut self.out {
            if !row.is_sorted() {
                row.sort_unstable();
            }
            row.dedup();
            count += row.len();
        }
        self.edge_count = count;
        self.stats = LabelStats::recount(self.out.iter().map(Vec::as_slice));
    }

    /// Number of objects.
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    /// Number of edges (tuples in `Ref`).
    pub fn num_edges(&self) -> usize {
        self.edge_count
    }

    /// The outgoing edges of `o` — the paper's "description of o" — sorted
    /// by `(Symbol, Oid)`.
    pub fn out_edges(&self, o: Oid) -> &[(Symbol, Oid)] {
        &self.out[o.index()]
    }

    /// The outgoing edges of `o` carrying `label`: a contiguous sub-slice
    /// of the sorted row, found by binary search.
    pub fn out_edges_labeled(&self, o: Oid, label: Symbol) -> &[(Symbol, Oid)] {
        let row = &self.out[o.index()];
        let lo = row.partition_point(|&(l, _)| l < label);
        let hi = row.partition_point(|&(l, _)| l <= label);
        &row[lo..hi]
    }

    /// Outdegree of `o`.
    pub fn outdegree(&self, o: Oid) -> usize {
        self.out[o.index()].len()
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = Oid> + '_ {
        (0..self.out.len() as u32).map(Oid)
    }

    /// Iterate over all edges as `(source, label, destination)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (Oid, Symbol, Oid)> + '_ {
        self.nodes()
            .flat_map(move |o| self.out[o.index()].iter().map(move |&(l, d)| (o, l, d)))
    }

    /// The display name of a node (falls back to `oN`).
    pub fn node_name(&self, o: Oid) -> String {
        match &self.names[o.index()] {
            Some(n) => n.clone(),
            None => format!("{o}"),
        }
    }

    /// First node carrying the given display name.
    pub fn node_by_name(&self, name: &str) -> Option<Oid> {
        self.names
            .iter()
            .position(|n| n.as_deref() == Some(name))
            .map(|i| Oid(i as u32))
    }

    /// Indegree of every node (computed on demand).
    pub fn indegrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes()];
        for (_, _, d) in self.edges() {
            deg[d.index()] += 1;
        }
        deg
    }

    /// Objects reachable from `o` by any directed path (including `o`).
    pub fn reachable_from(&self, o: Oid) -> Vec<Oid> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![o];
        seen[o.index()] = true;
        let mut out = Vec::new();
        while let Some(x) = stack.pop() {
            out.push(x);
            for &(_, t) in self.out_edges(x) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        out.sort();
        out
    }

    /// Follow a word from `o`, collecting every endpoint (set semantics).
    /// This is a reference implementation of `w(o, I)` for a single word.
    /// Dedup uses a seen-bitmap (reset between letters), so each step is
    /// linear in the edges followed rather than quadratic in the frontier.
    pub fn word_targets(&self, o: Oid, word: &[Symbol]) -> Vec<Oid> {
        let mut cur = vec![o];
        let mut seen = vec![false; self.num_nodes()];
        for &sym in word {
            let mut next: Vec<Oid> = Vec::new();
            for &x in &cur {
                for &(_, t) in self.out_edges_labeled(x, sym) {
                    if !seen[t.index()] {
                        seen[t.index()] = true;
                        next.push(t);
                    }
                }
            }
            if next.is_empty() {
                return Vec::new();
            }
            for &t in &next {
                seen[t.index()] = false;
            }
            cur = next;
        }
        cur.sort();
        cur
    }
}

/// A builder that accepts string triples, interning labels and node names.
/// Convenient for tests and examples:
///
/// ```
/// use rpq_automata::Alphabet;
/// use rpq_graph::InstanceBuilder;
///
/// let mut ab = Alphabet::new();
/// let mut b = InstanceBuilder::new(&mut ab);
/// b.edge("o1", "a", "o2");
/// b.edge("o2", "b", "o3");
/// let (inst, _) = b.finish();
/// assert_eq!(inst.num_edges(), 2);
/// ```
pub struct InstanceBuilder<'a> {
    alphabet: &'a mut Alphabet,
    instance: Instance,
    by_name: HashMap<String, Oid>,
}

impl<'a> InstanceBuilder<'a> {
    /// Start building against an alphabet.
    pub fn new(alphabet: &'a mut Alphabet) -> Self {
        InstanceBuilder {
            alphabet,
            instance: Instance::new(),
            by_name: HashMap::new(),
        }
    }

    /// Get or create the node with the given name.
    pub fn node(&mut self, name: &str) -> Oid {
        if let Some(&o) = self.by_name.get(name) {
            return o;
        }
        let o = self.instance.add_named_node(name);
        self.by_name.insert(name.to_owned(), o);
        o
    }

    /// Add the edge `Ref(from, label, to)` by names.
    pub fn edge(&mut self, from: &str, label: &str, to: &str) -> (Oid, Symbol, Oid) {
        let f = self.node(from);
        let l = self.alphabet.intern(label);
        let t = self.node(to);
        self.instance.add_edge(f, l, t);
        (f, l, t)
    }

    /// Finish, returning the instance and the name → oid map.
    pub fn finish(self) -> (Instance, HashMap<String, Oid>) {
        (self.instance, self.by_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (Alphabet, Instance, Oid) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("x", "b", "y");
        b.edge("y", "b", "x");
        let (inst, names) = b.finish();
        let s = names["s"];
        (ab, inst, s)
    }

    #[test]
    fn add_edge_dedups() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut i = Instance::new();
        let x = i.add_node();
        let y = i.add_node();
        assert!(i.add_edge(x, a, y));
        assert!(!i.add_edge(x, a, y));
        assert_eq!(i.num_edges(), 1);
        assert_eq!(i.outdegree(x), 1);
        assert_eq!(i.outdegree(y), 0);
    }

    #[test]
    fn remove_edge_and_stats_stay_in_sync() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let mut i = Instance::new();
        let x = i.add_node();
        let y = i.add_node();
        let z = i.add_node();
        i.add_edge(x, a, y);
        i.add_edge(x, a, z);
        i.add_edge(x, b, y);
        i.add_edge(y, a, z);
        assert_eq!(i.stats().edge_count(a), 3);
        assert_eq!(i.stats().source_count(a), 2);

        assert!(i.remove_edge(x, a, y));
        assert!(!i.remove_edge(x, a, y), "double remove is a no-op");
        assert_eq!(i.num_edges(), 3);
        assert_eq!(i.stats().edge_count(a), 2);
        assert_eq!(i.stats().source_count(a), 2, "x still has x -a-> z");

        assert!(i.remove_edge(x, a, z));
        assert_eq!(i.stats().source_count(a), 1, "x lost its last a-edge");
        // the incremental counters agree with a recount (also asserted by
        // CsrGraph::from in debug builds)
        let csr = crate::CsrGraph::from(&i);
        assert!(csr.stats().agrees_with(i.stats()));
    }

    #[test]
    fn normalize_recounts_stats() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut i = Instance::new();
        let x = i.add_node();
        let y = i.add_node();
        i.add_edge(x, a, y);
        i.normalize();
        assert_eq!(i.stats().edge_count(a), 1);
        assert_eq!(i.num_edges(), 1);
    }

    #[test]
    fn reachability() {
        let (_, inst, s) = chain();
        let r = inst.reachable_from(s);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn word_targets_follows_labels() {
        let (ab, inst, s) = chain();
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let x = inst.node_by_name("x").unwrap();
        let y = inst.node_by_name("y").unwrap();
        assert_eq!(inst.word_targets(s, &[a]), vec![x]);
        assert_eq!(inst.word_targets(s, &[a, b]), vec![y]);
        assert_eq!(inst.word_targets(s, &[a, b, b]), vec![x]);
        assert!(inst.word_targets(s, &[b]).is_empty());
        assert_eq!(inst.word_targets(s, &[]), vec![s]);
    }

    #[test]
    fn indegrees_count_incoming() {
        let (_, inst, s) = chain();
        let deg = inst.indegrees();
        let x = inst.node_by_name("x").unwrap();
        assert_eq!(deg[s.index()], 0);
        assert_eq!(deg[x.index()], 2); // from s and from y
    }

    #[test]
    fn names_resolve() {
        let (_, inst, s) = chain();
        assert_eq!(inst.node_name(s), "s");
        assert_eq!(inst.node_by_name("nope"), None);
        let mut i2 = Instance::new();
        let anon = i2.add_node();
        assert_eq!(i2.node_name(anon), "o0");
    }

    #[test]
    fn edges_iterator_matches_count() {
        let (_, inst, _) = chain();
        assert_eq!(inst.edges().count(), inst.num_edges());
    }
}
