//! Shared workloads for the experiment harness.
//!
//! Every bench target (`benches/t*.rs`) draws its inputs from here so
//! that `cargo bench` and the `paper-figures` binary agree on what is
//! being measured. All generation is seeded — rerunning reproduces the same
//! graphs, queries, and constraint systems.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use rpq_automata::{parse_regex, Alphabet, Regex, Symbol};
use rpq_constraints::{ConstraintKind, ConstraintSet, PathConstraint};
use rpq_graph::{EdgeDelta, Instance, Oid};
use rpq_testkit::generators::web_graph;

/// A web-like evaluation workload: graph, source, and a query suite over
/// labels `l0..l2`.
pub struct EvalWorkload {
    /// Shared alphabet.
    pub alphabet: Alphabet,
    /// The instance.
    pub instance: Instance,
    /// Evaluation source.
    pub source: Oid,
    /// Named queries.
    pub queries: Vec<(&'static str, Regex)>,
}

/// Build the T1 workload with roughly `nodes` nodes.
pub fn eval_workload(seed: u64, nodes: usize) -> EvalWorkload {
    let mut alphabet = Alphabet::new();
    let labels: Vec<Symbol> = (0..3).map(|i| alphabet.intern(&format!("l{i}"))).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (instance, source) = web_graph(&mut rng, nodes, 3, &labels);
    let queries = [
        ("chain", "l0.l1.l2"),
        ("star", "l0.(l1+l2)*"),
        ("nested", "(l0.l1)*.l2"),
        ("broad", "(l0+l1+l2)*"),
    ]
    .into_iter()
    .map(|(name, src)| (name, parse_regex(&mut alphabet, src).unwrap()))
    .collect();
    EvalWorkload {
        alphabet,
        instance,
        source,
        queries,
    }
}

/// A label-skewed evaluation workload: a spine of rare `cold`-labeled
/// edges where every spine node also fans out `hot_fanout` edges on one
/// hot label. The query `cold*` walks the spine only, so a label-indexed
/// engine touches `O(depth)` edges while a scan-and-filter engine pays the
/// hot fanout at every step — the T1 skew experiment.
pub struct SkewedWorkload {
    /// Shared alphabet.
    pub alphabet: Alphabet,
    /// The instance (build form; snapshot with `CsrGraph::from`).
    pub instance: Instance,
    /// Evaluation source (spine head).
    pub source: Oid,
    /// The spine query `cold*`.
    pub query: Regex,
}

/// Build the skewed workload: `depth` spine nodes, each with `hot_fanout`
/// hot edges into a shared target pool (shared so the node count — and
/// with it the engines' per-run allocation — stays small; the skew lives
/// in the *edges*, which is what the label index prunes).
pub fn skewed_workload(depth: usize, hot_fanout: usize) -> SkewedWorkload {
    let mut alphabet = Alphabet::new();
    let cold = alphabet.intern("cold");
    let hot = alphabet.intern("hot");
    let mut instance = Instance::new();
    let mut spine: Vec<Oid> = (0..=depth).map(|_| instance.add_node()).collect();
    let pool: Vec<Oid> = (0..hot_fanout).map(|_| instance.add_node()).collect();
    for i in 0..depth {
        instance.add_edge(spine[i], cold, spine[i + 1]);
        for &target in &pool {
            instance.add_edge(spine[i], hot, target);
        }
    }
    let source = spine.remove(0);
    let query = parse_regex(&mut alphabet, "cold*").unwrap();
    SkewedWorkload {
        alphabet,
        instance,
        source,
        query,
    }
}

/// A multi-source, shared-prefix evaluation workload: `n_sources` entry
/// nodes each hold one `cold` edge into the head of a shared spine (plus
/// `hot_fanout` hot-label noise edges, keeping the label skew), so every
/// source's search funnels into the same suffix. The query `cold*` walks
/// entry + spine, so a `Sources` request — one search per source —
/// re-walks the spine once per source (`O(n_sources × depth)` edge scans)
/// — the T1 multi-source experiment.
pub struct MultiSourceWorkload {
    /// Shared alphabet.
    pub alphabet: Alphabet,
    /// The instance (build form; snapshot with `CsrGraph::from`).
    pub instance: Instance,
    /// The batch of evaluation sources (the entry nodes).
    pub sources: Vec<Oid>,
    /// The spine query `cold*`.
    pub query: Regex,
}

/// Build the multi-source shared-prefix workload: `n_sources` entries ×
/// one shared spine of `depth` cold edges, `hot_fanout` hot edges per
/// entry and per spine node into a shared target pool.
pub fn multi_source_workload(
    depth: usize,
    hot_fanout: usize,
    n_sources: usize,
) -> MultiSourceWorkload {
    let mut alphabet = Alphabet::new();
    let cold = alphabet.intern("cold");
    let hot = alphabet.intern("hot");
    let mut instance = Instance::new();
    let spine: Vec<Oid> = (0..=depth).map(|_| instance.add_node()).collect();
    let pool: Vec<Oid> = (0..hot_fanout).map(|_| instance.add_node()).collect();
    let sources: Vec<Oid> = (0..n_sources).map(|_| instance.add_node()).collect();
    for i in 0..depth {
        instance.add_edge(spine[i], cold, spine[i + 1]);
        for &target in &pool {
            instance.add_edge(spine[i], hot, target);
        }
    }
    for &entry in &sources {
        instance.add_edge(entry, cold, spine[0]);
        for &target in &pool {
            instance.add_edge(entry, hot, target);
        }
    }
    let query = parse_regex(&mut alphabet, "cold*").unwrap();
    MultiSourceWorkload {
        alphabet,
        instance,
        sources,
        query,
    }
}

/// A direction-skewed pair workload (T12): the chain query
/// `hot.hot.cold` from `source` to `target` over a graph whose *first*
/// label group is plentiful (`source` fans out `fanout` hot edges, each
/// hot target fans on once more) while the *last* label group is a single
/// cold edge into `target`. A forward search pays ~`2·fanout` edge scans
/// before reaching the cold step; the backward search enters through the
/// one cold edge and walks ~3 edges total — the direction planner must
/// pick backward here, and win by ~`fanout/1.5`×.
pub struct DirectionWorkload {
    /// Shared alphabet.
    pub alphabet: Alphabet,
    /// The instance (build form; snapshot with `CsrGraph::from`).
    pub instance: Instance,
    /// Pair-query source (the hot fan root).
    pub source: Oid,
    /// Pair-query target (the cold sink).
    pub target: Oid,
    /// The chain query `hot.hot.cold`.
    pub query: Regex,
}

/// Build the T12 direction-skew workload with the given hot fanout.
pub fn direction_workload(fanout: usize) -> DirectionWorkload {
    let mut alphabet = Alphabet::new();
    let hot = alphabet.intern("hot");
    let cold = alphabet.intern("cold");
    let mut instance = Instance::new();
    let source = instance.add_node();
    let firsts: Vec<Oid> = (0..fanout).map(|_| instance.add_node()).collect();
    let seconds: Vec<Oid> = (0..fanout).map(|_| instance.add_node()).collect();
    let target = instance.add_node();
    for i in 0..fanout {
        instance.add_edge(source, hot, firsts[i]);
        instance.add_edge(firsts[i], hot, seconds[i]);
    }
    instance.add_edge(seconds[0], cold, target);
    let query = parse_regex(&mut alphabet, "hot.hot.cold").unwrap();
    DirectionWorkload {
        alphabet,
        instance,
        source,
        target,
        query,
    }
}

/// An incremental-update workload (T13): a web-like base graph plus a
/// small [`EdgeDelta`] batch over its existing nodes. The comparison under
/// test: absorbing the batch through a `rpq_graph::DeltaGraph` overlay
/// (`O(batch)` sorted-log patches) versus the full `CsrGraph::from`
/// rebuild (`O(V + E)` re-sort) the seed architecture paid per mutation.
pub struct IncrementalWorkload {
    /// Shared alphabet.
    pub alphabet: Alphabet,
    /// The base instance (snapshot with `CsrGraph::from` or wrap in a
    /// `DeltaGraph`).
    pub instance: Instance,
    /// The small mutation batch (adds and deletes over existing nodes).
    pub delta: EdgeDelta,
    /// Evaluation source for the post-delta query checks.
    pub source: Oid,
    /// The evaluation query `l0.(l1+l2)*`.
    pub query: Regex,
}

/// Build the T13 workload: a seeded `web_graph` with roughly `3 × nodes`
/// edges and a delta of `batch` adds plus `batch / 2` deletes drawn over
/// the same node set (deterministic from the sizes).
pub fn incremental_workload(nodes: usize, batch: usize) -> IncrementalWorkload {
    use rand::Rng as _;
    let mut alphabet = Alphabet::new();
    let labels: Vec<Symbol> = (0..3).map(|i| alphabet.intern(&format!("l{i}"))).collect();
    let mut rng = StdRng::seed_from_u64(nodes as u64 ^ 0x7d13);
    let (instance, source) = web_graph(&mut rng, nodes, 3, &labels);

    let mut delta = EdgeDelta::new();
    let existing: Vec<(Oid, Symbol, Oid)> = instance.edges().collect();
    for _ in 0..batch / 2 {
        let (f, l, t) = existing[rng.random_range(0..existing.len())];
        delta.del(f, l, t);
    }
    let n = instance.num_nodes() as u32;
    for _ in 0..batch {
        let f = Oid(rng.random_range(0..n));
        let t = Oid(rng.random_range(0..n));
        let l = labels[rng.random_range(0..labels.len())];
        delta.add(f, l, t);
    }
    let query = parse_regex(&mut alphabet, "l0.(l1+l2)*").unwrap();
    IncrementalWorkload {
        alphabet,
        instance,
        delta,
        source,
        query,
    }
}

/// A word-constraint system of `n_rules` rules over `sigma` letters with
/// words of length ≤ `max_len` (T2): deterministic from the seed, always
/// free of derived-emptiness degeneracies (right-hand sides are non-empty).
pub fn word_system(
    seed: u64,
    sigma: usize,
    n_rules: usize,
    max_len: usize,
) -> (Alphabet, ConstraintSet) {
    use rand::Rng as _;
    let mut alphabet = Alphabet::new();
    let syms: Vec<Symbol> = (0..sigma)
        .map(|i| alphabet.intern(&format!("w{i}")))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut constraints = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        let lu = rng.random_range(1..=max_len);
        let lv = rng.random_range(1..=max_len);
        let u: Vec<Symbol> = (0..lu).map(|_| syms[rng.random_range(0..sigma)]).collect();
        let v: Vec<Symbol> = (0..lv).map(|_| syms[rng.random_range(0..sigma)]).collect();
        constraints.push(PathConstraint {
            lhs: Regex::word(&u),
            rhs: Regex::word(&v),
            kind: if rng.random_range(0..2) == 0 {
                ConstraintKind::Inclusion
            } else {
                ConstraintKind::Equality
            },
        });
    }
    (alphabet, ConstraintSet::from_constraints(constraints))
}

/// The T3 regex family: nested alternation/star towers of the given depth
/// whose inclusion checks exercise determinization.
pub fn regex_pair(alphabet: &mut Alphabet, depth: usize) -> (Regex, Regex) {
    // p_d = (a.b)^d . (a+b)*   and   q_d = (a.(b+()))^d . (a+b)*
    let mut p = String::new();
    let mut q = String::new();
    for _ in 0..depth {
        p.push_str("a.b.");
        q.push_str("a.(b+()).");
    }
    p.push_str("(a+b)*");
    q.push_str("(a+b)*");
    (
        parse_regex(alphabet, &p).unwrap(),
        parse_regex(alphabet, &q).unwrap(),
    )
}

/// The T4 equality systems: name, equalities, query, and whether the query
/// is bounded under them (Theorem 4.10's verdict). The last two are sets
/// whose K-sphere passes 200 000 nodes before it can decide.
pub fn boundedness_systems() -> Vec<(&'static str, Vec<&'static str>, &'static str, bool)> {
    vec![
        ("idempotent", vec!["a.a = a"], "a*", true),
        ("cycle3", vec!["a.a.a = ()"], "a*", true),
        ("commute", vec!["a.b = b.a"], "(a.b)*", false),
        ("absorb", vec!["b.a = a", "b.b = b"], "b*.a", true),
        ("mixed", vec!["a.b.a = b", "b.b = a.a"], "(a+b).(a+b)", true),
        ("caches", vec!["c0 = a.b", "c1 = c.d"], "a.b.e", true),
        (
            "commute3",
            vec!["x.y = y.x", "x.z = z.x", "y.z = z.y"],
            "x*",
            false,
        ),
    ]
}

/// T5: a cached-site distributed workload: the query `(a.b)*` cached as `l`
/// on a deep alternating backbone with trap branches; returns everything a
/// bench needs to run plain vs optimized.
pub struct DistributedWorkload {
    /// Shared alphabet.
    pub alphabet: Alphabet,
    /// The site graph.
    pub instance: Instance,
    /// Query source (where the cache constraint holds).
    pub source: Oid,
    /// The recursive query.
    pub query: Regex,
    /// The constraints holding at the source.
    pub constraints: ConstraintSet,
}

/// Build the T5 workload with a backbone of `depth` a·b segments.
pub fn distributed_workload(depth: usize) -> DistributedWorkload {
    let mut alphabet = Alphabet::new();
    let a = alphabet.intern("a");
    let b = alphabet.intern("b");
    let l = alphabet.intern("l");
    let mut instance = Instance::new();
    let v0 = instance.add_named_node("v0");
    let mut prev = v0;
    let mut evens = vec![v0];
    for i in 1..=2 * depth {
        let v = instance.add_named_node(&format!("v{i}"));
        instance.add_edge(prev, if i % 2 == 1 { a } else { b }, v);
        if i % 2 == 0 {
            evens.push(v);
            let trap = instance.add_node();
            instance.add_edge(v, a, trap);
        }
        prev = v;
    }
    for &e in &evens {
        instance.add_edge(v0, l, e);
    }
    let query = parse_regex(&mut alphabet, "(a.b)*").unwrap();
    let constraints = ConstraintSet::parse(&mut alphabet, ["l = (a.b)*"]).unwrap();
    DistributedWorkload {
        alphabet,
        instance,
        source: v0,
        query,
        constraints,
    }
}

/// The `plan-cold` shape of `bench_e2e` as a microbench input (T14's
/// `cold_plan` series): its 13-label alphabet, its constraint shape
/// `{c0 = f0.f1, c1 = f2.f3, c2 ⊆ f1.f2}` and its 396 texts, split by what
/// a cold plan of each has to do.
pub struct ColdPlanWorkload {
    /// `f0..f5`, `c0..c2`, `r`, `p`, `q`, `t`.
    pub alphabet: Alphabet,
    /// A graph on which every `f` and `c` label has edges and the three
    /// constraints hold at every node.
    pub instance: Instance,
    /// Two word caches and one inclusion.
    pub constraints: ConstraintSet,
    /// The 204 `x.y.z` words no cache body prefixes: nothing to find.
    pub uncached: Vec<Regex>,
    /// The 22 texts headed by `f0.f1` or `f2.f3`: a certified rewrite.
    pub cached: Vec<Regex>,
    /// The 170 `x.y.(z+w)` texts no cache body prefixes: not a word, so
    /// the simplifier has to look.
    pub union_tail: Vec<Regex>,
}

/// Build the T14 cold-plan workload.
pub fn cold_plan_workload() -> ColdPlanWorkload {
    let mut names: Vec<String> = (0..6).map(|i| format!("f{i}")).collect();
    names.extend((0..3).map(|i| format!("c{i}")));
    names.extend(["r", "p", "q", "t"].map(String::from));
    let mut alphabet = Alphabet::from_names(names.iter());
    let constraints =
        ConstraintSet::parse(&mut alphabet, ["c0 = f0.f1", "c1 = f2.f3", "c2 <= f1.f2"]).unwrap();
    let sym = |name: String| alphabet.get(&name).expect("interned above");
    let f: Vec<Symbol> = (0..6).map(|i| sym(format!("f{i}"))).collect();
    // Six functional labels on a ring of 16 nodes (label i advances by
    // i + 1), and the three compositions the constraints describe.
    const RING: u32 = 16;
    let mut instance = Instance::new();
    let nodes: Vec<Oid> = (0..RING).map(|_| instance.add_node()).collect();
    let hop = |from: u32, by: usize| nodes[((from + by as u32) % RING) as usize];
    for v in 0..RING {
        for (i, &label) in f.iter().enumerate() {
            instance.add_edge(nodes[v as usize], label, hop(v, i + 1));
        }
        for (ci, (x, y)) in [(0usize, 1usize), (2, 3), (1, 2)].into_iter().enumerate() {
            instance.add_edge(nodes[v as usize], sym(format!("c{ci}")), hop(v, x + y + 2));
        }
    }
    let (mut uncached, mut cached, mut union_tail) = (Vec::new(), Vec::new(), Vec::new());
    for x in 0..6 {
        for y in 0..6 {
            let hit = (x, y) == (0, 1) || (x, y) == (2, 3);
            let head = Regex::sym(f[x]).then(Regex::sym(f[y]));
            for &z in &f {
                let q = head.clone().then(Regex::sym(z));
                if hit { &mut cached } else { &mut uncached }.push(q);
            }
            for (z, w) in [(0, 4), (1, 5), (2, 4), (3, 5), (4, 5)] {
                let q = head.clone().then(Regex::sym(f[z]).or(Regex::sym(f[w])));
                if hit { &mut cached } else { &mut union_tail }.push(q);
            }
        }
    }
    ColdPlanWorkload {
        alphabet,
        instance,
        constraints,
        uncached,
        cached,
        union_tail,
    }
}

/// A join-order-skewed conjunctive workload (T17). `n_src` source nodes
/// each fan out on `hot` across `spread` hub nodes, but only hub 0
/// continues on `rare` to a single sink. For the CRPQ
/// `ans(x, z) :- x -[hot]-> y, y -[rare]-> z` the cost-based planner
/// must pick the rare atom first (one edge, binds `y = hub0`) and then
/// run the hot atom *backward* from the bound hub — scanning `n_src + 1`
/// edges total — while the worst static order (hot atom first, unbound)
/// scans all `n_src × spread` hot edges before the join prunes anything.
pub struct CrpqWorkload {
    /// Shared alphabet (`hot`, `rare`).
    pub alphabet: Alphabet,
    /// The instance (snapshot with `CsrGraph::from`).
    pub instance: Instance,
    /// The conjunctive query text (parse with `rpq_optimizer::parse_crpq`
    /// against [`CrpqWorkload::alphabet`]).
    pub text: &'static str,
    /// Total `hot` edges (`n_src × spread`) — the worst order's scan bill.
    pub hot_edges: usize,
    /// Expected answer count (`n_src`: every source reaches the sink via
    /// hub 0).
    pub answers: usize,
}

/// Build the T17 workload with `n_src` sources fanning over `spread` hubs.
pub fn crpq_workload(n_src: usize, spread: usize) -> CrpqWorkload {
    let mut alphabet = Alphabet::new();
    let hot = alphabet.intern("hot");
    let rare = alphabet.intern("rare");
    let mut instance = Instance::new();
    let hubs: Vec<Oid> = (0..spread).map(|_| instance.add_node()).collect();
    for _ in 0..n_src {
        let s = instance.add_node();
        for &h in &hubs {
            instance.add_edge(s, hot, h);
        }
    }
    let sink = instance.add_node();
    instance.add_edge(hubs[0], rare, sink);
    CrpqWorkload {
        alphabet,
        instance,
        text: "ans(x, z) :- x -[hot]-> y, y -[rare]-> z",
        hot_edges: n_src * spread,
        answers: n_src,
    }
}

/// The conjunctive op of `bench_e2e`'s `kernel-scan` workload, alone:
/// `ans(x,z) :- x -[p.p]-> y, y -[q+t]-> w, w -[p]-> z` from bound
/// sources, over a region whose labels `p`, `q` and `t` are unions of 3, 2
/// and 1 disjoint random permutations (out- and in-degree 3 / 2 / 1 at
/// every node, as `bench_e2e/src/gen.rs` builds its join region).
pub struct ServedChainWorkload {
    /// Shared alphabet (`p`, `q`, `t`).
    pub alphabet: Alphabet,
    /// The instance (snapshot with `CsrGraph::from`).
    pub instance: Instance,
    /// The conjunctive query text.
    pub text: &'static str,
    /// One head-source set per op.
    pub source_sets: Vec<Vec<Oid>>,
}

/// Build the served-chain workload: `nodes` nodes and `ops` sets of
/// `sources` random head sources each, seeded.
pub fn served_chain_workload(
    seed: u64,
    nodes: usize,
    ops: usize,
    sources: usize,
) -> ServedChainWorkload {
    let mut alphabet = Alphabet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut instance = Instance::new();
    let region: Vec<Oid> = (0..nodes).map(|_| instance.add_node()).collect();
    for (name, degree) in [("p", 3), ("q", 2), ("t", 1)] {
        let label = alphabet.intern(name);
        for perm in disjoint_permutations(&mut rng, nodes, degree) {
            for (i, &j) in perm.iter().enumerate() {
                instance.add_edge(region[i], label, region[j]);
            }
        }
    }
    let source_sets = (0..ops)
        .map(|_| {
            (0..sources)
                .map(|_| region[rng.random_range(0..nodes)])
                .collect()
        })
        .collect();
    ServedChainWorkload {
        alphabet,
        instance,
        text: "ans(x,z) :- x -[p.p]-> y, y -[q+t]-> w, w -[p]-> z",
        source_sets,
    }
}

/// `degree` permutations of `0..n` no two of which agree anywhere, so
/// that their union is a simple digraph with out- and in-degree exactly
/// `degree`; a clash is repaired by swapping the offending image with a
/// random other position.
fn disjoint_permutations(rng: &mut StdRng, n: usize, degree: usize) -> Vec<Vec<usize>> {
    let mut perms: Vec<Vec<usize>> = Vec::with_capacity(degree);
    for _ in 0..degree {
        let mut p: Vec<usize> = (0..n).collect();
        p.shuffle(rng);
        let clash = |p: &[usize], i: usize| perms.iter().any(|q| q[i] == p[i]);
        for i in 0..n {
            while clash(&p, i) {
                let j = rng.random_range(0..n);
                p.swap(i, j);
                if clash(&p, j) {
                    p.swap(i, j);
                }
            }
        }
        perms.push(p);
    }
    perms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let w1 = eval_workload(3, 50);
        let w2 = eval_workload(3, 50);
        assert_eq!(w1.instance.num_edges(), w2.instance.num_edges());
        assert_eq!(w1.queries.len(), 4);
    }

    #[test]
    fn skewed_workload_shape() {
        let w = skewed_workload(16, 32);
        assert_eq!(w.instance.num_edges(), 16 * 33);
        let csr = rpq_graph::CsrGraph::from(&w.instance);
        let hot = w.alphabet.get("hot").unwrap();
        let cold = w.alphabet.get("cold").unwrap();
        assert_eq!(csr.stats().edge_count(hot), 16 * 32);
        assert_eq!(csr.stats().edge_count(cold), 16);
        assert_eq!(csr.stats().hottest(), Some(hot));
    }

    #[test]
    fn direction_workload_is_backward_skewed() {
        let w = direction_workload(32);
        let csr = rpq_graph::CsrGraph::from(&w.instance);
        let hot = w.alphabet.get("hot").unwrap();
        let cold = w.alphabet.get("cold").unwrap();
        assert_eq!(csr.stats().edge_count(hot), 64);
        assert_eq!(csr.stats().edge_count(cold), 1);
        let res =
            rpq_core::eval_product_csr(&rpq_automata::Nfa::thompson(&w.query), &csr, w.source);
        assert_eq!(res.answers, vec![w.target]);
    }

    #[test]
    fn incremental_workload_delta_touches_existing_nodes() {
        let w = incremental_workload(256, 16);
        assert_eq!(w.delta.adds.len(), 16);
        assert_eq!(w.delta.dels.len(), 8);
        let n = w.instance.num_nodes() as u32;
        for &(f, _, t) in w.delta.adds.iter().chain(&w.delta.dels) {
            assert!(f.0 < n && t.0 < n);
        }
        // the batch is a tiny fraction of the base
        assert!(w.delta.len() * 20 < w.instance.num_edges());
    }

    #[test]
    fn word_system_shape() {
        let (_, set) = word_system(1, 3, 8, 4);
        assert!(set.all_word_constraints());
        assert!(set.len() >= 8);
    }

    #[test]
    fn regex_pair_inclusion_direction() {
        let mut ab = Alphabet::new();
        let (p, q) = regex_pair(&mut ab, 3);
        // p ⊆ q by construction (b vs b+ε)
        assert!(rpq_automata::ops::regex_included(&p, &q));
        assert!(!rpq_automata::ops::regex_included(&q, &p));
    }

    #[test]
    fn crpq_workload_shape() {
        let w = crpq_workload(8, 4);
        assert_eq!(w.hot_edges, 32);
        assert_eq!(w.answers, 8);
        // hot fan-out plus the single rare bottleneck edge
        assert_eq!(w.instance.num_edges(), 33);
        assert!(w.text.contains(":-"));
    }

    #[test]
    fn cold_plan_workload_shape() {
        let w = cold_plan_workload();
        assert_eq!(w.alphabet.len(), 13);
        assert_eq!(
            (w.uncached.len(), w.cached.len(), w.union_tail.len()),
            (204, 22, 170)
        );
        assert!(w.uncached.iter().all(|q| q.as_word().is_some()));
        assert!(w.union_tail.iter().all(|q| q.as_word().is_none()));
        for v in w.instance.nodes() {
            assert!(w.constraints.holds_at(&w.instance, v));
        }
    }

    #[test]
    fn distributed_workload_constraint_holds() {
        let w = distributed_workload(8);
        assert!(w.constraints.holds_at(&w.instance, w.source));
    }
}
