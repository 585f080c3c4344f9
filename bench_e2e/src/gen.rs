//! Seeded inputs: the graph, the constraint set, and the region layout the
//! schedules draw from.
//!
//! Everything random is a *permutation*: each label contributes a fixed
//! out- and in-degree to every node of the regions that carry it, and only
//! which node points where depends on the seed. Closures therefore scan the
//! same number of edges on every seed, navigations over the functional
//! labels scan exactly one edge per step, and the timing metrics of two
//! seeds differ by memory layout only — which is what lets the benchmark
//! hold a 1 % bound on `edges_per_op` and a 10 % bound on latency across
//! seeds.

use rpq_automata::{Alphabet, Symbol};
use rpq_constraints::ConstraintSet;
use rpq_graph::{CsrGraph, Instance, Oid};

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// A derived, independent stream (so adding draws to one consumer does
    /// not shift another's inputs).
    pub fn fork(&self, tag: u64) -> Rng {
        Rng::new(self.0 ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

/// A contiguous block of node ids closed under every label it carries.
#[derive(Copy, Clone, Debug)]
pub struct Region {
    pub lo: u32,
    pub n: u32,
}

impl Region {
    pub fn node(&self, i: usize) -> Oid {
        Oid(self.lo + (i % self.n as usize) as u32)
    }

    pub fn pick(&self, rng: &mut Rng) -> Oid {
        self.node(rng.below(self.n as usize))
    }
}

/// Functional labels on the navigation region (`f0..f5`).
pub const NAV_LABELS: usize = 6;
/// Nodes of the navigation region.
pub const NAV_NODES: u32 = 1 << 16;
/// Nodes of the region the conjunctive queries run on. Small, because the
/// `execute_naive` oracle evaluates every atom with both ends free.
pub const JOIN_NODES: u32 = 1 << 12;
/// Mini link regions: one `r*` closure scans 192 edges, so a 64-source or
/// 64-target request (one node per region) is a few hundred microseconds.
pub const MINI: (usize, u32) = (64, 64);
/// Tiny link regions: matrix rows and columns (one region per row).
pub const TINY: (usize, u32) = (16, 256);
/// Small link regions: single closures and pairs. Every level of a closure
/// here stays far below `PAR_LEVEL_THRESHOLD` (peak level ≈ 0.45 × 3 × n
/// ≈ 2.8 k edges), so these run the sequential kernel.
pub const SMALL: (usize, u32) = (8, 2048);
/// The wide ladder: four sizes, ×1.5 apart. The smallest is the smallest
/// closure whose peak level (≈ 0.45 × 3 × n ≈ 22 k edges) clears
/// `PAR_LEVEL_THRESHOLD` = 16384 with a margin; at ~55 ns per edge it
/// already costs ~3 ms, which is why the ladder does not go ×2.
pub const WIDE: [u32; 4] = [16384, 24576, 36864, 55296];
/// Out- and in-degree of label `r` on every link-region node.
pub const R_DEGREE: usize = 3;

/// The symbols the schedule generators need.
#[derive(Clone, Debug)]
pub struct Labels {
    /// `f0..f5`, indexed by *role*: the seed permutes which name plays
    /// which role, so `f[0]` is "role a", not necessarily the name `f0`.
    pub f: [Symbol; NAV_LABELS],
    /// The link label of the closure regions.
    pub r: Symbol,
}

/// The generated world: what the program under test is given, plus the
/// layout the schedule generators need.
pub struct World {
    pub seed: u64,
    pub alphabet: Alphabet,
    pub labels: Labels,
    pub num_nodes: usize,
    /// The edge list, in generation order (label by label).
    pub edges: Vec<(u32, Symbol, u32)>,
    /// Constraint lines as text, e.g. `c0 = f3.f1`.
    pub constraint_lines: Vec<String>,
    pub nav: Region,
    pub join: Region,
    pub mini: Vec<Region>,
    pub tiny: Vec<Region>,
    pub small: Vec<Region>,
    pub wide: Vec<Region>,
}

/// A random permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut p);
    p
}

/// `degree` permutations of `0..n` no two of which agree anywhere, so that
/// their union is a simple digraph with out- and in-degree exactly
/// `degree`. Conflicts (expected `degree²/2` of them) are repaired by
/// swapping the offending image with a random other position.
fn disjoint_permutations(rng: &mut Rng, n: usize, degree: usize) -> Vec<Vec<u32>> {
    let mut perms: Vec<Vec<u32>> = Vec::with_capacity(degree);
    for _ in 0..degree {
        let mut p = permutation(rng, n);
        let clash = |p: &[u32], i: usize| perms.iter().any(|q| q[i] == p[i]);
        for i in 0..n {
            while clash(&p, i) {
                let j = rng.below(n);
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

impl World {
    pub fn generate(seed: u64) -> World {
        let root = Rng::new(seed);
        let mut names: Vec<String> = (0..NAV_LABELS).map(|i| format!("f{i}")).collect();
        names.extend((0..3).map(|i| format!("c{i}")));
        names.extend(["r", "p", "q", "t"].map(String::from));
        let alphabet = Alphabet::from_names(names.iter());
        let sym = |name: &str| alphabet.get(name).expect("label interned above");

        // Which name plays which role is the seed's choice: the constraint
        // set and every query text differ between seeds, their shapes do not.
        let mut roles: Vec<usize> = (0..NAV_LABELS).collect();
        root.fork(1).shuffle(&mut roles);
        let f: [Symbol; NAV_LABELS] = std::array::from_fn(|i| sym(&format!("f{}", roles[i])));
        // Cache labels: `c0 = a.b`, `c1 = c.d`, `c2 ⊆ b.c` (roles).
        let caches: [Symbol; 3] = std::array::from_fn(|i| sym(&format!("c{i}")));
        let labels = Labels { f, r: sym("r") };
        let fname = |role: usize| format!("f{}", roles[role]);
        let constraint_lines = vec![
            format!("c0 = {}.{}", fname(0), fname(1)),
            format!("c1 = {}.{}", fname(2), fname(3)),
            format!("c2 <= {}.{}", fname(1), fname(2)),
        ];

        // Node layout: regions back to back.
        let mut next = 0u32;
        let mut region = |n: u32| {
            let r = Region { lo: next, n };
            next += n;
            r
        };
        let nav = region(NAV_NODES);
        let join = region(JOIN_NODES);
        let mini: Vec<Region> = (0..MINI.0).map(|_| region(MINI.1)).collect();
        let tiny: Vec<Region> = (0..TINY.0).map(|_| region(TINY.1)).collect();
        let small: Vec<Region> = (0..SMALL.0).map(|_| region(SMALL.1)).collect();
        let wide: Vec<Region> = WIDE.iter().map(|&n| region(n)).collect();
        let num_nodes = next as usize;

        let mut edges: Vec<(u32, Symbol, u32)> = Vec::new();
        let mut rng = root.fork(2);
        let mut link = |edges: &mut Vec<_>, reg: &Region, label: Symbol, degree: usize| {
            for p in disjoint_permutations(&mut rng, reg.n as usize, degree) {
                edges.extend((0..reg.n).map(|i| (reg.lo + i, label, reg.lo + p[i as usize])));
            }
        };

        // Navigation region: six functional labels, and the three cached
        // compositions the constraints describe — so the constraints hold at
        // every node by construction.
        let mut frng = root.fork(3);
        let fperm: Vec<Vec<u32>> = (0..NAV_LABELS)
            .map(|_| permutation(&mut frng, nav.n as usize))
            .collect();
        for (role, p) in fperm.iter().enumerate() {
            edges.extend((0..nav.n).map(|i| (nav.lo + i, labels.f[role], nav.lo + p[i as usize])));
        }
        for (ci, (x, y)) in [(0usize, 1usize), (2, 3), (1, 2)].into_iter().enumerate() {
            edges.extend((0..nav.n).map(|i| {
                let mid = fperm[x][i as usize];
                (nav.lo + i, caches[ci], nav.lo + fperm[y][mid as usize])
            }));
        }

        link(&mut edges, &join, sym("p"), 3);
        link(&mut edges, &join, sym("q"), 2);
        link(&mut edges, &join, sym("t"), 1);
        for reg in mini.iter().chain(&tiny).chain(&small).chain(&wide) {
            link(&mut edges, reg, labels.r, R_DEGREE);
        }

        World {
            seed,
            alphabet,
            labels,
            num_nodes,
            edges,
            constraint_lines,
            nav,
            join,
            mini,
            tiny,
            small,
            wide,
        }
    }

    /// The mutable build-time form of the edge list.
    pub fn instance(&self) -> Instance {
        let mut inst = Instance::new();
        for _ in 0..self.num_nodes {
            inst.add_node();
        }
        for &(from, label, to) in &self.edges {
            inst.add_edge(Oid(from), label, Oid(to));
        }
        inst
    }

    /// Edge list → `Instance` → `CsrGraph`: the cold build of the data.
    pub fn csr(&self) -> CsrGraph {
        CsrGraph::from(&self.instance())
    }

    pub fn constraints(&self) -> ConstraintSet {
        let mut ab = self.alphabet.clone();
        ConstraintSet::parse(&mut ab, self.constraint_lines.iter().map(String::as_str))
            .expect("generated constraint lines parse")
    }
}
