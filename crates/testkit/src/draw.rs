//! The inputs several integration tests draw, each kept once.

use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq_automata::{Alphabet, Regex, Symbol};
use rpq_constraints::{ConstraintKind, ConstraintSet, PathConstraint};
use rpq_core::{Engine, OracleEngine, ProductEngine, Query};
use rpq_datalog::{DatalogMagicEngine, DatalogNaiveEngine, DatalogSeminaiveEngine};
use rpq_distributed::SimulatorEngine;
use rpq_graph::{Instance, Oid};
use rpq_optimizer::{Crpq, CrpqAtom, Var};
use rpq_paper::{DerivativeEngine, QuotientDfaEngine, StreamingEngine};

use crate::generators::random_graph;
use crate::random::{random_regex, RegexGenConfig};

/// A seeded `random_graph` over `a b c` with `nodes` nodes and `edges`
/// edges, and a random regex over the same labels of at most `max_depth`
/// (the generator's default is 4).
pub fn random_setup(
    seed: u64,
    nodes: usize,
    edges: usize,
    max_depth: usize,
) -> (Alphabet, Instance, Oid, Regex) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (inst, src) = random_graph(&mut rng, nodes, edges, &syms);
    let mut cfg = RegexGenConfig::new(syms);
    cfg.max_depth = max_depth;
    let q = random_regex(&mut rng, &cfg);
    (ab, inst, src, q)
}

/// The nine evaluation paths behind the unified `Engine` trait: product,
/// quotient-DFA, derivative, oracle, streaming, Datalog naive/semi-naive/
/// magic, and the distributed simulator.
pub fn nine_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ProductEngine),
        Box::new(QuotientDfaEngine),
        Box::new(DerivativeEngine),
        Box::new(OracleEngine {
            max_word_len: Some(9),
        }),
        Box::new(StreamingEngine::default()),
        Box::new(DatalogNaiveEngine),
        Box::new(DatalogSeminaiveEngine),
        Box::new(DatalogMagicEngine),
        Box::new(SimulatorEngine::default()),
    ]
}

/// A uniformly random word over `syms` of length `1..=max_len`.
pub fn random_word_up_to(rng: &mut StdRng, syms: &[Symbol], max_len: usize) -> Vec<Symbol> {
    (0..rng.random_range(1..=max_len))
        .map(|_| syms[rng.random_range(0..syms.len())])
        .collect()
}

/// `n` random word constraints over `syms`: left sides of a length drawn
/// from `lhs`, right sides from `rhs` (a length 0 is `ε`), each an
/// inclusion or an equality by a coin flip.
pub fn word_system(
    rng: &mut StdRng,
    syms: &[Symbol],
    n: usize,
    lhs: RangeInclusive<usize>,
    rhs: RangeInclusive<usize>,
) -> ConstraintSet {
    let mut set = ConstraintSet::new();
    for _ in 0..n {
        let mut word = |lens: &RangeInclusive<usize>| -> Vec<Symbol> {
            (0..rng.random_range(lens.clone()))
                .map(|_| syms[rng.random_range(0..syms.len())])
                .collect()
        };
        let (u, v) = (word(&lhs), word(&rhs));
        let kind = if rng.random_range(0..2) == 0 {
            ConstraintKind::Inclusion
        } else {
            ConstraintKind::Equality
        };
        set.add(PathConstraint {
            lhs: Regex::word(&u),
            rhs: Regex::word(&v),
            kind,
        });
    }
    set
}

/// A random chain-shaped CRPQ `ans(x0, xn) :- x0 -[r0]-> x1, …` over
/// `ab`'s symbols, with an extra atom closing a cycle back to `x0` when
/// `close_cycle` (so cyclic join graphs are exercised too).
pub fn random_crpq(rng: &mut StdRng, ab: &Alphabet, atoms: usize, close_cycle: bool) -> Crpq {
    let syms: Vec<Symbol> = ab.symbols().collect();
    let cfg = RegexGenConfig::new(syms);
    let mut crpq_atoms = Vec::new();
    for i in 0..atoms {
        crpq_atoms.push(CrpqAtom {
            query: Query::new(random_regex(rng, &cfg), ab),
            src: Var(i as u32),
            dst: Var(i as u32 + 1),
        });
    }
    if close_cycle {
        crpq_atoms.push(CrpqAtom {
            query: Query::new(random_regex(rng, &cfg), ab),
            src: Var(atoms as u32),
            dst: Var(0),
        });
    }
    let var_names = (0..=atoms).map(|i| format!("x{i}")).collect();
    Crpq {
        atoms: crpq_atoms,
        head: (Var(0), Var(atoms as u32)),
        var_names,
    }
}

/// A random star-shaped CRPQ over `ab`'s symbols: `leaves` (at least two)
/// atoms, each joining the centre `x0` to its own leaf `x1 … xn` through a
/// random regex, out of the centre or into it at random; the head is the
/// first two leaves.
pub fn random_star_crpq(rng: &mut StdRng, ab: &Alphabet, leaves: usize) -> Crpq {
    assert!(leaves >= 2, "a star's head is two of its leaves");
    let syms: Vec<Symbol> = ab.symbols().collect();
    let cfg = RegexGenConfig::new(syms);
    let atoms = (1..=leaves as u32)
        .map(|leaf| {
            let query = Query::new(random_regex(rng, &cfg), ab);
            let (src, dst) = if rng.random_bool(0.5) {
                (Var(0), Var(leaf))
            } else {
                (Var(leaf), Var(0))
            };
            CrpqAtom { query, src, dst }
        })
        .collect();
    Crpq {
        atoms,
        head: (Var(1), Var(2)),
        var_names: (0..=leaves).map(|i| format!("x{i}")).collect(),
    }
}
