//! Instances built to satisfy a constraint set `E`, not drawn and filtered
//! for it.
//!
//! A test that draws random graphs and skips those violating `E` checks
//! nothing when every draw violates it. These constructors *make* `E` hold
//! and fail loudly when they cannot:
//!
//! * [`chase`] — repair violations until none is left: a target
//!   `t ∈ lhs(o) \ rhs(o)` gets a path spelling the shortest non-empty
//!   word of `rhs` from `o`, through existing nodes only (every
//!   intermediate node is `t`, so `l ⊆ l.l` puts a self-loop on each
//!   `l`-target). For a cache rule `l = q` whose label `l` has no edges
//!   and which `q` does not read, the `q ⊆ l` repairs add an `l`-edge to
//!   every `q`-target: the view. A right side that denotes only `ε` merges
//!   `t` into `o`; one that denotes `∅` drops the edges from `o` that
//!   begin a word of the left side, and one whose left side holds `ε`
//!   cannot be satisfied ([`Unsatisfied::Empty`]). It never adds a node.
//!   It gives up with [`Unsatisfied::Bound`] after `max_steps` repairs,
//!   never silently.
//! * [`chase_deterministic`] — the chase that keeps an instance
//!   deterministic (Section 5's special case), merging by congruence
//!   closure where two words must meet.
//!
//! Each rule is read from its `kind` here, not through
//! `PathConstraint::as_inclusions`, so a fault in the planner's reading of
//! `E` cannot make the instances a test checks it on agree with it. Every
//! constructor ends by checking `ConstraintSet::holds_at` at each node in
//! scope, at one source or at every node.

use rpq_automata::{Nfa, Regex, Symbol};
use rpq_constraints::{ConstraintKind, ConstraintSet};
use rpq_core::eval_product;
use rpq_graph::{Instance, Oid};

/// Where `E` must hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scope {
    /// At one source, the paper's rooted `(I, o) ⊨ E`.
    Source(Oid),
    /// At every node of the instance.
    EveryNode,
}

impl Scope {
    /// The nodes of `inst` in scope.
    pub fn nodes(&self, inst: &Instance) -> Vec<Oid> {
        match self {
            Scope::Source(o) => vec![*o],
            Scope::EveryNode => inst.nodes().collect(),
        }
    }
}

/// Why no instance satisfying `E` was built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unsatisfied {
    /// `max_steps` repairs were made and `E` still fails.
    Bound(usize),
    /// Rule `.0` has a right side denoting `∅` and a left side containing
    /// `ε`: no instance satisfies it anywhere.
    Empty(usize),
    /// Rule `.0` given to [`chase_deterministic`] is no word constraint.
    NotWord(usize),
    /// The built instance violates `E` at this node (a constructor fault).
    Fails(Oid),
}

/// One directed inclusion `lhs ⊆ rhs` of a rule, compiled for the chase.
struct Directed {
    rule: usize,
    lhs: Nfa,
    rhs: Nfa,
    /// The shortest non-empty word of `rhs`, if it has one.
    word: Option<Vec<Symbol>>,
    /// Does `rhs` accept `ε`?
    rhs_eps: bool,
    /// Does `lhs` accept `ε`?
    lhs_eps: bool,
    /// The symbols a word of `lhs` can begin with.
    lhs_first: Vec<Symbol>,
}

impl Directed {
    fn of(set: &ConstraintSet) -> Vec<Directed> {
        let mut out = Vec::new();
        for (rule, c) in set.iter().enumerate() {
            let mut push = |lhs: &Regex, rhs: &Regex| {
                let (lhs, rhs) = (Nfa::thompson(lhs), Nfa::thompson(rhs));
                out.push(Directed {
                    rule,
                    word: shortest_nonempty(&rhs),
                    rhs_eps: rhs.accepts(&[]),
                    lhs_eps: lhs.accepts(&[]),
                    lhs_first: lhs.trim().entry_symbols(),
                    lhs,
                    rhs,
                });
            };
            push(&c.lhs, &c.rhs);
            if c.kind == ConstraintKind::Equality {
                push(&c.rhs, &c.lhs);
            }
        }
        out
    }

    /// `lhs(o) \ rhs(o)`.
    fn violations(&self, inst: &Instance, o: Oid) -> Vec<Oid> {
        let r = eval_product(&self.rhs, inst, o).answers;
        let mut l = eval_product(&self.lhs, inst, o).answers;
        l.retain(|t| r.binary_search(t).is_err());
        l
    }
}

/// The shortest non-empty word `nfa` accepts (shortest first, then by the
/// first symbol).
fn shortest_nonempty(nfa: &Nfa) -> Option<Vec<Symbol>> {
    let start = nfa.start_set();
    let mut best: Option<Vec<Symbol>> = None;
    for a in nfa.symbols() {
        let next = nfa.step(&start, a);
        if next.is_empty() {
            continue;
        }
        let mut from = nfa.clone();
        let s = from.add_state(false);
        for q in next {
            from.add_eps(s, q);
        }
        from.set_start(s);
        if let Some(rest) = from.shortest_accepted() {
            if best.as_ref().is_none_or(|b| rest.len() + 1 < b.len()) {
                best = Some([vec![a], rest].concat());
            }
        }
    }
    best
}

/// Make every rule of `set` hold at every node in `scope` by adding edges
/// between existing nodes, merging a node into another where a right side
/// denotes only `ε`, and dropping edges where it denotes `∅` (see the
/// module docs). Returns the repairs made; gives up after `max_steps`.
pub fn chase(
    inst: &mut Instance,
    set: &ConstraintSet,
    scope: &Scope,
    max_steps: usize,
) -> Result<usize, Unsatisfied> {
    let rules = Directed::of(set);
    let mut steps = 0;
    'pass: loop {
        for o in scope.nodes(inst) {
            for d in &rules {
                let bad = d.violations(inst, o);
                if bad.is_empty() {
                    continue;
                }
                for t in bad {
                    if steps == max_steps {
                        return Err(Unsatisfied::Bound(max_steps));
                    }
                    steps += 1;
                    if let Some(w) = &d.word {
                        // o -w₁→ t -w₂→ t … -wₖ→ t
                        inst.add_edge(o, w[0], t);
                        for &a in &w[1..] {
                            inst.add_edge(t, a, t);
                        }
                    } else if d.rhs_eps {
                        merge(inst, o, t);
                        continue 'pass;
                    } else if d.lhs_eps {
                        return Err(Unsatisfied::Empty(d.rule));
                    } else {
                        let drop: Vec<(Symbol, Oid)> = inst
                            .out_edges(o)
                            .iter()
                            .filter(|(a, _)| d.lhs_first.contains(a))
                            .copied()
                            .collect();
                        for (a, x) in drop {
                            inst.remove_edge(o, a, x);
                        }
                        break;
                    }
                }
                continue 'pass;
            }
        }
        check(inst, set, scope)?;
        return Ok(steps);
    }
}

/// The chase for word constraints that keeps `inst` deterministic (at
/// most one edge per node and label): a defined `u(o) = {x}` under
/// `u ⊆ v` extends `v`'s path from `o` where it stops, by edges into `x`,
/// and merges its end with `x`, closing the merge under determinism.
/// `inst` must be deterministic. Returns the repairs made; gives up after
/// `max_steps`.
pub fn chase_deterministic(
    inst: &mut Instance,
    set: &ConstraintSet,
    scope: &Scope,
    max_steps: usize,
) -> Result<usize, Unsatisfied> {
    let mut rules = Vec::new();
    for (i, c) in set.iter().enumerate() {
        let (u, v) = c.as_word_pair().ok_or(Unsatisfied::NotWord(i))?;
        if c.kind == ConstraintKind::Equality {
            rules.push((v.clone(), u.clone()));
        }
        rules.push((u, v));
    }
    let mut steps = 0;
    'pass: loop {
        for o in scope.nodes(inst) {
            for (u, v) in &rules {
                let Some(&x) = inst.word_targets(o, u).first() else {
                    continue;
                };
                if inst.word_targets(o, v) == [x] {
                    continue;
                }
                if steps == max_steps {
                    return Err(Unsatisfied::Bound(max_steps));
                }
                steps += 1;
                let mut at = o;
                for &a in v {
                    at = match inst.out_edges_labeled(at, a).first() {
                        Some(&(_, t)) => t,
                        None => {
                            inst.add_edge(at, a, x);
                            x
                        }
                    };
                }
                if at != x {
                    let keep = if at == o { at } else { x };
                    merge(inst, keep, if keep == at { x } else { at });
                    fold(inst, o);
                }
                continue 'pass;
            }
        }
        check(inst, set, scope)?;
        return Ok(steps);
    }
}

/// Move every edge of `gone` onto `keep`; `gone` is left without edges.
fn merge(inst: &mut Instance, keep: Oid, gone: Oid) {
    let touching: Vec<(Oid, Symbol, Oid)> = inst
        .edges()
        .filter(|&(f, _, t)| f == gone || t == gone)
        .collect();
    let image = |o: Oid| if o == gone { keep } else { o };
    for (f, a, t) in touching {
        inst.remove_edge(f, a, t);
        inst.add_edge(image(f), a, image(t));
    }
}

/// Merge the two targets of every node's doubled label until `inst` is
/// deterministic again, never merging `root` away.
fn fold(inst: &mut Instance, root: Oid) {
    loop {
        let doubled = inst.nodes().find_map(|o| {
            let out = inst.out_edges(o);
            out.iter().enumerate().find_map(|(i, &(a, t))| {
                out[i + 1..]
                    .iter()
                    .find(|&&(b, _)| b == a)
                    .map(|&(_, s)| (t, s))
            })
        });
        let Some((t, s)) = doubled else {
            return;
        };
        let (keep, gone) = if s == root || (t != root && s < t) {
            (s, t)
        } else {
            (t, s)
        };
        merge(inst, keep, gone);
    }
}

/// `E` at every node in scope, or the first node where it fails.
fn check(inst: &Instance, set: &ConstraintSet, scope: &Scope) -> Result<(), Unsatisfied> {
    match scope
        .nodes(inst)
        .into_iter()
        .find(|&o| !set.holds_at(inst, o))
    {
        Some(o) => Err(Unsatisfied::Fails(o)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{deterministic_graph, random_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpq_automata::Alphabet;

    fn set(ab: &mut Alphabet, lines: &[&str]) -> ConstraintSet {
        ConstraintSet::parse(ab, lines.iter().copied()).unwrap()
    }

    /// `l ⊆ l.l` at the source of `o -l→ t1 -l→ t2`: a self-loop at `t1`,
    /// and nothing else.
    #[test]
    fn the_chase_reuses_the_target_for_a_longer_right_side() {
        let mut ab = Alphabet::new();
        let e = set(&mut ab, &["l <= l.l"]);
        let l = ab.get("l").unwrap();
        let mut inst = Instance::new();
        let [o, t1, t2] = [inst.add_node(), inst.add_node(), inst.add_node()];
        inst.add_edge(o, l, t1);
        inst.add_edge(t1, l, t2);
        assert_eq!(chase(&mut inst, &e, &Scope::Source(o), 10), Ok(1));
        let edges: Vec<_> = inst.edges().collect();
        assert_eq!(edges, [(o, l, t1), (t1, l, t1), (t1, l, t2)]);
    }

    /// Word sets with `ε` sides merge; every output satisfies `E` at every
    /// node, and the bound is reported, not skipped.
    #[test]
    fn the_chase_satisfies_word_sets_everywhere_or_says_why_not() {
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b"].iter().map(|s| ab.intern(s)).collect();
        for lines in [
            &["a.a.a = ()"][..],
            &["a.b = b.a"],
            &["b.a = a", "b.b = b"],
            &["a.a <= a", "b <= a.b"],
        ] {
            let e = set(&mut ab, lines);
            for seed in 0..8 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (mut inst, _) = random_graph(&mut rng, 6, 10, &syms);
                chase(&mut inst, &e, &Scope::EveryNode, 10_000).unwrap();
                assert!(inst.nodes().all(|o| e.holds_at(&inst, o)), "{lines:?}");
            }
        }
        let e = set(&mut ab, &["a <= a.a.b"]);
        let mut inst = Instance::new();
        let [o, t] = [inst.add_node(), inst.add_node()];
        inst.add_edge(o, syms[0], t);
        assert_eq!(
            chase(&mut inst, &e, &Scope::Source(o), 0),
            Err(Unsatisfied::Bound(0))
        );
        let e = set(&mut ab, &["() + a <= []"]);
        assert_eq!(
            chase(&mut inst, &e, &Scope::Source(o), 10),
            Err(Unsatisfied::Empty(0))
        );
    }

    #[test]
    fn an_empty_right_side_drops_the_first_edges() {
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b"].iter().map(|s| ab.intern(s)).collect();
        let e = set(&mut ab, &["a.b* <= []"]);
        let (mut inst, o) = random_graph(&mut StdRng::seed_from_u64(3), 5, 12, &syms);
        chase(&mut inst, &e, &Scope::Source(o), 10).unwrap();
        assert!(inst.out_edges_labeled(o, syms[0]).is_empty());
    }

    /// A cache rule over a label without edges gets exactly its view: an
    /// `l`-edge from every node to each of its body's targets.
    #[test]
    fn the_chase_builds_a_view_at_every_node() {
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|s| ab.intern(s)).collect();
        let e = set(&mut ab, &["l0 = (a.b)*", "b.c = l1", "a.a <= a"]);
        let (mut inst, _) = random_graph(&mut StdRng::seed_from_u64(5), 8, 16, &syms);
        chase(&mut inst, &e, &Scope::EveryNode, 10_000).unwrap();
        let answers = |q: &str, o: Oid| {
            let q = rpq_automata::parse_regex(&mut ab.clone(), q).unwrap();
            eval_product(&Nfa::thompson(&q), &inst, o).answers
        };
        for o in inst.nodes() {
            assert_eq!(answers("l0", o), answers("(a.b)*", o));
            assert_eq!(answers("l1", o), answers("b.c", o));
        }
    }

    #[test]
    fn the_deterministic_chase_stays_deterministic() {
        let mut ab = Alphabet::new();
        let syms: Vec<Symbol> = ["a", "b"].iter().map(|s| ab.intern(s)).collect();
        for lines in [
            &["a <= b", "a.a = b"][..],
            &["a.b = ()"],
            &["a <= a.b", "b.b <= a"],
        ] {
            let e = set(&mut ab, lines);
            for seed in 0..8 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (mut inst, o) = deterministic_graph(&mut rng, 6, &syms, 70);
                chase_deterministic(&mut inst, &e, &Scope::Source(o), 1_000).unwrap();
                for n in inst.nodes() {
                    for &a in &syms {
                        assert!(inst.out_edges_labeled(n, a).len() <= 1, "{lines:?}");
                    }
                }
            }
        }
    }
}
