//! General path-constraint implication — Theorem 4.2.
//!
//! The paper proves decidability in 2-EXPSPACE by a bounded-model argument:
//! a violated implication has a finite counterexample whose vertices are
//! sets of states of the product automaton `F` of all the constraint and
//! query automata (the homomorphism `μ` mapping `o'` to `o_{states(o')}`).
//! Enumerating all instances up to that doubly-exponential size is
//! hopeless in practice, so this engine returns one of three *certified*
//! verdicts:
//!
//! * [`Verdict::Implied`] — proved by the prefix-rewriting closure of
//!   [`crate::rewrite::rewrite_closure_nfa`]: `L(p) ⊆ L(closure(q))` for
//!   each inclusion `p ⊆ q` of the constraint ([`Closures::implies`], the
//!   test the optimizer certifies rewrites with). Every word `w` of the
//!   closure has `w(o, I) ⊆ q(o, I)` at every `(o, I)` with `I ⊨ E` at `o`:
//!   the closure is the Lemma 4.7 pre*-saturation of `L(q)`, a word rule
//!   `P ⊆ r` wired by right congruence, a regex rule `P ⊆ Q` only to the
//!   continuations certified after *every* word of `Q`, and a rule
//!   `P ⊆ ∅` to a state that accepts any continuation (no `x·w` with
//!   `x ∈ L(P)` has an answer). Then `p(o, I) = ⋃_{w ∈ L(p)} w(o, I) ⊆
//!   q(o, I)`. On word constraints the closure is `RewriteTo(q)` and the
//!   test is Theorem 4.3's exact decision (`"word-exact"`); on regex
//!   constraints it is sound but not complete (`"regex-saturation"`).
//! * [`Verdict::Refuted`] — a finite instance `(o, I)` with `I ⊨ E` but
//!   `p(o, I) ⊄ q(o, I)`, found by a chase-style counterexample search
//!   seeded with words of `L(p)` (with `μ`-style vertex merging to curb
//!   growth) plus a randomized fallback. **Every witness is re-verified by
//!   direct evaluation before being returned.**
//! * [`Verdict::Unknown`] — budgets exhausted; mirrors the practical
//!   intractability of the paper's doubly-exponential bound.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq_automata::{Nfa, Regex, Symbol};
use rpq_graph::{Instance, Oid};

use crate::rewrite::Closures;
use crate::types::{ConstraintKind, ConstraintSet, PathConstraint};

/// A verified counterexample instance.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The instance; `I ⊨ E` holds (re-checked before returning).
    pub instance: Instance,
    /// The source object.
    pub source: Oid,
}

/// Evidence for a refutation.
#[derive(Clone, Debug)]
pub enum Refutation {
    /// A concrete verified instance.
    Instance(Witness),
    /// Word-constraint case: a word of `L(p)` that does not rewrite into
    /// the target (complete by Lemma 4.6, but no instance was materialized
    /// within budget).
    Word(Vec<Symbol>),
}

/// Outcome of [`check`].
#[derive(Clone, Debug)]
pub enum Verdict {
    /// `E ⊨ c`, with the name of the deciding method.
    Implied {
        /// `"word-exact"` (Theorem 4.3) or `"regex-saturation"` (the
        /// regex-rule closure, sound only; see the module docs).
        method: &'static str,
    },
    /// `E ⊭ c`, with evidence.
    Refuted(Refutation),
    /// Budgets exhausted without a certified answer.
    Unknown,
}

impl Verdict {
    /// True when implied.
    pub fn is_implied(&self) -> bool {
        matches!(self, Verdict::Implied { .. })
    }

    /// True when refuted.
    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted(_))
    }
}

/// Budgets for the refuter's counterexample search.
#[derive(Clone, Debug)]
pub struct Budget {
    /// How many seed words of `L(p)` to chase.
    pub chase_seeds: usize,
    /// Max seed word length.
    pub seed_len: usize,
    /// Repair iterations per chase.
    pub repairs: usize,
    /// Random instances to try as counterexamples.
    pub random_tries: usize,
    /// Nodes per random instance.
    pub random_nodes: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            chase_seeds: 24,
            seed_len: 8,
            repairs: 60,
            random_tries: 400,
            random_nodes: 5,
        }
    }
}

/// Check `E ⊨ c` for arbitrary path constraints: the closure test
/// ([`Closures::implies`]) proves, and when it fails the refuter looks for
/// a counterexample instance within `budget`.
pub fn check(set: &ConstraintSet, c: &PathConstraint, budget: &Budget) -> Verdict {
    let rejected = match Closures::new(set).implies(c) {
        Ok(method) => return Verdict::Implied { method },
        Err(word) => word,
    };
    if let Some(w) = refute(set, c, budget) {
        return Verdict::Refuted(Refutation::Instance(w));
    }
    if set.all_word_constraints() {
        // exact on word sets (Lemma 4.6): the rejected word refutes
        Verdict::Refuted(Refutation::Word(rejected))
    } else {
        Verdict::Unknown
    }
}

/// Sound refuter: chase + merge + randomized search. Any returned witness
/// satisfies `E` and violates `c` (verified by direct evaluation).
fn refute(set: &ConstraintSet, c: &PathConstraint, budget: &Budget) -> Option<Witness> {
    let verify =
        |inst: &Instance, src: Oid| -> bool { set.holds_at(inst, src) && !c.holds_at(inst, src) };

    // --- chase from path-instance seeds -------------------------------
    let p_nfa = Nfa::thompson(&c.lhs);
    let seeds = p_nfa.enumerate_words(budget.seed_len, budget.chase_seeds);
    // seed ε-only queries still need a vertex
    for seed in seeds.iter() {
        if let Some(w) = chase_seed(set, c, seed, budget, &verify) {
            return Some(w);
        }
    }
    // for equalities, also chase from the right-hand side (violation may
    // need rhs answers the lhs lacks)
    if c.kind == ConstraintKind::Equality {
        let q_nfa = Nfa::thompson(&c.rhs);
        for seed in q_nfa.enumerate_words(budget.seed_len, budget.chase_seeds) {
            if let Some(w) = chase_seed(set, c, &seed, budget, &verify) {
                return Some(w);
            }
        }
    }

    // --- randomized small-instance search ------------------------------
    let mut symbols = set.symbols();
    symbols.extend(c.symbols());
    symbols.sort();
    symbols.dedup();
    if symbols.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    for _ in 0..budget.random_tries {
        let n = rng.random_range(1..=budget.random_nodes);
        let mut inst = Instance::new();
        for _ in 0..n {
            inst.add_node();
        }
        let m = rng.random_range(0..=(n * symbols.len()).min(3 * n));
        for _ in 0..m {
            let from = Oid(rng.random_range(0..n) as u32);
            let to = Oid(rng.random_range(0..n) as u32);
            let sym = *symbols.choose(&mut rng).expect("non-empty");
            inst.add_edge(from, sym, to);
        }
        let src = Oid(0);
        if verify(&inst, src) {
            return Some(Witness {
                instance: inst,
                source: src,
            });
        }
    }
    None
}

/// Chase one seed word: build the path instance, repair constraint
/// violations by adding witness paths, merge when it grows, verify.
fn chase_seed(
    set: &ConstraintSet,
    c: &PathConstraint,
    seed: &[Symbol],
    budget: &Budget,
    verify: &dyn Fn(&Instance, Oid) -> bool,
) -> Option<Witness> {
    let mut inst = Instance::new();
    let src = inst.add_node();
    let mut cur = src;
    for &s in seed {
        let next = inst.add_node();
        inst.add_edge(cur, s, next);
        cur = next;
    }

    let inclusions: Vec<(Regex, Regex)> = set.iter().flat_map(|x| x.as_inclusions()).collect();
    for _ in 0..budget.repairs {
        if verify(&inst, src) {
            return Some(Witness {
                instance: inst,
                source: src,
            });
        }
        // find a violated inclusion and repair it
        let mut repaired = false;
        for (pp, qq) in &inclusions {
            let pa = rpq_core::eval_product(&Nfa::thompson(pp), &inst, src).answers;
            let qa = rpq_core::eval_product(&Nfa::thompson(qq), &inst, src).answers;
            let missing: Vec<Oid> = pa
                .iter()
                .copied()
                .filter(|o| qa.binary_search(o).is_err())
                .collect();
            if missing.is_empty() {
                continue;
            }
            // witness word for Q (shortest)
            let q_nfa = Nfa::thompson(qq);
            let Some(y) = q_nfa.shortest_accepted() else {
                // L(Q) = ∅ but P produces answers: unrepairable seed
                return None;
            };
            for z in missing.into_iter().take(2) {
                if y.is_empty() {
                    // need z ∈ ε(o) = {o}: only possible if z == src; merge
                    // z into src is too invasive — give up on this seed.
                    if z != src {
                        return None;
                    }
                    continue;
                }
                let mut cur = src;
                for &s in &y[..y.len() - 1] {
                    let fresh = inst.add_node();
                    inst.add_edge(cur, s, fresh);
                    cur = fresh;
                }
                inst.add_edge(cur, *y.last().expect("non-empty"), z);
            }
            repaired = true;
            break;
        }
        if !repaired {
            // all constraints hold; target not violated → seed failed
            return None;
        }
        if inst.num_nodes() > 24 {
            // μ-style merge: vertices with equal reachable-state signatures
            // w.r.t. all constraint/query automata collapse.
            inst = merge_by_signature(&inst, src, set, c);
            if inst.num_nodes() > 64 {
                return None;
            }
        }
    }
    if verify(&inst, src) {
        return Some(Witness {
            instance: inst,
            source: src,
        });
    }
    None
}

/// The Theorem 4.2 homomorphism `μ`: replace each vertex by the set of
/// product-automaton states reachable at it, then merge equal signatures.
fn merge_by_signature(
    inst: &Instance,
    src: Oid,
    set: &ConstraintSet,
    c: &PathConstraint,
) -> Instance {
    // Signature: per automaton, the set of its states reachable from src at
    // this vertex (equivalently, states of the disjoint-union automaton).
    let mut autos: Vec<Nfa> = Vec::new();
    for pc in set.iter() {
        autos.push(Nfa::thompson(&pc.lhs));
        autos.push(Nfa::thompson(&pc.rhs));
    }
    autos.push(Nfa::thompson(&c.lhs));
    autos.push(Nfa::thompson(&c.rhs));

    let nv = inst.num_nodes();
    // reachable (automaton, state, vertex) triples via BFS per automaton
    let mut signature: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nv];
    for (ai, a) in autos.iter().enumerate() {
        let mut seen = vec![false; a.num_states() * nv];
        let mut stack = vec![(a.start(), src)];
        seen[a.start() as usize * nv + src.index()] = true;
        while let Some((q, v)) = stack.pop() {
            signature[v.index()].push((ai, q));
            for &q2 in a.eps_transitions(q) {
                let idx = q2 as usize * nv + v.index();
                if !seen[idx] {
                    seen[idx] = true;
                    stack.push((q2, v));
                }
            }
            for &(sym, q2) in a.transitions(q) {
                for &(label, v2) in inst.out_edges(v) {
                    if label == sym {
                        let idx = q2 as usize * nv + v2.index();
                        if !seen[idx] {
                            seen[idx] = true;
                            stack.push((q2, v2));
                        }
                    }
                }
            }
        }
    }
    for sig in &mut signature {
        sig.sort_unstable();
        sig.dedup();
    }

    // merge by signature; keep src distinguished in its own class
    let mut class_of: std::collections::HashMap<(bool, Vec<(usize, u32)>), u32> =
        std::collections::HashMap::new();
    let mut merged = Instance::new();
    let mut map: Vec<Oid> = Vec::with_capacity(nv);
    for v in inst.nodes() {
        let key = (v == src, signature[v.index()].clone());
        let id = *class_of.entry(key).or_insert_with(|| merged.add_node().0);
        map.push(Oid(id));
    }
    for (a, l, b) in inst.edges() {
        merged.add_edge(map[a.index()], l, map[b.index()]);
    }
    // The caller expects the same `src` oid; rebuild with src first.
    let merged_src = map[src.index()];
    if merged_src == Oid(0) {
        return merged;
    }
    // swap vertex 0 and merged_src by rebuilding
    let mut final_inst = Instance::new();
    for _ in 0..merged.num_nodes() {
        final_inst.add_node();
    }
    let swap = |o: Oid| -> Oid {
        if o == merged_src {
            Oid(0)
        } else if o == Oid(0) {
            merged_src
        } else {
            o
        }
    };
    for (a, l, b) in merged.edges() {
        final_inst.add_edge(swap(a), l, swap(b));
    }
    final_inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::parse_constraint;
    use rpq_automata::{parse_regex, Alphabet};

    fn setup(lines: &[&str]) -> (Alphabet, ConstraintSet) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        (ab, set)
    }

    #[test]
    fn word_route_is_exact() {
        let (mut ab, set) = setup(&["l.l <= l"]);
        let c = parse_constraint(&mut ab, "l* = l + ()").unwrap();
        let v = check(&set, &c, &Budget::default());
        assert!(matches!(
            v,
            Verdict::Implied {
                method: "word-exact"
            }
        ));
    }

    #[test]
    fn example3_cached_query() {
        // E = {l = (a.b)*} ⊨ a.(b.a)*.c = l.a.c   (Example 3, Section 3.2)
        let (mut ab, set) = setup(&["l = (a.b)*"]);
        let c = parse_constraint(&mut ab, "a.(b.a)*.c = l.a.c").unwrap();
        let v = check(&set, &c, &Budget::default());
        assert!(v.is_implied(), "{v:?}");
    }

    #[test]
    fn example1_literal_claim_is_refuted() {
        // Σ*·l = ε does NOT imply (la+lb)*d = (a+b)d  (the k=0 word `d`).
        let (mut ab, set) = setup(&["(a+b+d+l)*.l = ()"]);
        let c = parse_constraint(&mut ab, "(l.a + l.b)*.d = (a+b).d").unwrap();
        let v = check(&set, &c, &Budget::default());
        match v {
            Verdict::Refuted(Refutation::Instance(w)) => {
                assert!(set.holds_at(&w.instance, w.source));
                assert!(!c.holds_at(&w.instance, w.source));
            }
            other => panic!("expected instance refutation, got {other:?}"),
        }
    }

    #[test]
    fn example1_sound_direction_proved() {
        // Σ*·l ⊆ ε ⊨ (la+lb)*d ⊆ (ε+a+b)d — the upper envelope is sound.
        let (mut ab, set) = setup(&["(a+b+d+l)*.l <= ()"]);
        let c = parse_constraint(&mut ab, "(l.a + l.b)*.d <= (() + a + b).d").unwrap();
        let v = check(&set, &c, &Budget::default());
        assert!(v.is_implied(), "{v:?}");
    }

    #[test]
    fn trivial_regex_implication_without_constraints() {
        let (mut ab, _) = setup(&[]);
        let set = ConstraintSet::new();
        let c = parse_constraint(&mut ab, "a.(b.a)* <= (a.b)*.a").unwrap();
        // pure language inclusion (the empty set is all-word-constraints,
        // so the exact route applies)
        let v = check(&set, &c, &Budget::default());
        assert!(v.is_implied());
    }

    #[test]
    fn refuter_finds_simple_noninclusion() {
        let (mut ab, set) = setup(&["a* <= b.c"]); // regex constraint, unrelated
        let c = parse_constraint(&mut ab, "x <= y").unwrap();
        let v = check(&set, &c, &Budget::default());
        match v {
            Verdict::Refuted(Refutation::Instance(w)) => {
                assert!(set.holds_at(&w.instance, w.source));
                assert!(!c.holds_at(&w.instance, w.source));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn cache_prefix_substitution_family() {
        // l = r (cache) implies l.w = r.w for several w.
        let (mut ab, set) = setup(&["l = (a+b)*.c"]);
        for w in ["a", "a.b", "c.c", "(a.b)"] {
            let c = parse_constraint(&mut ab, &format!("l.{w} = (a+b)*.c.{w}")).unwrap();
            let v = check(&set, &c, &Budget::default());
            assert!(v.is_implied(), "l.{w}: {v:?}");
        }
    }

    #[test]
    fn unknown_on_hard_instances_is_possible() {
        // A constraint the prover cannot confirm and the refuter cannot
        // break within tiny budgets → Unknown (documented behavior).
        let (mut ab, set) = setup(&["(a.b)* <= (b.a)*"]);
        let c = parse_constraint(&mut ab, "(a.a)* <= (b.b)*").unwrap();
        let tiny = Budget {
            chase_seeds: 0,
            random_tries: 0,
            ..Budget::default()
        };
        let v = check(&set, &c, &tiny);
        assert!(matches!(v, Verdict::Unknown));
    }

    #[test]
    fn equality_constraints_split_into_inclusions() {
        let (mut ab, set) = setup(&["l = m"]);
        let c = parse_constraint(&mut ab, "l.x = m.x").unwrap();
        assert!(check(&set, &c, &Budget::default()).is_implied());
        let c2 = parse_constraint(&mut ab, "l.x = x").unwrap();
        let v = check(&set, &c2, &Budget::default());
        assert!(v.is_refuted(), "{v:?}");
    }

    #[test]
    fn witnesses_always_verify() {
        // Sanity net over several refutations.
        let (mut ab, set) = setup(&["a.a <= a"]);
        for (ps, qs) in [("a", "a.a"), ("a.b", "b.a"), ("b", "a")] {
            let c = parse_constraint(&mut ab, &format!("{ps} <= {qs}")).unwrap();
            if let Verdict::Refuted(Refutation::Instance(w)) = check(&set, &c, &Budget::default()) {
                assert!(set.holds_at(&w.instance, w.source));
                assert!(!c.holds_at(&w.instance, w.source));
            }
        }
        let _ = parse_regex(&mut ab, "a").unwrap();
    }
}
