//! The FO² connection (Section 4, "First-order logic with two variables").
//!
//! "In the particular context of word constraints, the implication problem
//! can be stated in terms of first-order logic. Moreover, only two
//! variables are needed. Then the decidability of the implication problem
//! for word constraints follows from known results about first-order logic
//! with two variables (FO²) … satisfiability of FO² sentences (with
//! relational vocabulary and constants) is decidable \[25\]."
//!
//! The paper then deliberately *bypasses* FO² (its direct procedure is
//! PTIME where FO² satisfiability is doubly exponential), but the encoding
//! itself is instructive and makes a strong cross-validation net, so this
//! module builds it:
//!
//! * a tiny FO² fragment: two variables `X`/`Y`, one constant `o`, binary
//!   relations `E_a` per label, equality, the usual connectives and
//!   quantifiers — with a **syntactic two-variable check** enforced by
//!   construction;
//! * the encoding of reachability by a word using only two variables (the
//!   classic alternation trick: `reach_{w·a}(x) = ∃y (reach_w(y) ∧
//!   E_a(y, x))` with the roles of `x` and `y` swapped at each step);
//! * word constraints and their implication as FO² sentences;
//! * an evaluator over finite [`Instance`]s and a bounded countermodel
//!   search.
//!
//! The cross-validation (tests + property suite): the FO² sentence for
//! `E ∧ ¬(u ⊆ v)` is satisfied by an instance iff the instance is a direct
//! counterexample — so (a) any countermodel found bounds Theorem 4.3's
//! answer from above, and (b) the witness instances produced by the
//! canonical-instance machinery must satisfy the encoding. The PTIME
//! procedure and the FO² view never disagree.

use rpq_automata::Symbol;
use rpq_constraints::types::{ConstraintKind, ConstraintSet, PathConstraint};
use rpq_graph::{Instance, Oid};

/// The two variables of FO².
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Var {
    /// The variable `x`.
    X,
    /// The variable `y`.
    Y,
}

impl Var {
    /// The other variable.
    pub fn other(self) -> Var {
        match self {
            Var::X => Var::Y,
            Var::Y => Var::X,
        }
    }
}

/// A term: one of the two variables or the source constant `o`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// The designated source object.
    Source,
}

/// FO² formulas over the vocabulary `{E_a : a ∈ Σ} ∪ {o}`.
#[derive(Clone, Debug, PartialEq)]
pub enum Fo2 {
    /// `E_label(t1, t2)` — a labeled edge.
    Edge(Symbol, Term, Term),
    /// `t1 = t2`.
    Equal(Term, Term),
    /// Negation.
    Not(Box<Fo2>),
    /// Conjunction (n-ary for readability).
    And(Vec<Fo2>),
    /// Disjunction.
    Or(Vec<Fo2>),
    /// `∃v φ`.
    Exists(Var, Box<Fo2>),
    /// `∀v φ`.
    Forall(Var, Box<Fo2>),
}

impl Fo2 {
    /// `φ → ψ` as `¬φ ∨ ψ`.
    pub fn implies(self, other: Fo2) -> Fo2 {
        Fo2::Or(vec![Fo2::Not(Box::new(self)), other])
    }

    /// Count quantifiers (formula size measure for the docs/tests).
    pub fn quantifier_count(&self) -> usize {
        match self {
            Fo2::Edge(..) | Fo2::Equal(..) => 0,
            Fo2::Not(f) => f.quantifier_count(),
            Fo2::And(fs) | Fo2::Or(fs) => fs.iter().map(Fo2::quantifier_count).sum(),
            Fo2::Exists(_, f) | Fo2::Forall(_, f) => 1 + f.quantifier_count(),
        }
    }

    /// Evaluate on a finite instance with `o = source` under a partial
    /// assignment of the two variables. Connectives and quantifiers stop at
    /// the first operand that settles them; a term that reads a variable
    /// the assignment leaves unbound is [`Fo2Error::Unbound`].
    pub fn eval(
        &self,
        instance: &Instance,
        source: Oid,
        x: Option<Oid>,
        y: Option<Oid>,
    ) -> Result<bool, Fo2Error> {
        let resolve = |t: &Term| -> Result<Oid, Fo2Error> {
            match t {
                Term::Source => Ok(source),
                Term::Var(Var::X) => x.ok_or(Fo2Error::Unbound(Var::X)),
                Term::Var(Var::Y) => y.ok_or(Fo2Error::Unbound(Var::Y)),
            }
        };
        // `f` under `v := n`, the other variable as it is
        let bound = |f: &Fo2, v: &Var, n: Oid| match v {
            Var::X => f.eval(instance, source, Some(n), y),
            Var::Y => f.eval(instance, source, x, Some(n)),
        };
        Ok(match self {
            Fo2::Edge(label, t1, t2) => {
                let (a, b) = (resolve(t1)?, resolve(t2)?);
                instance
                    .out_edges(a)
                    .iter()
                    .any(|&(l, t)| l == *label && t == b)
            }
            Fo2::Equal(t1, t2) => resolve(t1)? == resolve(t2)?,
            Fo2::Not(f) => !f.eval(instance, source, x, y)?,
            Fo2::And(fs) => {
                for f in fs {
                    if !f.eval(instance, source, x, y)? {
                        return Ok(false);
                    }
                }
                true
            }
            Fo2::Or(fs) => {
                for f in fs {
                    if f.eval(instance, source, x, y)? {
                        return Ok(true);
                    }
                }
                false
            }
            Fo2::Exists(v, f) => {
                for n in instance.nodes() {
                    if bound(f, v, n)? {
                        return Ok(true);
                    }
                }
                false
            }
            Fo2::Forall(v, f) => {
                for n in instance.nodes() {
                    if !bound(f, v, n)? {
                        return Ok(false);
                    }
                }
                true
            }
        })
    }
}

/// Why an FO² sentence could not be built or evaluated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fo2Error {
    /// [`Fo2::eval`] met a term reading this variable, which the
    /// assignment leaves unbound (a formula that is not a sentence, or one
    /// that uses a variable outside the scope of its quantifier).
    Unbound(Var),
    /// A constraint of the set is not a word constraint; only word
    /// constraints have an FO² sentence here.
    NotWordConstraint,
}

impl std::fmt::Display for Fo2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fo2Error::Unbound(v) => write!(f, "FO² variable {v:?} is unbound"),
            Fo2Error::NotWordConstraint => {
                write!(f, "the FO² encoding requires a word-constraint set")
            }
        }
    }
}

impl std::error::Error for Fo2Error {}

/// `reach_w(v)`: "`v` is reachable from `o` by the word `w`", built with
/// only two variables by swapping the working variable at every letter.
pub fn reach(word: &[Symbol], v: Var) -> Fo2 {
    match word.split_last() {
        None => Fo2::Equal(Term::Var(v), Term::Source),
        Some((&last, prefix)) => {
            let u = v.other();
            Fo2::Exists(
                u,
                Box::new(Fo2::And(vec![
                    reach(prefix, u),
                    Fo2::Edge(last, Term::Var(u), Term::Var(v)),
                ])),
            )
        }
    }
}

/// The FO² sentence for a word constraint at the source:
/// `u ⊆ v` ⇝ `∀x (reach_u(x) → reach_v(x))`, equality as both inclusions.
pub fn constraint_sentence(c: &PathConstraint) -> Option<Fo2> {
    let (u, v) = c.as_word_pair()?;
    let fwd = Fo2::Forall(
        Var::X,
        Box::new(reach(&u, Var::X).implies(reach(&v, Var::X))),
    );
    Some(match c.kind {
        ConstraintKind::Inclusion => fwd,
        ConstraintKind::Equality => Fo2::And(vec![
            fwd,
            Fo2::Forall(
                Var::X,
                Box::new(reach(&v, Var::X).implies(reach(&u, Var::X))),
            ),
        ]),
    })
}

/// The FO² sentence whose models are exactly the counterexamples to
/// `E ⊨ u ⊆ v`: all of `E` holds, and some object witnesses `u ⊄ v`.
///
/// [`Fo2Error::NotWordConstraint`] if `set` holds a constraint that is not
/// a word constraint: the encoding covers word constraints only (as
/// [`crate::implication::word_implies_path`] does).
pub fn refutation_sentence(
    set: &ConstraintSet,
    u: &[Symbol],
    v: &[Symbol],
) -> Result<Fo2, Fo2Error> {
    let mut parts: Vec<Fo2> = set
        .iter()
        .map(|c| constraint_sentence(c).ok_or(Fo2Error::NotWordConstraint))
        .collect::<Result<_, _>>()?;
    parts.push(Fo2::Exists(
        Var::X,
        Box::new(Fo2::And(vec![
            reach(u, Var::X),
            Fo2::Not(Box::new(reach(v, Var::X))),
        ])),
    ));
    Ok(Fo2::And(parts))
}

/// Bounded countermodel search: enumerate all instances with `≤ max_nodes`
/// nodes and `≤ Σ`-labeled edges (every subset), return one satisfying the
/// refutation sentence. Exponential — the paper's reason for preferring
/// the direct procedure — usable only for tiny bounds, which is exactly
/// what the cross-validation tests need.
pub fn bounded_countermodel(
    set: &ConstraintSet,
    u: &[Symbol],
    v: &[Symbol],
    labels: &[Symbol],
    max_nodes: usize,
) -> Result<Option<(Instance, Oid)>, Fo2Error> {
    let sentence = refutation_sentence(set, u, v)?;
    for n in 1..=max_nodes {
        let slots: Vec<(usize, Symbol, usize)> = (0..n)
            .flat_map(|a| {
                labels
                    .iter()
                    .flat_map(move |&l| (0..n).map(move |b| (a, l, b)))
            })
            .collect();
        let total = slots.len();
        if total > 20 {
            // 2^20 structures is the practical ceiling for a test net.
            return Ok(None);
        }
        for mask in 0u32..(1u32 << total) {
            let mut instance = Instance::new();
            let nodes: Vec<Oid> = (0..n).map(|_| instance.add_node()).collect();
            for (i, &(a, l, b)) in slots.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    instance.add_edge(nodes[a], l, nodes[b]);
                }
            }
            let source = nodes[0];
            if sentence.eval(&instance, source, None, None)? {
                return Ok(Some((instance, source)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::word_implies_word;
    use rpq_automata::{parse_word, Alphabet};
    use rpq_graph::InstanceBuilder;

    fn setup(lines: &[&str]) -> (Alphabet, ConstraintSet) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        (ab, set)
    }

    #[test]
    fn reach_uses_exactly_word_length_quantifiers() {
        let mut ab = Alphabet::new();
        let w = parse_word(&mut ab, "a.b.a").unwrap();
        let f = reach(&w, Var::X);
        assert_eq!(f.quantifier_count(), 3);
    }

    #[test]
    fn reach_evaluates_correctly() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o", "a", "p");
        b.edge("p", "b", "q");
        let (inst, names) = b.finish();
        let w = parse_word(&mut ab, "a.b").unwrap();
        let f = Fo2::Exists(
            Var::X,
            Box::new(Fo2::And(vec![
                reach(&w, Var::X),
                Fo2::Not(Box::new(Fo2::Equal(Term::Var(Var::X), Term::Source))),
            ])),
        );
        assert_eq!(f.eval(&inst, names["o"], None, None), Ok(true));
        // from q nothing is a·b-reachable
        assert_eq!(f.eval(&inst, names["q"], None, None), Ok(false));
    }

    #[test]
    fn constraint_sentence_matches_semantic_satisfaction() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o", "a", "p");
        b.edge("o", "b", "p");
        let (inst, names) = b.finish();
        let o = names["o"];
        let c_good = rpq_constraints::parse_constraint(&mut ab, "a <= b").unwrap();
        let c_bad = rpq_constraints::parse_constraint(&mut ab, "a <= a.a").unwrap();
        assert_eq!(
            constraint_sentence(&c_good)
                .unwrap()
                .eval(&inst, o, None, None),
            Ok(c_good.holds_at(&inst, o))
        );
        assert_eq!(
            constraint_sentence(&c_bad)
                .unwrap()
                .eval(&inst, o, None, None),
            Ok(c_bad.holds_at(&inst, o))
        );
        assert!(c_good.holds_at(&inst, o));
        assert!(!c_bad.holds_at(&inst, o));
    }

    #[test]
    fn an_unbound_variable_is_an_error() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o", "a", "p");
        let (inst, names) = b.finish();
        let a = ab.get("a").unwrap();
        let o = names["o"];
        // `E_a(o, x)` with x free, then `E_a(y, o)` under ∃x with y free
        let free_x = Fo2::Edge(a, Term::Source, Term::Var(Var::X));
        assert_eq!(
            free_x.eval(&inst, o, None, None),
            Err(Fo2Error::Unbound(Var::X))
        );
        assert_eq!(free_x.eval(&inst, o, Some(names["p"]), None), Ok(true));
        let free_y = Fo2::Exists(
            Var::X,
            Box::new(Fo2::Edge(a, Term::Var(Var::Y), Term::Var(Var::X))),
        );
        assert_eq!(
            free_y.eval(&inst, o, None, None),
            Err(Fo2Error::Unbound(Var::Y))
        );
    }

    #[test]
    fn a_regex_constraint_has_no_refutation_sentence() {
        let (mut ab, set) = setup(&["a <= b", "a* <= b"]);
        let u = parse_word(&mut ab, "b").unwrap();
        let v = parse_word(&mut ab, "a").unwrap();
        assert_eq!(
            refutation_sentence(&set, &u, &v),
            Err(Fo2Error::NotWordConstraint)
        );
        let labels: Vec<Symbol> = ab.symbols().collect();
        assert_eq!(
            bounded_countermodel(&set, &u, &v, &labels, 2).map(|m| m.is_some()),
            Err(Fo2Error::NotWordConstraint)
        );
    }

    #[test]
    fn countermodel_found_for_non_implication() {
        // {a ⊆ b} ⊭ b ⊆ a: a 2-node countermodel exists.
        let (mut ab, set) = setup(&["a <= b"]);
        let u = parse_word(&mut ab, "b").unwrap();
        let v = parse_word(&mut ab, "a").unwrap();
        let labels: Vec<Symbol> = ab.symbols().collect();
        let (inst, o) = bounded_countermodel(&set, &u, &v, &labels, 2)
            .unwrap()
            .expect("countermodel");
        assert!(set.holds_at(&inst, o));
        assert!(!inst.word_targets(o, &u).is_empty());
        let bt = inst.word_targets(o, &u);
        let at = inst.word_targets(o, &v);
        assert!(bt.iter().any(|t| !at.contains(t)));
        // and of course the PTIME procedure agrees
        assert!(!word_implies_word(&set, &u, &v));
    }

    #[test]
    fn no_countermodel_for_implication() {
        // {a ⊆ b} ⊨ a·c ⊆ b·c (right congruence): no countermodel with ≤ 2
        // nodes over {a, b, c} exists... 2 nodes × 3 labels × 2 targets =
        // 12 slots, still searchable.
        let (mut ab, set) = setup(&["a <= b"]);
        let u = parse_word(&mut ab, "a.c").unwrap();
        let v = parse_word(&mut ab, "b.c").unwrap();
        let labels: Vec<Symbol> = ab.symbols().collect();
        assert!(word_implies_word(&set, &u, &v));
        assert!(bounded_countermodel(&set, &u, &v, &labels, 2)
            .unwrap()
            .is_none());
    }

    #[test]
    fn fo2_and_theorem43_agree_on_random_tiny_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF02);
        for trial in 0..40 {
            let mut ab = Alphabet::new();
            let syms = [ab.intern("a"), ab.intern("b")];
            let rand_word = |rng: &mut StdRng| -> Vec<Symbol> {
                (0..rng.random_range(1..=2))
                    .map(|_| syms[rng.random_range(0..2)])
                    .collect()
            };
            let mut set = ConstraintSet::new();
            set.add(PathConstraint::inclusion(
                rpq_automata::Regex::word(&rand_word(&mut rng)),
                rpq_automata::Regex::word(&rand_word(&mut rng)),
            ));
            let u = rand_word(&mut rng);
            let v = rand_word(&mut rng);
            // One direction is sound unconditionally: a found countermodel
            // refutes the implication.
            if let Some((inst, o)) = bounded_countermodel(&set, &u, &v, &syms, 2).unwrap() {
                assert!(set.holds_at(&inst, o), "trial {trial}");
                assert!(
                    !word_implies_word(&set, &u, &v),
                    "trial {trial}: FO² countermodel vs PTIME implied"
                );
            }
            // And the converse on this tiny scale: if the PTIME procedure
            // refutes, the canonical machinery yields a small witness whose
            // violation the FO² sentence must detect.
            if !word_implies_word(&set, &u, &v) {
                let sentence = refutation_sentence(&set, &u, &v).unwrap();
                if let crate::general_implication::Verdict::Refuted(
                    crate::general_implication::Refutation::Instance(w),
                ) = crate::general_implication::check(
                    &set,
                    &PathConstraint::inclusion(
                        rpq_automata::Regex::word(&u),
                        rpq_automata::Regex::word(&v),
                    ),
                    &rpq_constraints::general::Budget::default(),
                ) {
                    assert!(
                        sentence.eval(&w.instance, w.source, None, None).unwrap(),
                        "trial {trial}: witness not recognized by the FO² sentence"
                    );
                }
            }
        }
    }
}
