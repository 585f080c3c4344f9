//! A sound axiomatization of path-constraint implication, with derivations.
//!
//! Section 5 of the paper lists as an open problem "devising a sound and (if
//! possible) complete axiomatization for path constraint implication …
//! such an axiomatization may yield rewrite rules of practical use in
//! simplifying path queries under given path constraints." This module
//! builds the sound half: an inference system whose judgments are
//! inclusions `E ⊢ p ⊆ q`, a goal-directed proof search, and printable
//! derivation trees. Completeness is impossible to hope for from a simple
//! finitary system (the decision procedure is 2-EXPSPACE, Theorem 4.2), so
//! the prover is *sound and budgeted*: `Some(derivation)` is a proof,
//! `None` means "not provable within budget."
//!
//! ## The inference rules
//!
//! Semantics: `p ⊆ q` holds at `(o, I)` iff `p(o, I) ⊆ q(o, I)`; `E ⊢` means
//! every instance satisfying `E` (at the source) satisfies the conclusion
//! (at the source). The load-bearing asymmetry: **right-congruence is sound,
//! left-congruence is not** — constraints hold at the source object only, so
//! `p ⊆ q` may fail at the node an `r`-path leads to. All rules below avoid
//! left contexts.
//!
//! | rule | premises ⟹ conclusion | soundness |
//! |---|---|---|
//! | `language` | — ⟹ `p ⊆ q` when `L(p) ⊆ L(q)` | monotone semantics |
//! | `union-left` | `pᵢ ⊆ q` for all arms ⟹ `p₁+…+pₙ ⊆ q` (arms obtained by distributing one union factor of a concatenation) | `(p₁+p₂)(o,I) = p₁(o,I) ∪ p₂(o,I)` |
//! | `union-right` | `p ⊆ qᵢ` ⟹ `p ⊆ q₁+…+qₙ` | subset of a union |
//! | `suffix-strip` | `p' ⊆ q'` ⟹ `p'·r ⊆ q'·r` | right-congruence |
//! | `star-induction` | `ε ⊆ q`, `q·x ⊆ q` ⟹ `x* ⊆ q` | induction on the number of `x`-blocks |
//! | `prefix-rewrite(l ⊆ r)` | `r·s ⊆ q` ⟹ `p ⊆ q` when `p = pre·s` and `L(pre) ⊆ L(l)` | axiom + right-congruence + transitivity |
//! | `suffix-intro(l ⊆ r)` | `p ⊆ l·s` ⟹ `p ⊆ q` when `q = qpre·s` and `L(r) ⊆ L(qpre)` | axiom + right-congruence + transitivity (backwards) |
//!
//! Equalities of `E` contribute both directed inclusions as axioms.
//!
//! ## Safety net
//!
//! Every derivation the prover returns can be replayed ([`Derivation::verify`]
//! re-checks each leaf's language side conditions), and the property suite
//! cross-checks provable goals against the certified refuter of
//! [`crate::general`]: a goal that is both provable and refutable would be a
//! soundness bug in one of the two engines.

use std::collections::HashSet;
use std::fmt::Write as _;

use rpq_automata::ops;
use rpq_automata::simplify::simplify;
use rpq_automata::{Alphabet, Regex};

use crate::types::{ConstraintSet, PathConstraint};

/// Budget and behavior knobs for the proof search.
///
/// The `enable_*` flags exist for rule ablations (bench
/// `t11_det_axioms_simplify` and the test corpus measure which rules are
/// load-bearing on the paper's examples); they default to on.
#[derive(Clone, Debug)]
pub struct ProverConfig {
    /// Maximum derivation depth.
    pub max_depth: usize,
    /// Global cap on expanded goals (the search is exponential in the worst
    /// case; this bounds total work).
    pub max_goals: usize,
    /// Skip the (PSPACE) language-inclusion side conditions when the two
    /// sides' combined AST size exceeds this.
    pub lang_size_limit: usize,
    /// Allow the `star-induction` rule.
    pub enable_star_induction: bool,
    /// Allow the `suffix-strip` rule.
    pub enable_suffix_strip: bool,
    /// Allow the backward `suffix-intro` rule.
    pub enable_suffix_intro: bool,
    /// Allow the forward `prefix-rewrite` rule.
    pub enable_prefix_rewrite: bool,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            max_depth: 12,
            max_goals: 50_000,
            lang_size_limit: 160,
            enable_star_induction: true,
            enable_suffix_strip: true,
            enable_suffix_intro: true,
            enable_prefix_rewrite: true,
        }
    }
}

/// The rule that concludes a derivation node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `L(lhs) ⊆ L(rhs)` outright; no constraints used.
    Language,
    /// Split the left side into union arms; one child per arm.
    UnionLeft,
    /// Commit to one arm of the right-side union.
    UnionRight {
        /// Index of the chosen arm in the (normalized) union.
        arm: usize,
    },
    /// Strip a common syntactic suffix (backward right-congruence).
    SuffixStrip,
    /// Fixpoint induction for a starred left side with the right side as
    /// invariant.
    StarInduction,
    /// Rewrite a prefix of the left side with axiom `l ⊆ r` (forward).
    PrefixRewrite {
        /// Index into [`Prover::axioms`].
        axiom: usize,
    },
    /// Introduce axiom `l ⊆ r` at the head of the right side (backward).
    SuffixIntro {
        /// Index into [`Prover::axioms`].
        axiom: usize,
    },
}

impl Rule {
    fn name(&self) -> String {
        match self {
            Rule::Language => "language".into(),
            Rule::UnionLeft => "union-left".into(),
            Rule::UnionRight { arm } => format!("union-right #{arm}"),
            Rule::SuffixStrip => "suffix-strip".into(),
            Rule::StarInduction => "star-induction".into(),
            Rule::PrefixRewrite { axiom } => format!("prefix-rewrite ax{axiom}"),
            Rule::SuffixIntro { axiom } => format!("suffix-intro ax{axiom}"),
        }
    }
}

/// A derivation tree for a judgment `E ⊢ lhs ⊆ rhs`.
#[derive(Clone, Debug)]
pub struct Derivation {
    /// Left side of the proved inclusion.
    pub lhs: Regex,
    /// Right side of the proved inclusion.
    pub rhs: Regex,
    /// The concluding rule.
    pub rule: Rule,
    /// Premise subderivations, in rule order.
    pub children: Vec<Derivation>,
}

impl Derivation {
    /// Number of nodes in the tree (proof size).
    pub fn num_nodes(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(Derivation::num_nodes)
            .sum::<usize>()
    }

    /// Depth of the tree.
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(Derivation::depth)
            .max()
            .unwrap_or(0)
    }

    /// Re-check the language side conditions of every `language` leaf and
    /// the structural premise shapes. A `true` result means the derivation
    /// replays; it does not re-run the proof search.
    pub fn verify(&self, prover: &Prover<'_>) -> bool {
        let ok_here = match &self.rule {
            Rule::Language => {
                self.children.is_empty() && prover.lang_included(&self.lhs, &self.rhs)
            }
            Rule::UnionLeft => {
                !self.children.is_empty()
                    && self.children.iter().all(|c| c.rhs == self.rhs)
                    && ops::regex_equivalent(
                        &Regex::union(self.children.iter().map(|c| c.lhs.clone()).collect()),
                        &self.lhs,
                    )
            }
            Rule::UnionRight { .. } => {
                self.children.len() == 1
                    && self.children[0].lhs == self.lhs
                    && prover.lang_included(&self.children[0].rhs, &self.rhs)
            }
            Rule::SuffixStrip => {
                // lhs = p'·r and rhs = q'·r for the child (p' ⊆ q') and some
                // common r; recover r by matching sizes is fragile, so check
                // semantically: child.lhs·r == lhs for the r that makes
                // child.rhs·r == rhs. We re-derive r from the stored shapes.
                self.children.len() == 1
                    && suffix_strip_consistent(
                        &self.lhs,
                        &self.rhs,
                        &self.children[0].lhs,
                        &self.children[0].rhs,
                    )
            }
            Rule::StarInduction => {
                if self.children.len() != 2 {
                    return false;
                }
                let inv = &self.rhs;
                let x = match &self.lhs {
                    Regex::Star(x) => (**x).clone(),
                    _ => return false,
                };
                self.children[0].lhs == Regex::Epsilon
                    && self.children[0].rhs == *inv
                    && self.children[1].lhs == simplify(&inv.clone().then(x))
                    && self.children[1].rhs == *inv
            }
            Rule::PrefixRewrite { axiom } => {
                let Some((l, r)) = prover.axioms.get(*axiom) else {
                    return false;
                };
                self.children.len() == 1 && self.children[0].rhs == self.rhs && {
                    // child.lhs must be r·s with lhs = pre·s, L(pre) ⊆ L(l)
                    splits(&self.lhs).into_iter().any(|(pre, suf)| {
                        simplify(&r.clone().then(suf.clone())) == self.children[0].lhs
                            && prover.lang_included(&pre, l)
                    })
                }
            }
            Rule::SuffixIntro { axiom } => {
                let Some((l, r)) = prover.axioms.get(*axiom) else {
                    return false;
                };
                self.children.len() == 1 && self.children[0].lhs == self.lhs && {
                    splits(&self.rhs).into_iter().any(|(qpre, qsuf)| {
                        simplify(&l.clone().then(qsuf.clone())) == self.children[0].rhs
                            && prover.lang_included(r, &qpre)
                    })
                }
            }
        };
        ok_here && self.children.iter().all(|c| c.verify(prover))
    }

    /// Render an indented proof tree.
    pub fn render(&self, alphabet: &Alphabet) -> String {
        let mut out = String::new();
        self.render_into(alphabet, "", true, &mut out);
        out
    }

    fn render_into(&self, ab: &Alphabet, prefix: &str, root: bool, out: &mut String) {
        let connector = if root { "" } else { "└─ " };
        let _ = writeln!(
            out,
            "{prefix}{connector}{} ⊆ {}   [{}]",
            self.lhs.display(ab),
            self.rhs.display(ab),
            self.rule.name()
        );
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}   ")
        };
        for c in &self.children {
            c.render_into(ab, &child_prefix, false, out);
        }
    }
}

/// `lhs = p'·r` and `rhs = q'·r` for some common suffix `r`?
fn suffix_strip_consistent(lhs: &Regex, rhs: &Regex, child_l: &Regex, child_r: &Regex) -> bool {
    for (pre, suf) in splits(lhs) {
        if simplify(&pre) != *child_l {
            continue;
        }
        for (qpre, qsuf) in splits(rhs) {
            if suf == qsuf && simplify(&qpre) == *child_r {
                return true;
            }
        }
    }
    false
}

/// All syntactic decompositions `p = pre·suf`. For a flattened concatenation
/// these are the cut points; every expression also splits trivially as
/// `ε·p` and `p·ε`. Splits inside a star (`x* = x*·x*`) are deliberately not
/// enumerated — soundness needs no completeness here.
fn splits(p: &Regex) -> Vec<(Regex, Regex)> {
    let mut out = Vec::new();
    if let Regex::Concat(parts) = p {
        for k in 0..=parts.len() {
            out.push((
                Regex::concat(parts[..k].to_vec()),
                Regex::concat(parts[k..].to_vec()),
            ));
        }
    } else {
        out.push((Regex::Epsilon, p.clone()));
        out.push((p.clone(), Regex::Epsilon));
    }
    out
}

/// If `p` is a union — or a concatenation with a top-level union factor —
/// return language-preserving arms to case-split on.
fn union_arms(p: &Regex) -> Option<Vec<Regex>> {
    match p {
        Regex::Union(parts) => Some(parts.clone()),
        Regex::Concat(parts) => {
            let idx = parts
                .iter()
                .position(|part| matches!(part, Regex::Union(_)))?;
            let Regex::Union(arms) = &parts[idx] else {
                unreachable!("position() matched a union");
            };
            Some(
                arms.iter()
                    .map(|arm| {
                        let mut whole = parts.clone();
                        whole[idx] = arm.clone();
                        Regex::concat(whole)
                    })
                    .collect(),
            )
        }
        _ => None,
    }
}

/// The proof-search engine for a fixed constraint set.
pub struct Prover<'a> {
    /// Directed axioms `(l, r)` meaning `l ⊆ r`, from the constraint set
    /// (equalities contribute both directions), both sides simplified.
    pub axioms: Vec<(Regex, Regex)>,
    cfg: ProverConfig,
    _set: &'a ConstraintSet,
}

impl<'a> Prover<'a> {
    /// Build a prover over `set` with the given budgets.
    pub fn new(set: &'a ConstraintSet, cfg: ProverConfig) -> Prover<'a> {
        Prover {
            axioms: set
                .iter()
                .flat_map(PathConstraint::as_inclusions)
                .map(|(l, r)| (simplify(&l), simplify(&r)))
                .collect(),
            cfg,
            _set: set,
        }
    }

    /// Try to prove `E ⊢ p ⊆ q`.
    pub fn prove_inclusion(&self, p: &Regex, q: &Regex) -> Option<Derivation> {
        let mut st = SearchState {
            on_path: HashSet::new(),
            goals: 0,
        };
        self.search(&simplify(p), &simplify(q), self.cfg.max_depth, &mut st)
    }

    /// Prove every inclusion of `c` (two for an equality); `None` if any
    /// fails within budget.
    pub fn prove_constraint(&self, c: &PathConstraint) -> Option<Vec<Derivation>> {
        let mut proofs = Vec::new();
        for (p, q) in c.as_inclusions() {
            proofs.push(self.prove_inclusion(&p, &q)?);
        }
        Some(proofs)
    }

    /// Budgeted language inclusion (the `language` side condition).
    fn lang_included(&self, p: &Regex, q: &Regex) -> bool {
        if p.size() + q.size() > self.cfg.lang_size_limit {
            return false;
        }
        ops::regex_included(p, q)
    }

    fn search(
        &self,
        p: &Regex,
        q: &Regex,
        depth: usize,
        st: &mut SearchState,
    ) -> Option<Derivation> {
        if st.goals >= self.cfg.max_goals {
            return None;
        }
        st.goals += 1;

        // 1. language — cheap relative to search, closes most leaves.
        if p.is_empty_lang() || self.lang_included(p, q) {
            return Some(Derivation {
                lhs: p.clone(),
                rhs: q.clone(),
                rule: Rule::Language,
                children: Vec::new(),
            });
        }
        if depth == 0 {
            return None;
        }
        let key = (p.clone(), q.clone());
        if !st.on_path.insert(key.clone()) {
            return None; // cycle
        }
        let result = self.expand(p, q, depth, st);
        st.on_path.remove(&key);
        result
    }

    fn expand(
        &self,
        p: &Regex,
        q: &Regex,
        depth: usize,
        st: &mut SearchState,
    ) -> Option<Derivation> {
        // 2. union-left: case split on the arms of the left side.
        if let Some(arms) = union_arms(p) {
            let mut children = Vec::with_capacity(arms.len());
            let mut all = true;
            for arm in &arms {
                match self.search(&simplify(arm), q, depth - 1, st) {
                    Some(d) => children.push(d),
                    None => {
                        all = false;
                        break;
                    }
                }
            }
            if all {
                return Some(Derivation {
                    lhs: p.clone(),
                    rhs: q.clone(),
                    rule: Rule::UnionLeft,
                    children,
                });
            }
        }

        // 3. suffix-strip: common syntactic suffix on both sides.
        if self.cfg.enable_suffix_strip {
            for (pre, suf) in splits(p) {
                if suf == Regex::Epsilon {
                    continue;
                }
                for (qpre, qsuf) in splits(q) {
                    if qsuf != suf || (qpre == *q && pre == *p) {
                        continue;
                    }
                    if let Some(d) = self.search(&simplify(&pre), &simplify(&qpre), depth - 1, st) {
                        return Some(Derivation {
                            lhs: p.clone(),
                            rhs: q.clone(),
                            rule: Rule::SuffixStrip,
                            children: vec![d],
                        });
                    }
                }
            }
        }

        // 4. star-induction with the right side as invariant.
        if self.cfg.enable_star_induction {
            if let Regex::Star(x) = p {
                let base = self.search(&Regex::Epsilon, q, depth - 1, st);
                if let Some(base) = base {
                    let step_lhs = simplify(&q.clone().then((**x).clone()));
                    if let Some(step) = self.search(&step_lhs, q, depth - 1, st) {
                        return Some(Derivation {
                            lhs: p.clone(),
                            rhs: q.clone(),
                            rule: Rule::StarInduction,
                            children: vec![base, step],
                        });
                    }
                }
            }
        }

        // 5. prefix-rewrite: forward-apply an axiom at the head of `p`.
        if self.cfg.enable_prefix_rewrite {
            for (i, (l, r)) in self.axioms.iter().enumerate() {
                for (pre, suf) in splits(p) {
                    // `p = pre·suf`, `L(pre) ⊆ L(l)` ⟹ `p ⊆ l·suf ⊆ r·suf`.
                    if pre == Regex::Epsilon && *l != Regex::Epsilon {
                        continue; // ε ⊆ l is rarely useful and explodes search
                    }
                    if !self.lang_included(&pre, l) {
                        continue;
                    }
                    let next = simplify(&r.clone().then(suf));
                    if next == *p {
                        continue;
                    }
                    if let Some(d) = self.search(&next, q, depth - 1, st) {
                        return Some(Derivation {
                            lhs: p.clone(),
                            rhs: q.clone(),
                            rule: Rule::PrefixRewrite { axiom: i },
                            children: vec![d],
                        });
                    }
                }
            }
        }

        // 6. suffix-intro: backward-apply an axiom at the head of `q`.
        if self.cfg.enable_suffix_intro {
            for (i, (l, r)) in self.axioms.iter().enumerate() {
                for (qpre, qsuf) in splits(q) {
                    if qpre == Regex::Epsilon && *r != Regex::Epsilon {
                        continue;
                    }
                    if !self.lang_included(r, &qpre) {
                        continue;
                    }
                    let next = simplify(&l.clone().then(qsuf));
                    if next == *q {
                        continue;
                    }
                    if let Some(d) = self.search(p, &next, depth - 1, st) {
                        return Some(Derivation {
                            lhs: p.clone(),
                            rhs: q.clone(),
                            rule: Rule::SuffixIntro { axiom: i },
                            children: vec![d],
                        });
                    }
                }
            }
        }

        // 7. union-right: commit to one arm (after the rules that keep the
        // whole union available, since this one loses information).
        if let Regex::Union(parts) = q {
            for (i, arm) in parts.iter().enumerate() {
                if let Some(d) = self.search(p, &simplify(arm), depth - 1, st) {
                    return Some(Derivation {
                        lhs: p.clone(),
                        rhs: q.clone(),
                        rule: Rule::UnionRight { arm: i },
                        children: vec![d],
                    });
                }
            }
        }

        None
    }
}

struct SearchState {
    on_path: HashSet<(Regex, Regex)>,
    goals: usize,
}

/// Convenience: prove `E ⊢ p ⊆ q` with default budgets.
pub fn prove_inclusion(set: &ConstraintSet, p: &Regex, q: &Regex) -> Option<Derivation> {
    Prover::new(set, ProverConfig::default()).prove_inclusion(p, q)
}

/// Convenience: prove every inclusion of `c` with default budgets.
pub fn prove_constraint(set: &ConstraintSet, c: &PathConstraint) -> Option<Vec<Derivation>> {
    Prover::new(set, ProverConfig::default()).prove_constraint(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general::{check, Budget, Verdict};
    use crate::types::parse_constraint;
    use rpq_automata::{parse_regex, Alphabet};

    fn setup(constraints: &[&str]) -> (Alphabet, ConstraintSet) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, constraints.iter().copied()).unwrap();
        (ab, set)
    }

    fn prove(ab: &mut Alphabet, set: &ConstraintSet, p: &str, q: &str) -> Option<Derivation> {
        let p = parse_regex(ab, p).unwrap();
        let q = parse_regex(ab, q).unwrap();
        prove_inclusion(set, &p, &q)
    }

    #[test]
    fn language_leaf_needs_no_axioms() {
        let (mut ab, set) = setup(&[]);
        let d = prove(&mut ab, &set, "a.(b.a)*.c", "(a.b)*.a.c").unwrap();
        assert_eq!(d.rule, Rule::Language);
        assert!(d.verify(&Prover::new(&set, ProverConfig::default())));
    }

    #[test]
    fn example2_star_induction() {
        // X2: {ll ⊆ l} ⊢ l* ⊆ l + ε (the hard direction).
        let (mut ab, set) = setup(&["l.l <= l"]);
        let d = prove(&mut ab, &set, "l*", "l + ()").unwrap();
        assert!(d.verify(&Prover::new(&set, ProverConfig::default())));
        // And the easy direction is a language fact.
        let d2 = prove(&mut ab, &set, "l + ()", "l*").unwrap();
        assert_eq!(d2.rule, Rule::Language);
    }

    #[test]
    fn example3_cached_query() {
        // X3: {l = (ab)*} ⊢ a(ba)*c = l·a·c, both directions.
        let (mut ab, set) = setup(&["l = (a.b)*"]);
        let d1 = prove(&mut ab, &set, "a.(b.a)*.c", "l.a.c").unwrap();
        assert!(d1.verify(&Prover::new(&set, ProverConfig::default())));
        let d2 = prove(&mut ab, &set, "l.a.c", "a.(b.a)*.c").unwrap();
        assert!(d2.verify(&Prover::new(&set, ProverConfig::default())));
    }

    #[test]
    fn example1_corrected_envelope() {
        // Corrected X1: under Σ*·l ⊆ ε, (la+lb)*·d ⊆ (ε+a+b)·d.
        let (mut ab, set) = setup(&["(l+a+b+d)*.l <= ()"]);
        let d = prove(&mut ab, &set, "(l.a + l.b)*.d", "(() + a + b).d").unwrap();
        assert!(d.verify(&Prover::new(&set, ProverConfig::default())));
        let mut rendered = d.render(&ab);
        rendered.truncate(200);
        assert!(rendered.contains("star-induction") || rendered.contains("suffix-strip"));
    }

    #[test]
    fn word_chain_via_prefix_rewrite() {
        // {u ⊆ v, v·w ⊆ x} ⊢ u·w ⊆ x (the rewrite-system motivation of §4).
        let (mut ab, set) = setup(&["u <= v", "v.w <= x"]);
        let d = prove(&mut ab, &set, "u.w", "x").unwrap();
        assert!(d.verify(&Prover::new(&set, ProverConfig::default())));
    }

    #[test]
    fn unprovable_goals_return_none() {
        let (mut ab, set) = setup(&["a <= b"]);
        // b ⊆ a does not follow from a ⊆ b.
        assert!(prove(&mut ab, &set, "b", "a").is_none());
        // And nothing proves a fresh symbol inclusion.
        assert!(prove(&mut ab, &set, "c", "d").is_none());
    }

    #[test]
    fn mirror_cache_rewrite() {
        // Mirror-site style: {m = s} ⊢ m·x·y ⊆ s·x·y.
        let (mut ab, set) = setup(&["m = s"]);
        let d = prove(&mut ab, &set, "m.x.y", "s.x.y").unwrap();
        assert!(d.verify(&Prover::new(&set, ProverConfig::default())));
    }

    #[test]
    fn renders_readable_tree() {
        let (mut ab, set) = setup(&["l.l <= l"]);
        let d = prove(&mut ab, &set, "l*", "l + ()").unwrap();
        let text = d.render(&ab);
        assert!(text.contains("l* ⊆ ()+l"));
        assert!(text.lines().count() >= 2);
    }

    #[test]
    fn derivation_statistics() {
        let (mut ab, set) = setup(&["l.l <= l"]);
        let d = prove(&mut ab, &set, "l*", "l + ()").unwrap();
        assert!(d.num_nodes() >= 3);
        assert!(d.depth() >= 2);
    }

    #[test]
    fn provable_is_never_refuted() {
        // Cross-engine soundness net on a family of goal/axiom pairs.
        let cases: Vec<(&[&str], &str)> = vec![
            (&["l.l <= l"], "l* <= l + ()"),
            (&["l = (a.b)*"], "a.(b.a)*.c = l.a.c"),
            (&["u <= v", "v.w <= x"], "u.w <= x"),
            (&["m = s"], "m.x <= s.x"),
            (&["a.a <= a"], "a.a.a <= a"),
        ];
        for (axioms, goal) in cases {
            let mut ab = Alphabet::new();
            let set = ConstraintSet::parse(&mut ab, axioms.iter().copied()).unwrap();
            let c = parse_constraint(&mut ab, goal).unwrap();
            let proofs = prove_constraint(&set, &c);
            assert!(proofs.is_some(), "expected a proof for {goal}");
            if let Verdict::Refuted(_) = check(&set, &c, &Budget::default()) {
                panic!("prover and refuter disagree on {goal}")
            }
        }
    }

    #[test]
    fn goal_budget_is_respected() {
        let (mut ab, set) = setup(&["a <= b", "b <= c", "c <= a"]);
        let p = parse_regex(&mut ab, "a.a.a.a.a.a").unwrap();
        let q = parse_regex(&mut ab, "d").unwrap();
        let prover = Prover::new(
            &set,
            ProverConfig {
                max_goals: 50,
                ..ProverConfig::default()
            },
        );
        // Unprovable; must terminate quickly under the budget.
        assert!(prover.prove_inclusion(&p, &q).is_none());
    }
    #[test]
    fn rule_ablations_show_which_rules_are_load_bearing() {
        // X2 needs star-induction; X3 needs suffix-intro (or the
        // prefix-rewrite direction); the corrected X1 needs suffix-strip
        // AND star-induction. Disabling the responsible rule must lose the
        // proof, and re-enabling it must restore it.
        let corpus: Vec<(&[&str], &str, &str)> = vec![
            (&["l.l <= l"], "l* <= l + ()", "star_induction"),
            (&["l = (a.b)*"], "a.(b.a)*.c <= l.a.c", "suffix_intro"),
            (
                &["(l+a+b+d)*.l <= ()"],
                "(l.a + l.b)*.d <= (() + a + b).d",
                "suffix_strip",
            ),
        ];
        for (axioms, goal, critical) in corpus {
            let mut ab = Alphabet::new();
            let set = ConstraintSet::parse(&mut ab, axioms.iter().copied()).unwrap();
            let c = parse_constraint(&mut ab, goal).unwrap();
            let full = Prover::new(&set, ProverConfig::default());
            assert!(full.prove_constraint(&c).is_some(), "{goal} with all rules");
            let ablated_cfg = match critical {
                "star_induction" => ProverConfig {
                    enable_star_induction: false,
                    ..ProverConfig::default()
                },
                "suffix_intro" => ProverConfig {
                    enable_suffix_intro: false,
                    ..ProverConfig::default()
                },
                "suffix_strip" => ProverConfig {
                    enable_suffix_strip: false,
                    ..ProverConfig::default()
                },
                _ => unreachable!(),
            };
            let ablated = Prover::new(&set, ablated_cfg);
            assert!(
                ablated.prove_constraint(&c).is_none(),
                "{goal} should need {critical}"
            );
        }
    }

    #[test]
    fn corrupted_derivations_fail_verification() {
        let (mut ab, set) = setup(&["l.l <= l"]);
        let prover = Prover::new(&set, ProverConfig::default());
        let p = parse_regex(&mut ab, "l*").unwrap();
        let q = parse_regex(&mut ab, "l + ()").unwrap();
        let good = prover.prove_inclusion(&p, &q).unwrap();
        assert!(good.verify(&prover));

        // Claim something false at the root.
        let mut bad = good.clone();
        bad.rhs = parse_regex(&mut ab, "l").unwrap();
        assert!(!bad.verify(&prover), "changed conclusion must not verify");

        // Fabricate a language leaf for a non-inclusion.
        let fake = Derivation {
            lhs: parse_regex(&mut ab, "l.l").unwrap(),
            rhs: parse_regex(&mut ab, "l").unwrap(),
            rule: Rule::Language,
            children: Vec::new(),
        };
        assert!(!fake.verify(&prover));

        // Point an axiom rule at the wrong axiom index.
        let fake_ax = Derivation {
            lhs: parse_regex(&mut ab, "l.l").unwrap(),
            rhs: parse_regex(&mut ab, "l").unwrap(),
            rule: Rule::PrefixRewrite { axiom: 99 },
            children: vec![Derivation {
                lhs: parse_regex(&mut ab, "l").unwrap(),
                rhs: parse_regex(&mut ab, "l").unwrap(),
                rule: Rule::Language,
                children: Vec::new(),
            }],
        };
        assert!(!fake_ax.verify(&prover));
    }
}
