//! The canonical bounded instance of Lemma 4.4 (Figure 4).
//!
//! For a finite set `E` of word constraints and a bound `k`, the lemma's
//! completeness proof builds a finite instance `(o, I)` such that for all
//! words `u, v` of length ≤ k: `(o, I) ⊨ u ⊆ v` iff `u →*_E v`. Vertices
//! are the ≈-classes of words (`u ≈ v` iff they rewrite into each other),
//! `obj(û) = {o_ψ | ψ ⪯ û}` with `ψ ⪯ û` iff `ψ`'s words rewrite to `û`'s,
//! and each `o_û` has an `a`-edge to *every* member of `obj(ûa)`.
//!
//! The paper works the example `E = {a² ⊆ a}`, `k = 3` (Figure 4);
//! `rpq-bench`'s `paper-figures f4` reprints it from this construction.

use rpq_automata::{Alphabet, Symbol};
use rpq_constraints::{ConstraintSet, RewriteSystem};
use rpq_graph::{Instance, Oid};

use crate::rewrite::rewrite_to_word_nfa;

/// The Lemma 4.4 instance with its class structure exposed.
#[derive(Clone, Debug)]
pub struct CanonicalInstance {
    /// The instance `I`.
    pub instance: Instance,
    /// The source `o = o_ε̂`.
    pub source: Oid,
    /// Representative word of each class; index = vertex oid index.
    pub class_reps: Vec<Vec<Symbol>>,
    /// `obj(û)` per class: the classes ⪯ it (as vertex oids).
    pub obj: Vec<Vec<Oid>>,
}

/// Errors from [`lemma44_instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonicalError {
    /// `E` contains non-word constraints.
    NotWordConstraints,
    /// `|Σ|^k` exceeds the safety cap (the construction enumerates words).
    TooLarge {
        /// Number of words that would be enumerated.
        words: usize,
    },
    /// `E` *derives* `u ⊆ ε` without `ε ⊆ u` for some `u` (e.g.
    /// `{a = ε, b ⊆ a}` derives `b ⊆ ε` only). The paper's convention
    /// completes syntactic `u ⊆ ε` rules, but its least-element argument
    /// for `ε̂` ("for each u ⊆ ε we also have ε ⊆ u", proof of Lemma 4.4)
    /// needs the same for *derived* ones — such sets behave like the
    /// emptiness constraints the paper explicitly excludes, so we reject
    /// them here rather than build an instance violating `E`.
    DerivedEmptiness {
        /// A class representative that rewrites to ε but is not reachable
        /// back from ε.
        witness: Vec<Symbol>,
    },
}

impl std::fmt::Display for CanonicalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CanonicalError::NotWordConstraints => {
                write!(f, "Lemma 4.4 construction requires word constraints")
            }
            CanonicalError::TooLarge { words } => {
                write!(
                    f,
                    "construction would enumerate {words} words; raise the cap"
                )
            }
            CanonicalError::DerivedEmptiness { .. } => {
                write!(
                    f,
                    "E derives u ⊆ ε without ε ⊆ u (emptiness-like constraint, \
                     excluded by the paper's Section 4.2 convention)"
                )
            }
        }
    }
}

impl std::error::Error for CanonicalError {}

/// Build the Lemma 4.4 instance for `E` restricted to words of length ≤ k
/// over `symbols`. Enumerates `O(|Σ|^k)` words — intended for the small
/// parameters of figures and tests (a cap of 100 000 words is enforced).
pub fn lemma44_instance(
    set: &ConstraintSet,
    symbols: &[Symbol],
    k: usize,
    alphabet: &Alphabet,
) -> Result<CanonicalInstance, CanonicalError> {
    if !set.all_word_constraints() {
        return Err(CanonicalError::NotWordConstraints);
    }
    let sigma = symbols.len().max(1);
    let mut word_count = 1usize;
    let mut total = 1usize;
    for _ in 0..k {
        word_count = word_count.saturating_mul(sigma);
        total = total.saturating_add(word_count);
    }
    if total > 100_000 {
        return Err(CanonicalError::TooLarge { words: total });
    }

    let rules = RewriteSystem::from_constraints(set);

    // Enumerate words length ≤ k in (length, lex) order.
    let mut words: Vec<Vec<Symbol>> = vec![vec![]];
    let mut layer: Vec<Vec<Symbol>> = vec![vec![]];
    for _ in 0..k {
        let mut next = Vec::with_capacity(layer.len() * sigma);
        for w in &layer {
            for &s in symbols {
                let mut w2 = w.clone();
                w2.push(s);
                next.push(w2);
            }
        }
        words.extend(next.iter().cloned());
        layer = next;
    }

    // Group into ≈-classes. For each class keep the pre*({rep}) automaton
    // so membership tests (u →* rep) are cheap; the other direction
    // (rep →* u) uses a per-word pre*({u}) automaton.
    let mut class_reps: Vec<Vec<Symbol>> = Vec::new();
    let mut class_autos: Vec<rpq_automata::Nfa> = Vec::new();
    let mut class_of_word: Vec<usize> = Vec::with_capacity(words.len());
    for w in &words {
        let pre_w = rewrite_to_word_nfa(w, &rules).nfa;
        let mut found = None;
        for (c, rep) in class_reps.iter().enumerate() {
            // w ≈ rep iff w →* rep and rep →* w
            if class_autos[c].accepts(w) && pre_w.accepts(rep) {
                found = Some(c);
                break;
            }
        }
        let c = match found {
            Some(c) => c,
            None => {
                class_reps.push(w.clone());
                class_autos.push(pre_w);
                class_reps.len() - 1
            }
        };
        class_of_word.push(c);
    }

    // Partial order ⪯: class i ⪯ class j iff rep_i →* rep_j.
    let ncls = class_reps.len();
    let mut leq = vec![vec![false; ncls]; ncls];
    for i in 0..ncls {
        for j in 0..ncls {
            leq[i][j] = class_autos[j].accepts(&class_reps[i]);
        }
    }

    // The ε class must be a least element of ⪯ (proof of Lemma 4.4); a
    // strictly smaller class witnesses a derived emptiness-like constraint.
    let eps_class = class_of_word[0];
    for c in 0..ncls {
        if c != eps_class && leq[c][eps_class] && !leq[eps_class][c] {
            return Err(CanonicalError::DerivedEmptiness {
                witness: class_reps[c].clone(),
            });
        }
    }

    // obj(j) = {o_i | i ⪯ j}
    let obj: Vec<Vec<Oid>> = (0..ncls)
        .map(|j| {
            (0..ncls)
                .filter(|&i| leq[i][j])
                .map(|i| Oid(i as u32))
                .collect()
        })
        .collect();

    // Build the instance: one vertex per class; for each word u (|u| < k)
    // and symbol a, an a-edge from o_û to every member of obj(ûa). The
    // enumeration is breadth-first with one child per symbol, so the child
    // of word `i` by the `j`-th symbol is word `i·|symbols| + j + 1`.
    let mut instance = Instance::new();
    for rep in &class_reps {
        instance.add_named_node(&alphabet.render_word(rep));
    }
    for (i, w) in words.iter().enumerate() {
        if w.len() >= k {
            continue;
        }
        let from = Oid(class_of_word[i] as u32);
        for (j, &a) in symbols.iter().enumerate() {
            let target_class = class_of_word[i * symbols.len() + j + 1];
            for &o in &obj[target_class] {
                instance.add_edge(from, a, o);
            }
        }
    }

    let source = Oid(eps_class as u32);
    Ok(CanonicalInstance {
        instance,
        source,
        class_reps,
        obj,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Nfa;
    use rpq_core::eval_product;

    fn fig4() -> (Alphabet, CanonicalInstance) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a.a <= a"]).unwrap();
        let a = ab.get("a").unwrap();
        let ci = lemma44_instance(&set, &[a], 3, &ab).unwrap();
        (ab, ci)
    }

    #[test]
    fn fig4_has_four_classes() {
        let (_, ci) = fig4();
        // ε, a, a², a³ are pairwise inequivalent under {aa ⊆ a}
        assert_eq!(ci.class_reps.len(), 4);
        assert_eq!(ci.instance.num_nodes(), 4);
    }

    #[test]
    fn fig4_obj_sets_match_paper() {
        let (_, ci) = fig4();
        // obj(ε)={ε}, obj(a³)={a³}, obj(a²)={a²,a³}, obj(a)={a,a²,a³}
        let len_of = |o: Oid| ci.class_reps[o.index()].len();
        let objs: Vec<Vec<usize>> = ci
            .obj
            .iter()
            .map(|v| {
                let mut ls: Vec<usize> = v.iter().map(|&o| len_of(o)).collect();
                ls.sort();
                ls
            })
            .collect();
        // find the classes by rep length
        for (c, rep) in ci.class_reps.iter().enumerate() {
            match rep.len() {
                0 => assert_eq!(objs[c], vec![0]),
                1 => assert_eq!(objs[c], vec![1, 2, 3]),
                2 => assert_eq!(objs[c], vec![2, 3]),
                3 => assert_eq!(objs[c], vec![3]),
                _ => panic!("unexpected rep"),
            }
        }
    }

    #[test]
    fn fig4_word_answers_equal_obj() {
        // u(o, I) = obj(û) — the claim (✳) of the proof.
        let (ab, ci) = fig4();
        let a = ab.get("a").unwrap();
        for len in 0..=3usize {
            let word = vec![a; len];
            let nfa = Nfa::from_word(&word);
            let ans = eval_product(&nfa, &ci.instance, ci.source).answers;
            // find the class of a^len by rep
            let c = ci
                .class_reps
                .iter()
                .position(|r| r.len() == len)
                .expect("class exists");
            let mut expected = ci.obj[c].clone();
            expected.sort();
            assert_eq!(ans, expected, "a^{len}(o, I)");
        }
    }

    #[test]
    fn instance_satisfies_exactly_implied_short_constraints() {
        // For words ≤ k: (o,I) ⊨ u ⊆ v iff u →* v.
        let (ab, ci) = fig4();
        let a = ab.get("a").unwrap();
        let mut ab2 = ab.clone();
        let set = ConstraintSet::parse(&mut ab2, ["a.a <= a"]).unwrap();
        let rules = RewriteSystem::from_constraints(&set);
        for i in 0..=3usize {
            for j in 0..=3usize {
                let u = vec![a; i];
                let v = vec![a; j];
                let semantic = {
                    let au = eval_product(&Nfa::from_word(&u), &ci.instance, ci.source).answers;
                    let av = eval_product(&Nfa::from_word(&v), &ci.instance, ci.source).answers;
                    au.iter().all(|o| av.binary_search(o).is_ok())
                };
                let syntactic = crate::rewrite::rewrites_to(&rules, &u, &v);
                assert_eq!(semantic, syntactic, "a^{i} ⊆ a^{j}");
            }
        }
    }

    #[test]
    fn two_letter_alphabet_classes() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a.b = b.a"]).unwrap();
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let ci = lemma44_instance(&set, &[a, b], 2, &ab).unwrap();
        // words: ε,a,b,aa,ab,ba,bb → ab ≈ ba merge: 6 classes
        assert_eq!(ci.class_reps.len(), 6);
    }

    #[test]
    fn size_cap_enforced() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a <= b"]).unwrap();
        let syms: Vec<Symbol> = (0..10).map(|i| ab.intern(&format!("s{i}"))).collect();
        let err = lemma44_instance(&set, &syms, 6, &ab).unwrap_err();
        assert!(matches!(err, CanonicalError::TooLarge { .. }));
    }

    #[test]
    fn non_word_sets_rejected() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a* <= b"]).unwrap();
        let a = ab.get("a").unwrap();
        let err = lemma44_instance(&set, &[a], 2, &ab).unwrap_err();
        assert_eq!(err, CanonicalError::NotWordConstraints);
    }
}

#[cfg(test)]
mod emptiness_tests {
    use super::*;

    #[test]
    fn derived_emptiness_is_rejected() {
        // {a = ε, b ⊆ a} derives b ⊆ ε but not ε ⊆ b: ε̂ would not be a
        // least element and the construction would violate E.
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a = ()", "b <= a"]).unwrap();
        let syms: Vec<Symbol> = ab.symbols().collect();
        match lemma44_instance(&set, &syms, 2, &ab) {
            Err(CanonicalError::DerivedEmptiness { witness }) => {
                assert_eq!(witness.len(), 1); // the class of b
            }
            other => panic!("expected DerivedEmptiness, got {other:?}"),
        }
    }

    #[test]
    fn syntactic_epsilon_rules_still_work() {
        // u ⊆ ε with the ε-completion is fine: a = ε collapses everything.
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a <= ()"]).unwrap();
        let a = ab.get("a").unwrap();
        let ci = lemma44_instance(&set, &[a], 3, &ab).unwrap();
        assert_eq!(ci.class_reps.len(), 1);
        assert!(set.holds_at(&ci.instance, ci.source));
    }
}
