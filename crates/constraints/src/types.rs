//! Path constraints (Definition 4.1) and constraint sets.
//!
//! A *path inclusion* `p ⊆ q` holds at `(o, I)` when `p(o, I) ⊆ q(o, I)`;
//! a *path equality* `p = q` when the answer sets coincide. When both sides
//! are single words the constraint is a *word* constraint — the tractable
//! class of Section 4.2. Following the paper's convention, whenever
//! `u ⊆ ε` is present for a word `u`, the set is completed with `ε ⊆ u`
//! (avoiding the degenerate "emptiness constraints" the paper excludes).

use std::fmt;
use std::sync::{Arc, OnceLock};

use rpq_automata::{parse_regex, Alphabet, Nfa, ParseError, Regex, Symbol};
use rpq_core::eval_product;
use rpq_graph::{Instance, Oid};

/// Inclusion or equality.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `lhs ⊆ rhs`.
    Inclusion,
    /// `lhs = rhs`.
    Equality,
}

/// A path constraint `lhs ⊆ rhs` or `lhs = rhs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathConstraint {
    /// Left-hand side.
    pub lhs: Regex,
    /// Right-hand side.
    pub rhs: Regex,
    /// Inclusion or equality.
    pub kind: ConstraintKind,
}

impl PathConstraint {
    /// An inclusion constraint.
    pub fn inclusion(lhs: Regex, rhs: Regex) -> PathConstraint {
        PathConstraint {
            lhs,
            rhs,
            kind: ConstraintKind::Inclusion,
        }
    }

    /// An equality constraint.
    pub fn equality(lhs: Regex, rhs: Regex) -> PathConstraint {
        PathConstraint {
            lhs,
            rhs,
            kind: ConstraintKind::Equality,
        }
    }

    /// Is this a *word* constraint (both sides single words)?
    pub fn is_word_constraint(&self) -> bool {
        self.lhs.as_word().is_some() && self.rhs.as_word().is_some()
    }

    /// The word pair, when this is a word constraint.
    pub fn as_word_pair(&self) -> Option<(Vec<Symbol>, Vec<Symbol>)> {
        Some((self.lhs.as_word()?, self.rhs.as_word()?))
    }

    /// View as the list of inclusions it denotes (1 for ⊆, 2 for =).
    pub fn as_inclusions(&self) -> Vec<(Regex, Regex)> {
        match self.kind {
            ConstraintKind::Inclusion => vec![(self.lhs.clone(), self.rhs.clone())],
            ConstraintKind::Equality => vec![
                (self.lhs.clone(), self.rhs.clone()),
                (self.rhs.clone(), self.lhs.clone()),
            ],
        }
    }

    /// Does the constraint hold at `(source, instance)`? Direct evaluation
    /// (the semantics of Definition 4.1) — the final arbiter used to verify
    /// every witness the decision procedures produce.
    pub fn holds_at(&self, instance: &Instance, source: Oid) -> bool {
        let l = eval_product(&Nfa::thompson(&self.lhs), instance, source).answers;
        let r = eval_product(&Nfa::thompson(&self.rhs), instance, source).answers;
        match self.kind {
            ConstraintKind::Inclusion => l.iter().all(|o| r.binary_search(o).is_ok()),
            ConstraintKind::Equality => l == r,
        }
    }

    /// All symbols mentioned.
    pub fn symbols(&self) -> Vec<Symbol> {
        let mut s = self.lhs.symbols();
        s.extend(self.rhs.symbols());
        s.sort();
        s.dedup();
        s
    }

    /// Render against an alphabet (`⊆` prints as `<=`).
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> ConstraintDisplay<'a> {
        ConstraintDisplay { c: self, alphabet }
    }
}

/// Display helper for [`PathConstraint`].
pub struct ConstraintDisplay<'a> {
    c: &'a PathConstraint,
    alphabet: &'a Alphabet,
}

impl fmt::Display for ConstraintDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.c.kind {
            ConstraintKind::Inclusion => "<=",
            ConstraintKind::Equality => "=",
        };
        write!(
            f,
            "{} {} {}",
            self.c.lhs.display(self.alphabet),
            op,
            self.c.rhs.display(self.alphabet)
        )
    }
}

/// Parse a constraint: `p <= q` (inclusion) or `p = q` (equality). The paper
/// writes inclusion as `⊆`, which is also accepted.
pub fn parse_constraint(alphabet: &mut Alphabet, src: &str) -> Result<PathConstraint, ParseError> {
    let (op_pos, op_len, kind) = find_op(src).ok_or_else(|| {
        let mut e = ParseError::new(0, "expected `<=`, `⊆`, or `=` between two path expressions");
        e.end = src.len();
        e.expected = vec!["'<='", "'⊆'", "'='"];
        e
    })?;
    let lhs = parse_regex(alphabet, &src[..op_pos])?;
    let rhs =
        parse_regex(alphabet, &src[op_pos + op_len..]).map_err(|e| e.offset(op_pos + op_len))?;
    Ok(PathConstraint { lhs, rhs, kind })
}

fn find_op(src: &str) -> Option<(usize, usize, ConstraintKind)> {
    if let Some(i) = src.find("<=") {
        return Some((i, 2, ConstraintKind::Inclusion));
    }
    if let Some(i) = src.find('⊆') {
        return Some((i, '⊆'.len_utf8(), ConstraintKind::Inclusion));
    }
    // Plain `=` must not be inside a quoted label; scan outside quotes.
    let bytes = src.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'=' if !in_str => return Some((i, 1, ConstraintKind::Equality)),
            _ => {}
        }
        i += 1;
    }
    None
}

/// A cache definition `label = body`: an equality of the set with a
/// single label on one side and, on the other, a body that is not itself a
/// label or `ε` (the cache link of Section 3.2: "the answer to query q at
/// site o could be saved and accessed from o by links labeled l_q"). This
/// is the one definition of "a cache" the optimizer's view search reads;
/// see [`ConstraintSet::caches`].
#[derive(Clone, Debug)]
pub struct CacheDef {
    /// The cache link label.
    pub label: Symbol,
    /// The cached query.
    pub body: Regex,
    /// Thompson automaton of `body`.
    pub nfa: Nfa,
    /// Is `L(body)` empty? (Every tail is then vacuously safe.)
    pub empty: bool,
}

/// The right-hand side of a [`ClosureRule`], by how
/// [`crate::rewrite_closure_nfa`] wires it.
#[derive(Clone, Debug)]
pub(crate) enum ClosureRhs {
    /// A single word: ε-wired by word saturation.
    Word(Vec<Symbol>),
    /// A trimmed automaton of a non-empty language: universal wiring.
    Regex(Nfa),
    /// `∅`: `answers(lhs) = ∅` at a satisfying site, so the exits lead to
    /// the closure's universal state.
    Empty,
}

/// One directed inclusion `lhs ⊆ rhs` of the set (an equality gives two),
/// compiled for [`crate::rewrite_closure_nfa`].
#[derive(Clone, Debug)]
pub(crate) struct ClosureRule {
    /// The two sides as written, for the one-step proof
    /// ([`crate::Closures::one_step`]).
    pub(crate) sides: (Regex, Regex),
    /// Thompson automaton of the left-hand side.
    pub(crate) lhs: Nfa,
    /// The symbols of the left-hand side, sorted.
    pub(crate) lhs_symbols: Vec<Symbol>,
    pub(crate) rhs: ClosureRhs,
}

/// What depends on the constraints alone, each part compiled on first use
/// and dropped by [`ConstraintSet::add`]. Clones of a set share the parts
/// already compiled, so a planner that keeps its set pays once per engine.
#[derive(Clone, Debug, Default)]
struct Compiled {
    /// `(all word constraints, all word equalities)`.
    word_classes: OnceLock<(bool, bool)>,
    caches: OnceLock<Arc<[CacheDef]>>,
    closure_rules: OnceLock<Arc<[ClosureRule]>>,
}

/// A finite set `E` of path constraints with the normalizations of
/// Section 4.2 applied.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSet {
    constraints: Vec<PathConstraint>,
    compiled: Compiled,
}

impl ConstraintSet {
    /// Empty set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Build from constraints, applying the ε-completion: for every word
    /// inclusion `u ⊆ ε` the symmetric `ε ⊆ u` is added (the paper assumes
    /// this to exclude emptiness constraints).
    pub fn from_constraints<I>(constraints: I) -> ConstraintSet
    where
        I: IntoIterator<Item = PathConstraint>,
    {
        let mut set = ConstraintSet::new();
        for c in constraints {
            set.add(c);
        }
        set
    }

    /// Parse several constraints (one per line / iterator item).
    pub fn parse<I, S>(alphabet: &mut Alphabet, lines: I) -> Result<ConstraintSet, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = ConstraintSet::new();
        for line in lines {
            let line = line.as_ref().trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.add(parse_constraint(alphabet, line)?);
        }
        Ok(out)
    }

    /// Add one constraint (with ε-completion).
    pub fn add(&mut self, c: PathConstraint) {
        if let Some((u, v)) = c.as_word_pair() {
            if v.is_empty() && !u.is_empty() && c.kind == ConstraintKind::Inclusion {
                let completion = PathConstraint::inclusion(Regex::Epsilon, Regex::word(&u));
                if !self.constraints.contains(&completion) {
                    self.constraints.push(completion);
                }
            }
        }
        if !self.constraints.contains(&c) {
            self.constraints.push(c);
        }
        self.compiled = Compiled::default();
    }

    /// The constraints.
    pub fn iter(&self) -> impl Iterator<Item = &PathConstraint> {
        self.constraints.iter()
    }

    /// Number of constraints (after normalization).
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    fn word_classes(&self) -> (bool, bool) {
        *self.compiled.word_classes.get_or_init(|| {
            let words = self
                .constraints
                .iter()
                .all(PathConstraint::is_word_constraint);
            let equalities = self
                .constraints
                .iter()
                .all(|c| c.kind == ConstraintKind::Equality);
            (words, words && equalities)
        })
    }

    /// Are *all* constraints word constraints (the Theorem 4.3 class)?
    pub fn all_word_constraints(&self) -> bool {
        self.word_classes().0
    }

    /// Are all constraints word *equalities* (the Section 4.3 class)?
    pub fn all_word_equalities(&self) -> bool {
        self.word_classes().1
    }

    /// The cache definitions of the set — equalities with a single label
    /// on one side and a body longer than a label on the other — in
    /// constraint order, the `label = body` reading before `body = label`.
    pub fn caches(&self) -> &[CacheDef] {
        self.compiled.caches.get_or_init(|| {
            let mut out = Vec::new();
            for c in &self.constraints {
                if c.kind != ConstraintKind::Equality {
                    continue;
                }
                for (label_side, body) in [(&c.lhs, &c.rhs), (&c.rhs, &c.lhs)] {
                    let Some(&[label]) = label_side.as_word().as_deref() else {
                        continue;
                    };
                    if body.as_word().is_some_and(|w| w.len() <= 1) {
                        continue; // a genuine cache: single label = larger query
                    }
                    let nfa = Nfa::thompson(body);
                    out.push(CacheDef {
                        label,
                        body: body.clone(),
                        empty: nfa.is_empty_lang(),
                        nfa,
                    });
                }
            }
            out.into()
        })
    }

    /// The directed inclusions of the set, as written and as automata, in
    /// the order [`crate::rewrite_closure_nfa`] embeds them.
    pub(crate) fn closure_rules(&self) -> &[ClosureRule] {
        self.compiled.closure_rules.get_or_init(|| {
            self.constraints
                .iter()
                .flat_map(PathConstraint::as_inclusions)
                .map(|(lhs, rhs)| ClosureRule {
                    lhs: Nfa::thompson(&lhs),
                    lhs_symbols: lhs.symbols(),
                    rhs: match rhs.as_word() {
                        Some(word) => ClosureRhs::Word(word),
                        None => {
                            let nfa = Nfa::thompson(&rhs).trim();
                            if nfa.is_empty_lang() {
                                ClosureRhs::Empty
                            } else {
                                ClosureRhs::Regex(nfa)
                            }
                        }
                    },
                    sides: (lhs, rhs),
                })
                .collect()
        })
    }

    /// All symbols mentioned by any constraint.
    pub fn symbols(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for c in &self.constraints {
            out.extend(c.symbols());
        }
        out.sort();
        out.dedup();
        out
    }

    /// Longest word occurring in a word constraint (the paper's `M`).
    pub fn max_word_len(&self) -> usize {
        self.constraints
            .iter()
            .filter_map(|c| {
                let (u, v) = c.as_word_pair()?;
                Some(u.len().max(v.len()))
            })
            .max()
            .unwrap_or(0)
    }

    /// Do all constraints hold at `(source, instance)`?
    pub fn holds_at(&self, instance: &Instance, source: Oid) -> bool {
        self.constraints
            .iter()
            .all(|c| c.holds_at(instance, source))
    }
}

impl FromIterator<PathConstraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = PathConstraint>>(iter: T) -> Self {
        ConstraintSet::from_constraints(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::InstanceBuilder;

    #[test]
    fn parse_inclusion_and_equality() {
        let mut ab = Alphabet::new();
        let c = parse_constraint(&mut ab, "a.b <= c").unwrap();
        assert_eq!(c.kind, ConstraintKind::Inclusion);
        assert!(c.is_word_constraint());
        let c2 = parse_constraint(&mut ab, "a.(b)* = d").unwrap();
        assert_eq!(c2.kind, ConstraintKind::Equality);
        assert!(!c2.is_word_constraint());
        let c3 = parse_constraint(&mut ab, "a ⊆ b").unwrap();
        assert_eq!(c3.kind, ConstraintKind::Inclusion);
    }

    #[test]
    fn parse_rejects_garbage() {
        let mut ab = Alphabet::new();
        assert!(parse_constraint(&mut ab, "a b c").is_err());
        assert!(parse_constraint(&mut ab, "<= a").is_err());
        assert!(parse_constraint(&mut ab, "a <= ").is_err());
    }

    #[test]
    fn equals_inside_quotes_is_not_an_operator() {
        let mut ab = Alphabet::new();
        let c = parse_constraint(&mut ab, r#""content=x" <= l"#).unwrap();
        assert_eq!(c.kind, ConstraintKind::Inclusion);
        assert!(ab.get("content=x").is_some());
    }

    #[test]
    fn epsilon_completion_applied() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a.b <= ()"]).unwrap();
        // u ⊆ ε forces ε ⊆ u to be present too
        assert_eq!(set.len(), 2);
        assert!(set
            .iter()
            .any(|c| c.lhs == Regex::Epsilon && c.kind == ConstraintKind::Inclusion));
    }

    #[test]
    fn word_classification() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a.a <= a", "b = a.b"]).unwrap();
        assert!(set.all_word_constraints());
        assert!(!set.all_word_equalities());
        let eqs = ConstraintSet::parse(&mut ab, ["a.a = a"]).unwrap();
        assert!(eqs.all_word_equalities());
        let paths = ConstraintSet::parse(&mut ab, ["a* <= b"]).unwrap();
        assert!(!paths.all_word_constraints());
    }

    #[test]
    fn caches_are_label_equals_larger_body() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(
            &mut ab,
            [
                "l = (a.b)*",
                "c.d = m",
                "x <= y",
                "k = a",
                "e = ()",
                "n = []",
                "p <= a.b",
            ],
        )
        .unwrap();
        let found: Vec<(&str, String)> = set
            .caches()
            .iter()
            .map(|c| (ab.name(c.label), c.body.display(&ab).to_string()))
            .collect();
        assert_eq!(
            found,
            [
                ("l", "(a.b)*".to_string()),
                ("m", "c.d".to_string()),
                ("n", "[]".to_string())
            ],
            "inclusions, label = label and label = ε are not caches"
        );
        assert_eq!(
            set.caches().iter().map(|c| c.empty).collect::<Vec<_>>(),
            [false, false, true]
        );
        let c = ab.get("c").unwrap();
        let d = ab.get("d").unwrap();
        assert!(set.caches()[1].nfa.accepts(&[c, d]));
    }

    #[test]
    fn add_drops_what_was_compiled() {
        let mut ab = Alphabet::new();
        let mut set = ConstraintSet::parse(&mut ab, ["a.b = b.a"]).unwrap();
        assert!(set.all_word_equalities());
        assert!(set.caches().is_empty());
        assert_eq!(set.closure_rules().len(), 2);
        let shared = set.clone();
        set.add(parse_constraint(&mut ab, "l = (a.b)*").unwrap());
        assert!(!set.all_word_equalities() && !set.all_word_constraints());
        assert_eq!(set.caches().len(), 1);
        assert_eq!(set.closure_rules().len(), 4);
        // the clone taken before the `add` still answers for the old set
        assert!(shared.all_word_equalities() && shared.caches().is_empty());
    }

    #[test]
    fn holds_at_checks_semantics() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o", "l", "x");
        b.edge("o", "m", "x");
        b.edge("o", "m", "y");
        let (inst, names) = b.finish();
        let o = names["o"];
        let incl = parse_constraint(&mut ab, "l <= m").unwrap();
        assert!(incl.holds_at(&inst, o));
        let eq = parse_constraint(&mut ab, "l = m").unwrap();
        assert!(!eq.holds_at(&inst, o));
        let rev = parse_constraint(&mut ab, "m <= l").unwrap();
        assert!(!rev.holds_at(&inst, o));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(
            &mut ab,
            ["# header", "", "a <= b", "  # trailing comment line"],
        )
        .unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn max_word_len_and_symbols() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a.b.c <= d", "d = e"]).unwrap();
        assert_eq!(set.max_word_len(), 3);
        assert_eq!(set.symbols().len(), 5);
    }

    #[test]
    fn duplicates_collapse() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a <= b", "a <= b", "a <= b"]).unwrap();
        assert_eq!(set.len(), 1);
    }
}
