//! Regular expressions over a label alphabet.
//!
//! Path queries in the paper are regular expressions over Σ with union `+`,
//! concatenation (juxtaposition), and Kleene star (Section 2.2). The AST here
//! is kept in a light normal form by the smart constructors ([`Regex::concat`],
//! [`Regex::union`], [`Regex::star`]): concatenations and unions are
//! flattened, the unit/annihilator laws for ε and ∅ are applied, and union
//! arms are sorted and deduplicated. This normal form is what makes the
//! Brzozowski-derivative closure (`rpq_paper::derivative`) finite — the
//! classical "similarity" quotient (associativity, commutativity, idempotence
//! of `+`).

use std::fmt;

use crate::alphabet::{Alphabet, Symbol};

/// A regular expression over interned [`Symbol`]s.
///
/// Invariants maintained by the smart constructors (not by raw enum
/// construction):
/// * `Concat` has ≥ 2 parts, none of which is `Epsilon`, `Empty`, or a nested
///   `Concat`.
/// * `Union` has ≥ 2 parts, sorted, deduplicated, none of which is `Empty` or
///   a nested `Union`.
/// * `Star` never wraps `Empty`, `Epsilon`, or another `Star`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The language {ε}.
    Epsilon,
    /// A single label.
    Symbol(Symbol),
    /// Concatenation of the parts, in order.
    Concat(Vec<Regex>),
    /// Union of the parts.
    Union(Vec<Regex>),
    /// Kleene closure.
    Star(Box<Regex>),
}

impl Regex {
    /// The single-symbol expression.
    pub fn sym(s: Symbol) -> Regex {
        Regex::Symbol(s)
    }

    /// The expression denoting exactly the word `w` (ε when `w` is empty).
    pub fn word(w: &[Symbol]) -> Regex {
        Regex::concat(w.iter().map(|&s| Regex::Symbol(s)).collect())
    }

    /// Smart concatenation: flattens, applies `ε·r = r` and `∅·r = ∅`.
    pub fn concat(parts: Vec<Regex>) -> Regex {
        let mut out: Vec<Regex> = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Empty => return Regex::Empty,
                Regex::Epsilon => {}
                Regex::Concat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Epsilon,
            1 => out.pop().expect("len checked"),
            _ => Regex::Concat(out),
        }
    }

    /// Smart binary concatenation.
    pub fn then(self, other: Regex) -> Regex {
        Regex::concat(vec![self, other])
    }

    /// Smart union: flattens, drops ∅, sorts and deduplicates the arms.
    pub fn union(parts: Vec<Regex>) -> Regex {
        let mut out: Vec<Regex> = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Union(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        out.sort();
        out.dedup();
        match out.len() {
            0 => Regex::Empty,
            1 => out.pop().expect("len checked"),
            _ => Regex::Union(out),
        }
    }

    /// Smart binary union.
    pub fn or(self, other: Regex) -> Regex {
        Regex::union(vec![self, other])
    }

    /// Smart Kleene star: `∅* = ε* = ε`… more precisely `∅* = {ε}`, `(r*)* = r*`.
    pub fn star(self) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            r => Regex::Star(Box::new(r)),
        }
    }

    /// `r+ = r·r*` (the paper writes one-or-more as `r r*`).
    pub fn plus(self) -> Regex {
        let star = self.clone().star();
        self.then(star)
    }

    /// `r? = ε + r`.
    pub fn opt(self) -> Regex {
        Regex::union(vec![Regex::Epsilon, self])
    }

    /// Does the language contain the empty word?
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Symbol(_) => false,
            Regex::Epsilon | Regex::Star(_) => true,
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Union(parts) => parts.iter().any(Regex::nullable),
        }
    }

    /// Syntactic emptiness. With smart constructors, a regex denotes ∅ iff it
    /// *is* `Empty`; this checks the general case for manually built trees.
    pub fn is_empty_lang(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Symbol(_) | Regex::Star(_) => false,
            Regex::Concat(parts) => parts.iter().any(Regex::is_empty_lang),
            Regex::Union(parts) => parts.iter().all(Regex::is_empty_lang),
        }
    }

    /// If this expression denotes a single word, return it. Words are the
    /// constraint class of Section 4.2 ("word constraints").
    pub fn as_word(&self) -> Option<Vec<Symbol>> {
        match self {
            Regex::Empty => None,
            Regex::Epsilon => Some(vec![]),
            Regex::Symbol(s) => Some(vec![*s]),
            Regex::Concat(parts) => {
                let mut w = Vec::new();
                for p in parts {
                    w.extend(p.as_word()?);
                }
                Some(w)
            }
            Regex::Union(_) | Regex::Star(_) => None,
        }
    }

    /// Number of AST nodes (a simple size measure used by cost models).
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Symbol(_) => 1,
            Regex::Concat(parts) | Regex::Union(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(r) => 1 + r.size(),
        }
    }

    /// All symbols occurring in the expression, sorted and deduplicated.
    pub fn symbols(&self) -> Vec<Symbol> {
        fn walk(r: &Regex, out: &mut Vec<Symbol>) {
            match r {
                Regex::Empty | Regex::Epsilon => {}
                Regex::Symbol(s) => out.push(*s),
                Regex::Concat(parts) | Regex::Union(parts) => {
                    for p in parts {
                        walk(p, out);
                    }
                }
                Regex::Star(r) => walk(r, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// The reversal of the language (words read right-to-left).
    pub fn reverse(&self) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Symbol(s) => Regex::Symbol(*s),
            Regex::Concat(parts) => Regex::concat(parts.iter().rev().map(Regex::reverse).collect()),
            Regex::Union(parts) => Regex::union(parts.iter().map(Regex::reverse).collect()),
            Regex::Star(r) => r.reverse().star(),
        }
    }

    /// If the language is finite, enumerate it (up to `cap` words); returns
    /// `None` if the language is infinite or exceeds the cap. Used by the
    /// boundedness machinery (Theorem 4.10) to print nonrecursive queries.
    pub fn finite_language(&self, cap: usize) -> Option<Vec<Vec<Symbol>>> {
        fn go(r: &Regex, cap: usize) -> Option<Vec<Vec<Symbol>>> {
            match r {
                Regex::Empty => Some(vec![]),
                Regex::Epsilon => Some(vec![vec![]]),
                Regex::Symbol(s) => Some(vec![vec![*s]]),
                Regex::Union(parts) => {
                    let mut out: Vec<Vec<Symbol>> = Vec::new();
                    for p in parts {
                        out.extend(go(p, cap)?);
                        if out.len() > cap {
                            return None;
                        }
                    }
                    out.sort();
                    out.dedup();
                    Some(out)
                }
                Regex::Concat(parts) => {
                    let mut out: Vec<Vec<Symbol>> = vec![vec![]];
                    for p in parts {
                        let ws = go(p, cap)?;
                        let mut next = Vec::with_capacity(out.len() * ws.len().max(1));
                        for prefix in &out {
                            for w in &ws {
                                let mut pw = prefix.clone();
                                pw.extend_from_slice(w);
                                next.push(pw);
                            }
                        }
                        if next.len() > cap {
                            return None;
                        }
                        out = next;
                    }
                    out.sort();
                    out.dedup();
                    Some(out)
                }
                Regex::Star(inner) => {
                    // r* is finite iff L(r) ⊆ {ε}.
                    let ws = go(inner, cap)?;
                    if ws.iter().all(|w| w.is_empty()) {
                        Some(vec![vec![]])
                    } else {
                        None
                    }
                }
            }
        }
        go(self, cap)
    }

    /// Build the union of a finite set of words.
    pub fn from_finite_language<I>(words: I) -> Regex
    where
        I: IntoIterator<Item = Vec<Symbol>>,
    {
        Regex::union(words.into_iter().map(|w| Regex::word(&w)).collect())
    }

    /// Render against an alphabet. See [`RegexDisplay`] for the syntax.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> RegexDisplay<'a> {
        RegexDisplay {
            regex: self,
            alphabet,
        }
    }
}

/// Pretty-printer produced by [`Regex::display`].
///
/// Syntax matches the parser in [`crate::parser`]: `+` for union, `.` (or
/// juxtaposition on input) for concatenation, postfix `*`/`?`, `()` for ε and
/// `[]` for ∅. Label names that are not plain identifiers are double-quoted.
pub struct RegexDisplay<'a> {
    regex: &'a Regex,
    alphabet: &'a Alphabet,
}

fn is_plain_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && !s.starts_with('-')
}

impl RegexDisplay<'_> {
    fn write(&self, r: &Regex, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
        // precedence: 0 = union, 1 = concat, 2 = atom/postfix
        match r {
            Regex::Empty => write!(f, "[]"),
            Regex::Epsilon => write!(f, "()"),
            Regex::Symbol(s) => {
                let name = self.alphabet.name(*s);
                if is_plain_ident(name) {
                    write!(f, "{name}")
                } else {
                    write!(f, "\"{}\"", name.replace('\\', "\\\\").replace('"', "\\\""))
                }
            }
            Regex::Concat(parts) => {
                if prec > 1 {
                    write!(f, "(")?;
                }
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ".")?;
                    }
                    self.write(p, f, 2)?;
                }
                if prec > 1 {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Regex::Union(parts) => {
                if prec > 0 {
                    write!(f, "(")?;
                }
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    self.write(p, f, 1)?;
                }
                if prec > 0 {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Regex::Star(inner) => {
                self.write(inner, f, 2)?;
                write!(f, "*")
            }
        }
    }
}

impl fmt::Display for RegexDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(self.regex, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab3() -> (Alphabet, Symbol, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        (ab, a, b, c)
    }

    #[test]
    fn concat_normalizes_units() {
        let (_, a, b, _) = ab3();
        let r = Regex::concat(vec![
            Regex::Epsilon,
            Regex::sym(a),
            Regex::Epsilon,
            Regex::sym(b),
        ]);
        assert_eq!(r, Regex::Concat(vec![Regex::sym(a), Regex::sym(b)]));
        assert_eq!(
            Regex::concat(vec![Regex::sym(a), Regex::Empty]),
            Regex::Empty
        );
        assert_eq!(Regex::concat(vec![]), Regex::Epsilon);
    }

    #[test]
    fn concat_flattens_nested() {
        let (_, a, b, c) = ab3();
        let inner = Regex::concat(vec![Regex::sym(b), Regex::sym(c)]);
        let r = Regex::concat(vec![Regex::sym(a), inner]);
        assert_eq!(
            r,
            Regex::Concat(vec![Regex::sym(a), Regex::sym(b), Regex::sym(c)])
        );
    }

    #[test]
    fn union_sorts_and_dedups() {
        let (_, a, b, _) = ab3();
        let r1 = Regex::union(vec![Regex::sym(b), Regex::sym(a), Regex::sym(b)]);
        let r2 = Regex::union(vec![Regex::sym(a), Regex::sym(b)]);
        assert_eq!(r1, r2);
        assert_eq!(Regex::union(vec![Regex::Empty]), Regex::Empty);
        assert_eq!(
            Regex::union(vec![Regex::Empty, Regex::sym(a)]),
            Regex::sym(a)
        );
    }

    #[test]
    fn star_laws() {
        let (_, a, _, _) = ab3();
        assert_eq!(Regex::Empty.star(), Regex::Epsilon);
        assert_eq!(Regex::Epsilon.star(), Regex::Epsilon);
        let s = Regex::sym(a).star();
        assert_eq!(s.clone().star(), s);
    }

    #[test]
    fn nullable_cases() {
        let (_, a, b, _) = ab3();
        assert!(Regex::Epsilon.nullable());
        assert!(!Regex::sym(a).nullable());
        assert!(Regex::sym(a).star().nullable());
        assert!(!Regex::sym(a).then(Regex::sym(b)).nullable());
        assert!(Regex::sym(a).or(Regex::Epsilon).nullable());
        assert!(!Regex::Empty.nullable());
    }

    #[test]
    fn as_word_detects_words() {
        let (_, a, b, _) = ab3();
        let w = Regex::word(&[a, b, a]);
        assert_eq!(w.as_word(), Some(vec![a, b, a]));
        assert_eq!(Regex::Epsilon.as_word(), Some(vec![]));
        assert_eq!(Regex::sym(a).star().as_word(), None);
        assert_eq!(Regex::sym(a).or(Regex::sym(b)).as_word(), None);
        assert_eq!(Regex::Empty.as_word(), None);
    }

    #[test]
    fn finite_language_enumerates() {
        let (_, a, b, _) = ab3();
        // (a+b).(a+b) has 4 words
        let r = Regex::sym(a)
            .or(Regex::sym(b))
            .then(Regex::sym(a).or(Regex::sym(b)));
        let words = r.finite_language(100).unwrap();
        assert_eq!(words.len(), 4);
        assert!(Regex::sym(a).star().finite_language(100).is_none());
        // ε* is finite
        assert_eq!(
            Regex::Epsilon.star().finite_language(10).unwrap(),
            vec![Vec::<Symbol>::new()]
        );
    }

    #[test]
    fn reverse_reverses_words() {
        let (_, a, b, c) = ab3();
        let r = Regex::word(&[a, b, c]);
        assert_eq!(r.reverse().as_word(), Some(vec![c, b, a]));
        // reverse is an involution on the normal form
        let q = Regex::sym(a).then(Regex::sym(b).or(Regex::sym(c)).star());
        assert_eq!(q.reverse().reverse(), q);
    }

    #[test]
    fn display_round_trips_syntax() {
        let (ab, a, b, _) = ab3();
        let r = Regex::sym(a)
            .then(Regex::sym(b).or(Regex::Epsilon))
            .then(Regex::sym(a).star());
        let s = format!("{}", r.display(&ab));
        assert_eq!(s, "a.(()+b).a*");
    }

    #[test]
    fn is_empty_lang_on_raw_trees() {
        let (_, a, _, _) = ab3();
        let raw = Regex::Concat(vec![Regex::sym(a), Regex::Empty]);
        assert!(raw.is_empty_lang());
        let raw2 = Regex::Union(vec![Regex::Empty, Regex::Empty]);
        assert!(raw2.is_empty_lang());
        assert!(!Regex::sym(a).is_empty_lang());
    }
}
