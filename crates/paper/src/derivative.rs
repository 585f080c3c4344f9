//! Brzozowski derivatives — the paper's "quotients".
//!
//! For a language `L` and label `l`, the quotient `L/l = {w | l·w ∈ L}`
//! (Section 2.2). The paper's recursive evaluation procedure (✳) repeatedly
//! takes quotients of the query, and the finiteness of the set `P` of
//! repeated quotients is what makes the Datalog translation finite. On the
//! syntactic side, finiteness holds modulo the ACI axioms of union — which is
//! exactly the normal form maintained by the smart constructors in
//! [`rpq_automata::regex`]. [`DerivativeClosure`] materializes `P` and doubles as a
//! DFA constructed without going through an NFA: a word is accepted iff the
//! class it reaches ([`DerivativeClosure::class_of`]) is nullable.

use std::collections::HashMap;

use rpq_automata::{Alphabet, Regex, Symbol};

/// The Brzozowski derivative (quotient) `∂_s r` with `L(∂_s r) = L(r)/s`.
pub fn derivative(r: &Regex, s: Symbol) -> Regex {
    match r {
        Regex::Empty | Regex::Epsilon => Regex::Empty,
        Regex::Symbol(t) => {
            if *t == s {
                Regex::Epsilon
            } else {
                Regex::Empty
            }
        }
        Regex::Concat(parts) => {
            // ∂(r1 r2 … rn) = (∂r1) r2…rn  +  [r1 nullable] ∂(r2…rn)
            let head = &parts[0];
            let tail = Regex::concat(parts[1..].to_vec());
            let first = derivative(head, s).then(tail.clone());
            if head.nullable() {
                first.or(derivative(&tail, s))
            } else {
                first
            }
        }
        Regex::Union(parts) => Regex::union(parts.iter().map(|p| derivative(p, s)).collect()),
        Regex::Star(inner) => derivative(inner, s).then(r.clone()),
    }
}

/// Derivative by a whole word: `∂_w r` with `L(∂_w r) = {v | w·v ∈ L(r)}`.
pub fn word_derivative(r: &Regex, word: &[Symbol]) -> Regex {
    let mut cur = r.clone();
    for &s in word {
        cur = derivative(&cur, s);
        if cur == Regex::Empty {
            break;
        }
    }
    cur
}

/// Word membership by derivatives (`w ∈ L(r)` iff `∂_w r` is nullable).
pub fn accepts(r: &Regex, word: &[Symbol]) -> bool {
    word_derivative(r, word).nullable()
}

/// The closure `P` of repeated quotients of a query — the paper's finite set
/// of "still-left" subqueries — together with the transition structure, i.e.
/// a DFA whose states are (normalized) regexes.
#[derive(Clone, Debug)]
pub struct DerivativeClosure {
    /// All distinct derivatives, index 0 is the original query.
    pub classes: Vec<Regex>,
    /// `trans[class][sym] = class index of the derivative`.
    pub trans: Vec<Vec<usize>>,
    /// Nullability flag per class (ε ∈ quotient — "answer" classes).
    pub nullable: Vec<bool>,
    /// Symbols the closure was computed over.
    pub symbols: Vec<Symbol>,
}

/// Error when the closure exceeds the configured bound. With ACI-normalizing
/// constructors the closure is always finite, but the bound guards against
/// pathological blow-up in adversarial inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureOverflow {
    /// The cap that was exceeded.
    pub cap: usize,
}

impl std::fmt::Display for ClosureOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "derivative closure exceeded {} classes", self.cap)
    }
}

impl std::error::Error for ClosureOverflow {}

impl DerivativeClosure {
    /// Compute the quotient closure of `r` over `symbols`, with at most `cap`
    /// distinct classes.
    pub fn compute(r: &Regex, symbols: &[Symbol], cap: usize) -> Result<Self, ClosureOverflow> {
        let mut classes: Vec<Regex> = vec![r.clone()];
        let mut index: HashMap<Regex, usize> = HashMap::new();
        index.insert(r.clone(), 0);
        let mut trans: Vec<Vec<usize>> = Vec::new();
        let mut i = 0usize;
        while i < classes.len() {
            let cur = classes[i].clone();
            let mut row = Vec::with_capacity(symbols.len());
            for &s in symbols {
                let d = derivative(&cur, s);
                let id = match index.get(&d) {
                    Some(&id) => id,
                    None => {
                        let id = classes.len();
                        if id >= cap {
                            return Err(ClosureOverflow { cap });
                        }
                        index.insert(d.clone(), id);
                        classes.push(d);
                        id
                    }
                };
                row.push(id);
            }
            trans.push(row);
            i += 1;
        }
        let nullable = classes.iter().map(Regex::nullable).collect();
        Ok(DerivativeClosure {
            classes,
            trans,
            nullable,
            symbols: symbols.to_vec(),
        })
    }

    /// Number of quotient classes (the size of the paper's set `P`).
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when the closure is trivial (never: class 0 always exists).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The class reached from the original query by reading `word`, or
    /// `None` if a symbol outside the closure's alphabet occurs.
    pub fn class_of(&self, word: &[Symbol]) -> Option<usize> {
        let mut cur = 0usize;
        for &s in word {
            let pos = self.symbols.iter().position(|&t| t == s)?;
            cur = self.trans[cur][pos];
        }
        Some(cur)
    }

    /// Render all classes (debugging / the Datalog translation's rule names).
    pub fn render(&self, alphabet: &Alphabet) -> Vec<String> {
        self.classes
            .iter()
            .map(|c| format!("{}", c.display(alphabet)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet, Nfa};

    fn setup(src: &str) -> (Alphabet, Regex) {
        let mut ab = Alphabet::new();
        ab.intern("a");
        ab.intern("b");
        ab.intern("c");
        let r = parse_regex(&mut ab, src).unwrap();
        (ab, r)
    }

    #[test]
    fn derivative_basic_laws() {
        let (ab, r) = setup("a.b");
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        assert_eq!(derivative(&r, a), Regex::sym(b));
        assert_eq!(derivative(&r, b), Regex::Empty);
        let (ab, r) = setup("a*");
        let a = ab.get("a").unwrap();
        assert_eq!(derivative(&r, a), r);
    }

    #[test]
    fn derivative_of_union_and_nullable_concat() {
        let (ab, r) = setup("(a + ()).b");
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        // ∂_a = b ; ∂_b = ε (via the nullable head)
        assert_eq!(derivative(&r, a), Regex::sym(b));
        assert_eq!(derivative(&r, b), Regex::Epsilon);
    }

    #[test]
    fn accepts_agrees_with_nfa_on_examples() {
        let exprs = ["a.(b+c)*", "(a.b)* + c", "a*.b.a*", "(a+b)*.c.c"];
        for src in exprs {
            let (ab, r) = setup(src);
            let nfa = Nfa::thompson(&r);
            let syms: Vec<Symbol> = ab.symbols().collect();
            // all words up to length 4
            let mut words: Vec<Vec<Symbol>> = vec![vec![]];
            for _ in 0..4 {
                let mut next = Vec::new();
                for w in &words {
                    for &s in &syms {
                        let mut w2 = w.clone();
                        w2.push(s);
                        next.push(w2);
                    }
                }
                words.extend(next.clone());
                words.dedup();
            }
            for w in &words {
                assert_eq!(
                    accepts(&r, w),
                    nfa.accepts(w),
                    "{} on {:?}",
                    src,
                    ab.render_word(w)
                );
            }
        }
    }

    #[test]
    fn closure_is_finite_and_small() {
        let (ab, r) = setup("(a.b)*");
        let syms: Vec<Symbol> = ab.symbols().collect();
        let cl = DerivativeClosure::compute(&r, &syms, 1000).unwrap();
        // classes: (ab)*, b(ab)*, ∅ — exactly 3
        assert_eq!(cl.len(), 3);
        assert!(cl.nullable[0]);
    }

    #[test]
    fn closure_class_of_tracks_words() {
        let (ab, r) = setup("a.b*");
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let syms: Vec<Symbol> = ab.symbols().collect();
        let cl = DerivativeClosure::compute(&r, &syms, 1000).unwrap();
        let c1 = cl.class_of(&[a]).unwrap();
        assert!(cl.nullable[c1]);
        let c2 = cl.class_of(&[a, b, b]).unwrap();
        assert_eq!(cl.classes[c2], cl.classes[c1]);
        let dead = cl.class_of(&[b]).unwrap();
        assert_eq!(cl.classes[dead], Regex::Empty);
    }

    #[test]
    fn closure_acceptance_is_the_nullable_class() {
        let (ab, r) = setup("a.(b+c)*.a");
        let syms: Vec<Symbol> = ab.symbols().collect();
        let cl = DerivativeClosure::compute(&r, &syms, 1000).unwrap();
        let accepts = |w: &[Symbol]| cl.nullable[cl.class_of(w).unwrap()];
        let nfa = Nfa::thompson(&r);
        for w in nfa.enumerate_words(5, 200) {
            assert!(accepts(&w));
        }
        let a = ab.get("a").unwrap();
        assert!(!accepts(&[a]));
        assert!(accepts(&[a, a]));
    }

    #[test]
    fn closure_overflow_reports() {
        let (ab, r) = setup("(a+b)*.a.(a+b).(a+b).(a+b)");
        let syms: Vec<Symbol> = ab.symbols().collect();
        // This needs 2^4 = 16+ classes; cap at 4 must overflow.
        let err = DerivativeClosure::compute(&r, &syms, 4).unwrap_err();
        assert_eq!(err.cap, 4);
        assert!(DerivativeClosure::compute(&r, &syms, 10_000).is_ok());
    }

    #[test]
    fn word_derivative_is_iterated_quotient() {
        let (ab, r) = setup("a.b.c");
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();
        let c = ab.get("c").unwrap();
        assert_eq!(word_derivative(&r, &[a, b]), Regex::sym(c));
        assert_eq!(word_derivative(&r, &[a, b, c]), Regex::Epsilon);
        assert_eq!(word_derivative(&r, &[b]), Regex::Empty);
    }
}
