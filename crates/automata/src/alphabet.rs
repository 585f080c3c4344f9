//! Label alphabets and interned symbols.
//!
//! The paper fixes "a finite set of labels Σ" (Section 2). All crates in this
//! workspace share one [`Alphabet`] per scenario so that regular expressions,
//! graph edges, and path constraints speak about the same symbols. A
//! [`Symbol`] is a dense `u32` index into the alphabet, cheap to copy, hash,
//! and order; automata transition tables are indexed by it directly.

use std::collections::HashMap;
use std::fmt;

/// An interned label. Obtained from [`Alphabet::intern`].
///
/// Symbols are only meaningful relative to the alphabet that produced them;
/// mixing symbols from different alphabets is a logic error (not UB, but the
/// names will be wrong or out of range).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Construct a symbol from a raw index. Intended for dense loops over
    /// `0..alphabet.len()`; prefer [`Alphabet::intern`] elsewhere.
    #[inline]
    pub fn from_index(i: usize) -> Symbol {
        Symbol(i as u32)
    }

    /// The dense index of this symbol within its alphabet.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A string interner for edge labels.
///
/// The alphabet is append-only: interning the same name twice returns the
/// same [`Symbol`]. Symbols are handed out densely starting at 0, so they can
/// index `Vec`-based transition tables without hashing.
#[derive(Clone, Debug, Default)]
pub struct Alphabet {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Alphabet {
    /// An empty alphabet.
    pub fn new() -> Alphabet {
        Alphabet::default()
    }

    /// Build an alphabet from a list of names (duplicates collapse).
    pub fn from_names<I, S>(names: I) -> Alphabet
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut ab = Alphabet::new();
        for n in names {
            ab.intern(n.as_ref());
        }
        ab
    }

    /// Intern `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&i) = self.index.get(name) {
            return Symbol(i);
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        Symbol(i)
    }

    /// Look up a name without interning.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).map(|&i| Symbol(i))
    }

    /// The name of a symbol. Panics if the symbol is out of range for this
    /// alphabet (i.e. came from a different alphabet).
    pub fn name(&self, s: Symbol) -> &str {
        &self.names[s.index()]
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all symbols in index order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len() as u32).map(Symbol)
    }

    /// Render a word (sequence of symbols) as dot-separated label names.
    pub fn render_word(&self, word: &[Symbol]) -> String {
        if word.is_empty() {
            return "()".to_owned();
        }
        word.iter()
            .map(|&s| self.name(s))
            .collect::<Vec<_>>()
            .join(".")
    }

    /// Rebuild the name → symbol index from the name list.
    pub fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        assert_ne!(a, b);
        assert_eq!(a, ab.intern("a"));
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.name(a), "a");
        assert_eq!(ab.name(b), "b");
    }

    #[test]
    fn symbols_are_dense() {
        let ab = Alphabet::from_names(["x", "y", "z"]);
        let idx: Vec<usize> = ab.symbols().map(|s| s.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn render_word_formats() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        assert_eq!(ab.render_word(&[a, b, a]), "a.b.a");
        assert_eq!(ab.render_word(&[]), "()");
    }

    #[test]
    fn get_does_not_intern() {
        let mut ab = Alphabet::new();
        assert!(ab.get("a").is_none());
        let a = ab.intern("a");
        assert_eq!(ab.get("a"), Some(a));
        assert_eq!(ab.len(), 1);
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut ab = Alphabet::from_names(["p", "q"]);
        ab.index.clear();
        assert!(ab.get("p").is_none());
        ab.rebuild_index();
        assert_eq!(ab.get("p").map(|s| s.index()), Some(0));
    }
}
