//! Character-level string patterns for *general path queries* (Section 2.4).
//!
//! Languages like Lorel view labels as character strings and allow regular
//! expressions at two levels: over characters within a label and over labels
//! along a path. The paper's example uses grep-style patterns such as
//! `[sS]ections?` and `content=(.)*SGML(.)*`. This module implements that
//! character level: a small pattern AST, a grep-ish parser, and a matcher.
//! The path level reuses the ordinary [`rpq_automata::Regex`] machinery via
//! the `μ` translation of [`crate::general`].

use std::fmt;

/// A character-level pattern.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CharPattern {
    /// Matches the empty string.
    Epsilon,
    /// A literal character.
    Char(char),
    /// `.` — any single character.
    Any,
    /// A character class: ranges, possibly negated (`[a-z]`, `[^0-9]`).
    Class {
        /// Inclusive ranges; single chars are `(c, c)`.
        ranges: Vec<(char, char)>,
        /// If true, matches any char *not* in the ranges.
        negated: bool,
    },
    /// Concatenation.
    Concat(Vec<CharPattern>),
    /// Alternation.
    Union(Vec<CharPattern>),
    /// Kleene star.
    Star(Box<CharPattern>),
}

impl CharPattern {
    /// A literal string pattern.
    pub fn literal(s: &str) -> CharPattern {
        CharPattern::Concat(s.chars().map(CharPattern::Char).collect())
    }

    fn matches_char(&self, c: char) -> bool {
        match self {
            CharPattern::Char(p) => *p == c,
            CharPattern::Any => true,
            CharPattern::Class { ranges, negated } => {
                let inside = ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
                inside != *negated
            }
            _ => false,
        }
    }

    /// Match against a whole string (anchored at both ends, like the paper's
    /// label patterns). Thompson-style NFA simulation over positions.
    pub fn matches(&self, s: &str) -> bool {
        // Compile once per call — patterns are small; callers that match many
        // labels should use `CompiledPattern`.
        CompiledPattern::compile(self).matches(s)
    }
}

impl fmt::Display for CharPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharPattern::Epsilon => write!(f, "()"),
            CharPattern::Char(c) => {
                if "()[]|*+?.\\^".contains(*c) {
                    write!(f, "\\{c}")
                } else {
                    write!(f, "{c}")
                }
            }
            CharPattern::Any => write!(f, "."),
            CharPattern::Class { ranges, negated } => {
                write!(f, "[")?;
                if *negated {
                    write!(f, "^")?;
                }
                for &(lo, hi) in ranges {
                    if lo == hi {
                        write!(f, "{lo}")?;
                    } else {
                        write!(f, "{lo}-{hi}")?;
                    }
                }
                write!(f, "]")
            }
            CharPattern::Concat(ps) => {
                for p in ps {
                    match p {
                        CharPattern::Union(_) => write!(f, "({p})")?,
                        _ => write!(f, "{p}")?,
                    }
                }
                Ok(())
            }
            CharPattern::Union(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            CharPattern::Star(p) => match **p {
                CharPattern::Char(_) | CharPattern::Any | CharPattern::Class { .. } => {
                    write!(f, "{p}*")
                }
                _ => write!(f, "({p})*"),
            },
        }
    }
}

/// Parse a grep-E-style pattern: literals, `.`, `[...]` classes (with ranges
/// and `^` negation), `(...)`, `|`, postfix `*` `+` `?`, `\` escapes.
pub fn parse_char_pattern(src: &str) -> Result<CharPattern, String> {
    struct P<'a> {
        chars: std::iter::Peekable<std::str::Chars<'a>>,
    }
    impl P<'_> {
        fn union(&mut self) -> Result<CharPattern, String> {
            let mut arms = vec![self.concat()?];
            while self.chars.peek() == Some(&'|') {
                self.chars.next();
                arms.push(self.concat()?);
            }
            Ok(match <[CharPattern; 1]>::try_from(arms) {
                Ok([arm]) => arm,
                Err(arms) => CharPattern::Union(arms),
            })
        }
        fn concat(&mut self) -> Result<CharPattern, String> {
            let mut parts = Vec::new();
            while let Some(&c) = self.chars.peek() {
                if c == '|' || c == ')' {
                    break;
                }
                parts.push(self.postfix()?);
            }
            Ok(match <[CharPattern; 1]>::try_from(parts) {
                Ok([part]) => part,
                Err(parts) if parts.is_empty() => CharPattern::Epsilon,
                Err(parts) => CharPattern::Concat(parts),
            })
        }
        fn postfix(&mut self) -> Result<CharPattern, String> {
            let mut base = self.atom()?;
            while let Some(&c) = self.chars.peek() {
                match c {
                    '*' => {
                        self.chars.next();
                        base = CharPattern::Star(Box::new(base));
                    }
                    '+' => {
                        self.chars.next();
                        base = CharPattern::Concat(vec![
                            base.clone(),
                            CharPattern::Star(Box::new(base)),
                        ]);
                    }
                    '?' => {
                        self.chars.next();
                        base = CharPattern::Union(vec![CharPattern::Epsilon, base]);
                    }
                    _ => break,
                }
            }
            Ok(base)
        }
        fn atom(&mut self) -> Result<CharPattern, String> {
            let Some(c) = self.chars.next() else {
                return Err("unexpected end of pattern".into());
            };
            match c {
                '(' => {
                    let inner = self.union()?;
                    if self.chars.next() != Some(')') {
                        return Err("expected ')'".into());
                    }
                    Ok(inner)
                }
                '.' => Ok(CharPattern::Any),
                '[' => {
                    let mut negated = false;
                    if self.chars.peek() == Some(&'^') {
                        negated = true;
                        self.chars.next();
                    }
                    let mut ranges = Vec::new();
                    loop {
                        let Some(lo) = self.chars.next() else {
                            return Err("unterminated character class".into());
                        };
                        if lo == ']' {
                            if ranges.is_empty() {
                                return Err("empty character class".into());
                            }
                            break;
                        }
                        let lo = if lo == '\\' {
                            self.chars.next().ok_or("dangling escape in class")?
                        } else {
                            lo
                        };
                        if self.chars.peek() == Some(&'-') {
                            self.chars.next();
                            match self.chars.peek() {
                                Some(&']') | None => {
                                    // trailing '-' is a literal
                                    ranges.push((lo, lo));
                                    ranges.push(('-', '-'));
                                }
                                Some(&hi) => {
                                    self.chars.next();
                                    if hi < lo {
                                        return Err(format!("invalid range {lo}-{hi}"));
                                    }
                                    ranges.push((lo, hi));
                                }
                            }
                        } else {
                            ranges.push((lo, lo));
                        }
                    }
                    Ok(CharPattern::Class { ranges, negated })
                }
                '\\' => {
                    let e = self.chars.next().ok_or("dangling escape")?;
                    Ok(CharPattern::Char(e))
                }
                '*' | '+' | '?' => Err(format!("dangling postfix operator {c:?}")),
                ')' | ']' => Err(format!("unbalanced {c:?}")),
                other => Ok(CharPattern::Char(other)),
            }
        }
    }
    let mut p = P {
        chars: src.chars().peekable(),
    };
    let pat = p.union()?;
    if p.chars.next().is_some() {
        return Err("trailing input after pattern".into());
    }
    Ok(pat)
}

/// A pattern compiled to a position-NFA for repeated matching.
#[derive(Clone, Debug)]
pub struct CompiledPattern {
    // states: 0 = start; transitions carry a predicate index or ε
    eps: Vec<Vec<usize>>,
    sym: Vec<Vec<(PredId, usize)>>,
    preds: Vec<CharPattern>,
    accept: usize,
}

type PredId = usize;

impl CompiledPattern {
    /// Compile a pattern.
    pub fn compile(p: &CharPattern) -> CompiledPattern {
        let mut c = CompiledPattern {
            eps: vec![Vec::new(), Vec::new()],
            sym: vec![Vec::new(), Vec::new()],
            preds: Vec::new(),
            accept: 1,
        };
        c.build(p, 0, 1);
        c
    }

    fn add_state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.sym.push(Vec::new());
        self.eps.len() - 1
    }

    fn build(&mut self, p: &CharPattern, from: usize, to: usize) {
        match p {
            CharPattern::Epsilon => self.eps[from].push(to),
            CharPattern::Char(_) | CharPattern::Any | CharPattern::Class { .. } => {
                let id = self.preds.len();
                self.preds.push(p.clone());
                self.sym[from].push((id, to));
            }
            CharPattern::Concat(parts) => {
                let mut cur = from;
                for (i, part) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() {
                        to
                    } else {
                        self.add_state()
                    };
                    self.build(part, cur, next);
                    cur = next;
                }
                if parts.is_empty() {
                    self.eps[from].push(to);
                }
            }
            CharPattern::Union(parts) => {
                for part in parts {
                    self.build(part, from, to);
                }
            }
            CharPattern::Star(inner) => {
                let hub = self.add_state();
                self.eps[from].push(hub);
                self.eps[hub].push(to);
                let back = self.add_state();
                self.build(inner, hub, back);
                self.eps[back].push(hub);
            }
        }
    }

    fn closure(&self, set: &mut [bool]) {
        let mut stack: Vec<usize> = set
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s] {
                if !set[t] {
                    set[t] = true;
                    stack.push(t);
                }
            }
        }
    }

    /// Anchored match of `s`.
    pub fn matches(&self, s: &str) -> bool {
        let n = self.eps.len();
        let mut cur = vec![false; n];
        cur[0] = true;
        self.closure(&mut cur);
        for ch in s.chars() {
            let mut next = vec![false; n];
            let mut any = false;
            for (st, &active) in cur.iter().enumerate() {
                if !active {
                    continue;
                }
                for &(pid, to) in &self.sym[st] {
                    if self.preds[pid].matches_char(ch) {
                        next[to] = true;
                        any = true;
                    }
                }
            }
            if !any {
                return false;
            }
            self.closure(&mut next);
            cur = next;
        }
        cur[self.accept]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, s: &str) -> bool {
        parse_char_pattern(pat).unwrap().matches(s)
    }

    #[test]
    fn paper_example_patterns() {
        // "[sS]ections?" from Section 2.4
        assert!(m("[sS]ections?", "section"));
        assert!(m("[sS]ections?", "Sections"));
        assert!(!m("[sS]ections?", "sectionss"));
        assert!(!m("[sS]ections?", "ection"));
        // "[pP]aragraph"
        assert!(m("[pP]aragraph", "paragraph"));
        assert!(m("[pP]aragraph", "Paragraph"));
        assert!(!m("[pP]aragraph", "paragraphs"));
    }

    #[test]
    fn content_selection_pattern() {
        // content=(.)*SGML(.)* from Section 2.4
        let p = "content=(.)*SGML(.)*";
        assert!(m(p, "content=all about SGML here"));
        assert!(m(p, "content=SGML"));
        assert!(!m(p, "content=XML only"));
        assert!(!m(p, "SGML"));
    }

    #[test]
    fn example21_patterns() {
        // a*b, ba*, c, dd* from Example 2.1
        assert!(m("a*b", "b"));
        assert!(m("a*b", "aab"));
        assert!(!m("a*b", "ba"));
        assert!(m("ba*", "b"));
        assert!(m("ba*", "baa"));
        assert!(!m("ba*", "ab"));
        assert!(m("dd*", "d"));
        assert!(m("dd*", "ddd"));
        assert!(!m("dd*", ""));
    }

    #[test]
    fn classes_ranges_negation() {
        assert!(m("[a-c]x", "bx"));
        assert!(!m("[a-c]x", "dx"));
        assert!(m("[^a-c]x", "dx"));
        assert!(!m("[^a-c]x", "ax"));
        assert!(m("[a-c-]", "-"));
    }

    #[test]
    fn escapes_and_specials() {
        assert!(m(r"a\.b", "a.b"));
        assert!(!m(r"a\.b", "axb"));
        assert!(m("a.b", "axb"));
        assert!(m(r"\(x\)", "(x)"));
    }

    #[test]
    fn alternation_and_plus() {
        assert!(m("ab|cd", "ab"));
        assert!(m("ab|cd", "cd"));
        assert!(!m("ab|cd", "ad"));
        assert!(m("a+", "aaa"));
        assert!(!m("a+", ""));
        assert!(m("a?", ""));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_char_pattern("(ab").is_err());
        assert!(parse_char_pattern("[ab").is_err());
        assert!(parse_char_pattern("*a").is_err());
        assert!(parse_char_pattern("a)").is_err());
        assert!(parse_char_pattern("[]").is_err());
    }

    #[test]
    fn display_round_trip() {
        for src in ["[sS]ections?", "a*b|ba*", "content=(.)*SGML(.)*", "[^x-z]+"] {
            let p = parse_char_pattern(src).unwrap();
            let printed = format!("{p}");
            let reparsed = parse_char_pattern(&printed).unwrap();
            // Compare by behavior on a sample of strings.
            for s in ["", "a", "b", "ab", "ba", "section", "Sections", "xx", "wq"] {
                assert_eq!(
                    p.matches(s),
                    reparsed.matches(s),
                    "{src} vs {printed} on {s}"
                );
            }
        }
    }

    #[test]
    fn compiled_pattern_reuse() {
        let p = parse_char_pattern("(ab)*").unwrap();
        let c = CompiledPattern::compile(&p);
        assert!(c.matches(""));
        assert!(c.matches("abab"));
        assert!(!c.matches("aba"));
    }
}
