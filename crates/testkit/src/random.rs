//! Seeded random generators for regexes and words — workload generation for
//! benches and fuzz-style tests. All generators take an explicit RNG so that
//! every experiment in `rpq-bench` is reproducible from a seed.

use rand::prelude::*;
use rand::rngs::StdRng;

use rpq_automata::{Nfa, Regex, Symbol};

/// Configuration for [`random_regex`].
#[derive(Clone, Debug)]
pub struct RegexGenConfig {
    /// Symbols to draw leaves from.
    pub symbols: Vec<Symbol>,
    /// Maximum AST depth.
    pub max_depth: usize,
    /// Relative weight of star nodes (vs. union/concat), 0–100.
    pub star_weight: u32,
    /// Probability (0–100) that an internal node is a union vs. concat.
    pub union_weight: u32,
    /// Fanout of union/concat nodes.
    pub fanout: usize,
}

impl RegexGenConfig {
    /// A reasonable default over the given symbols.
    pub fn new(symbols: Vec<Symbol>) -> Self {
        RegexGenConfig {
            symbols,
            max_depth: 4,
            star_weight: 20,
            union_weight: 50,
            fanout: 3,
        }
    }
}

/// Generate a random (normalized) regex.
pub fn random_regex(rng: &mut StdRng, cfg: &RegexGenConfig) -> Regex {
    fn go(rng: &mut StdRng, cfg: &RegexGenConfig, depth: usize) -> Regex {
        if depth == 0 || rng.random_range(0..100) < 25 {
            // leaf
            return match rng.random_range(0..10) {
                0 => Regex::Epsilon,
                _ => Regex::sym(*cfg.symbols.choose(rng).expect("non-empty symbols")),
            };
        }
        let roll = rng.random_range(0..100);
        if roll < cfg.star_weight {
            go(rng, cfg, depth - 1).star()
        } else {
            let k = rng.random_range(2..=cfg.fanout.max(2));
            let parts: Vec<Regex> = (0..k).map(|_| go(rng, cfg, depth - 1)).collect();
            if rng.random_range(0..100) < cfg.union_weight {
                Regex::union(parts)
            } else {
                Regex::concat(parts)
            }
        }
    }
    go(rng, cfg, cfg.max_depth)
}

/// Sample a word from `L(r)` by a random accepting-biased walk on the
/// Thompson NFA. Returns `None` when the language is empty or the walk
/// exceeds `max_len` without reaching acceptance.
pub fn sample_word(rng: &mut StdRng, r: &Regex, max_len: usize) -> Option<Vec<Symbol>> {
    let nfa = Nfa::thompson(r).trim();
    if nfa.num_states() == 1 && !nfa.is_accepting(nfa.start()) && nfa.num_transitions() == 0 {
        // canonical empty automaton
        if !nfa.is_accepting(nfa.start()) {
            return None;
        }
    }
    let mut set = nfa.start_set();
    if set.is_empty() {
        return None;
    }
    let mut word = Vec::new();
    for _ in 0..=max_len {
        let accepting = nfa.set_accepts(&set);
        // stop early with probability growing in word length
        if accepting && (word.len() >= max_len || rng.random_range(0..100) < 40) {
            return Some(word);
        }
        // collect outgoing symbols
        let mut syms: Vec<Symbol> = Vec::new();
        for &s in &set {
            for &(sym, _) in nfa.transitions(s) {
                if !syms.contains(&sym) {
                    syms.push(sym);
                }
            }
        }
        if syms.is_empty() {
            return if accepting { Some(word) } else { None };
        }
        let sym = *syms.choose(rng).expect("non-empty syms");
        let next = nfa.step(&set, sym);
        if next.is_empty() {
            return if accepting { Some(word) } else { None };
        }
        word.push(sym);
        set = next;
    }
    if nfa.set_accepts(&set) {
        Some(word)
    } else {
        None
    }
}

/// A uniformly random word over `symbols` of length `len`.
pub fn random_word(rng: &mut StdRng, symbols: &[Symbol], len: usize) -> Vec<Symbol> {
    (0..len)
        .map(|_| *symbols.choose(rng).expect("non-empty symbols"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rpq_automata::Alphabet;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn random_regex_is_deterministic_per_seed() {
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let cfg = RegexGenConfig::new(ab.symbols().collect());
        let r1 = random_regex(&mut StdRng::seed_from_u64(7), &cfg);
        let r2 = random_regex(&mut StdRng::seed_from_u64(7), &cfg);
        assert_eq!(r1, r2);
    }

    #[test]
    fn sampled_words_are_members() {
        let ab = Alphabet::from_names(["a", "b"]);
        let cfg = RegexGenConfig::new(ab.symbols().collect());
        let mut rng = rng();
        let mut sampled = 0;
        for _ in 0..50 {
            let r = random_regex(&mut rng, &cfg);
            let nfa = Nfa::thompson(&r);
            for _ in 0..5 {
                if let Some(w) = sample_word(&mut rng, &r, 16) {
                    assert!(nfa.accepts(&w), "sampled non-member from {r:?}");
                    sampled += 1;
                }
            }
        }
        assert!(sampled > 20, "sampler almost never produced words");
    }

    #[test]
    fn sample_word_on_empty_language() {
        let mut rng = rng();
        assert_eq!(sample_word(&mut rng, &Regex::Empty, 8), None);
        assert_eq!(sample_word(&mut rng, &Regex::Epsilon, 8), Some(vec![]));
    }

    #[test]
    fn random_word_length() {
        let ab = Alphabet::from_names(["a", "b"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let w = random_word(&mut rng(), &syms, 17);
        assert_eq!(w.len(), 17);
    }
}
