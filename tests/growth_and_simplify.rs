//! Language-level invariants of the analysis substrate: growth
//! classification is a *language* property (invariant under simplification
//! and minimization), the simplifier is idempotent and sound, Moore
//! minimization agrees with Brzozowski's double reversal, and the finite
//! class agrees exactly with automaton finiteness and enumeration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::simplify::{simplify, simplify_deep};
use rpq::automata::{Alphabet, Dfa, Nfa, Symbol};
use rpq::paper::growth::{classify_dfa, classify_regex, Growth};
use rpq_testkit::random::{random_regex, RegexGenConfig};

fn gen(seed: u64) -> (Alphabet, rpq::automata::Regex) {
    let mut ab = Alphabet::new();
    let syms = vec![ab.intern("a"), ab.intern("b"), ab.intern("c")];
    let cfg = RegexGenConfig::new(syms);
    let mut rng = StdRng::seed_from_u64(seed);
    let r = random_regex(&mut rng, &cfg);
    (ab, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn growth_is_invariant_under_simplification(seed in 0u64..50_000) {
        let (_, r) = gen(seed);
        let g1 = classify_regex(&r);
        let g2 = classify_regex(&simplify(&r));
        prop_assert_eq!(&g1, &g2, "simplify changed the growth class");
        let g3 = classify_regex(&simplify_deep(&r));
        prop_assert_eq!(&g1, &g3, "simplify_deep changed the growth class");
    }

    #[test]
    fn growth_is_invariant_under_minimization(seed in 0u64..50_000) {
        let (_, r) = gen(seed);
        let dfa = Dfa::from_nfa(&Nfa::thompson(&r), 3);
        let g1 = classify_dfa(&dfa);
        let g2 = classify_dfa(&dfa.minimize());
        prop_assert_eq!(&g1, &g2);
    }

    #[test]
    fn finite_class_agrees_with_enumeration(seed in 0u64..50_000) {
        let (_, r) = gen(seed);
        let nfa = Nfa::thompson(&r);
        match classify_regex(&r) {
            Growth::Empty => prop_assert!(nfa.is_empty_lang()),
            Growth::Finite { count, max_len } => {
                prop_assert!(nfa.is_finite_lang());
                if count <= 512 {
                    let words = nfa.enumerate_words(max_len, 1024);
                    prop_assert_eq!(words.len() as u64, count);
                    prop_assert_eq!(
                        words.iter().map(Vec::len).max().unwrap_or(0),
                        max_len
                    );
                }
            }
            Growth::Polynomial { .. } | Growth::Exponential => {
                prop_assert!(!nfa.is_finite_lang());
            }
        }
    }

    #[test]
    fn simplify_is_idempotent(seed in 0u64..50_000) {
        let (_, r) = gen(seed);
        let once = simplify(&r);
        let twice = simplify(&once);
        prop_assert_eq!(&once, &twice);
    }

    /// Moore refinement against Brzozowski's double reversal: determinizing
    /// the reverse of a reachable deterministic automaton yields the minimal
    /// one, so `det(rev(det(rev(A))))` is minimal with no refinement at all.
    /// `Nfa::reverse` enters through a fresh start state, which only the
    /// start subset holds: when a nonempty word leads back to the minimal
    /// DFA's start, the subset it reaches is the start's without the fresh
    /// state, and the construction keeps the two apart — one state more
    /// than Moore's (the empty language's single dead state is such a case).
    #[test]
    fn minimization_algorithms_agree(seed in 0u64..50_000) {
        let (_, r) = gen(seed);
        let nfa = Nfa::thompson(&r);
        let moore = Dfa::from_nfa(&nfa, 3).minimize();
        let half = Dfa::from_nfa(&nfa.reverse(), 3).to_nfa();
        let brzozowski = Dfa::from_nfa(&half.reverse(), 3);
        let reentered = (0..moore.num_states() as u32).any(|s| {
            (0..3).any(|a| moore.next(s, Symbol::from_index(a)) == moore.start())
        });
        prop_assert_eq!(moore.num_states() + usize::from(reentered), brzozowski.num_states());
        prop_assert!(rpq::automata::ops::equivalent(&moore.to_nfa(), &brzozowski.to_nfa()).is_ok());
    }
}

#[test]
fn growth_degree_laddder() {
    // Concatenating k independent stars gives polynomial degree k−1;
    // overlapping alphabets inside one star give exponential.
    let mut ab = Alphabet::new();
    for (src, expect) in [
        ("a*", Growth::Polynomial { degree: 0 }),
        ("a*.b*", Growth::Polynomial { degree: 1 }),
        ("a*.b*.c*", Growth::Polynomial { degree: 2 }),
        ("a*.b*.c*.a*", Growth::Polynomial { degree: 3 }),
        ("(a+b)*", Growth::Exponential),
    ] {
        let r = rpq::automata::parse_regex(&mut ab, src).unwrap();
        assert_eq!(classify_regex(&r), expect, "{src}");
    }
}
