//! The printed form of a regex is a faithful wire format: for any
//! (smart-constructed) `Regex`, `parse(display(r)) == r` — the AST comes
//! back bit-identical, not merely language-equivalent. This is what lets
//! the serving layer treat query text as the canonical exchange form.
//!
//! The second property exercises the parser's *error* contract on random
//! garbage: reported spans always lie inside the input and rendering a
//! diagnostic never panics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rpq::automata::{parse_regex, Alphabet};
use rpq_testkit::random::{random_regex, RegexGenConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn printed_regexes_reparse_to_the_same_ast(seed in 0u64..100_000) {
        let mut ab = Alphabet::new();
        // Cover all three identifier flavors the lexer distinguishes:
        // plain, digit/dash-bearing, and underscore-led.
        let syms = vec![ab.intern("a"), ab.intern("b-2"), ab.intern("_part")];
        let cfg = RegexGenConfig::new(syms);
        let mut rng = StdRng::seed_from_u64(seed);
        let r = random_regex(&mut rng, &cfg);
        let printed = r.display(&ab).to_string();
        let reparsed = parse_regex(&mut ab, &printed)
            .unwrap_or_else(|e| panic!("printed form {printed:?} did not reparse: {e}"));
        prop_assert_eq!(&r, &reparsed, "printed form: {}", printed);
    }

    #[test]
    fn error_spans_always_lie_within_the_input(seed in 0u64..100_000) {
        const CHARS: &[char] = &[
            'a', 'b', '.', '+', '*', '?', '(', ')', '[', ']', '"', '\\', 'ε', '∅', ' ',
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(0..14);
        let s: String = (0..len)
            .map(|_| CHARS[rng.random_range(0..CHARS.len())])
            .collect();
        let mut ab = Alphabet::new();
        match parse_regex(&mut ab, &s) {
            Ok(r) => {
                // Whatever parses must itself round-trip.
                let printed = r.display(&ab).to_string();
                prop_assert_eq!(parse_regex(&mut ab, &printed).as_ref(), Ok(&r));
            }
            Err(e) => {
                let (start, end) = e.span();
                prop_assert!(start <= end, "inverted span in {s:?}: {e}");
                prop_assert!(end <= s.len(), "span past the end of {s:?}: {e}");
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}
