//! Property tests for the language-theory substrate: the algebraic laws and
//! cross-representation agreements everything downstream relies on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq_automata::elim::nfa_to_regex;
use rpq_automata::ops::{equivalent, included_antichain, included_naive, regex_included};
use rpq_automata::{Alphabet, Dfa, Nfa, Regex, StateId, Symbol};
use rpq_paper::derivative::{accepts as re_accepts, derivative};
use rpq_paper::growth::classify_dfa;
use rpq_paper::DerivativeClosure;
use rpq_testkit::random::{random_regex, sample_word, RegexGenConfig};

/// The smallest complete-DFA alphabet size covering both automata:
/// `max symbol index + 1` over the transitions of `a` and `b` (at least 1,
/// so degenerate symbol-free automata still determinize). Deriving sigma
/// from the automata themselves — instead of a caller guess like
/// `Alphabet::len()` — keeps `included_naive` sound when the interned
/// alphabet is wider than the expressions under test, and cheap when it is
/// much wider.
fn union_sigma(a: &Nfa, b: &Nfa) -> usize {
    let top = |n: &Nfa| n.symbols().last().map_or(0, |s| s.index() + 1);
    top(a).max(top(b)).max(1)
}

fn syms() -> (Alphabet, Vec<Symbol>) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let s = ab.symbols().collect();
    (ab, s)
}

fn gen(seed: u64) -> (Alphabet, Vec<Symbol>, Regex) {
    let (ab, s) = syms();
    let cfg = RegexGenConfig::new(s.clone());
    let r = random_regex(&mut StdRng::seed_from_u64(seed), &cfg);
    (ab, s, r)
}

fn words_up_to(syms: &[Symbol], n: usize) -> Vec<Vec<Symbol>> {
    let mut all: Vec<Vec<Symbol>> = vec![vec![]];
    let mut layer: Vec<Vec<Symbol>> = vec![vec![]];
    for _ in 0..n {
        let mut next = Vec::new();
        for w in &layer {
            for &s in syms {
                let mut w2 = w.clone();
                w2.push(s);
                next.push(w2);
            }
        }
        all.extend(next.iter().cloned());
        layer = next;
    }
    all
}

/// `nfa` with three states no accepted word passes through, wired from the
/// seed: one that reaches the automaton but is not reached, one reached but
/// leading nowhere, and an accepting one nothing reaches.
fn with_unused_states(mut nfa: Nfa, seed: u64) -> Nfa {
    let n = nfa.num_states() as StateId;
    let pick = |k: u64| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(k) % u64::from(n)) as StateId;
    let a = Symbol::from_index(seed as usize % 3);
    let orphan = nfa.add_state(false);
    nfa.add_transition(orphan, a, pick(1));
    let dead_end = nfa.add_state(false);
    nfa.add_transition(pick(2), a, dead_end);
    let stranded = nfa.add_state(true);
    nfa.add_eps(stranded, orphan);
    nfa
}

/// Which states lie on a path from the start to an accepting state, by a
/// fixpoint over every edge (no adjacency lists).
fn useful_states(nfa: &Nfa) -> Vec<bool> {
    let n = nfa.num_states();
    let edges: Vec<(usize, usize)> = (0..n as StateId)
        .flat_map(|s| {
            let eps = nfa
                .eps_transitions(s)
                .iter()
                .map(move |&t| (s as usize, t as usize));
            eps.chain(
                nfa.transitions(s)
                    .iter()
                    .map(move |&(_, t)| (s as usize, t as usize)),
            )
        })
        .collect();
    let mut fwd = vec![false; n];
    fwd[nfa.start() as usize] = true;
    let mut bwd: Vec<bool> = (0..n as StateId).map(|s| nfa.is_accepting(s)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &(s, t) in &edges {
            if fwd[s] && !fwd[t] {
                fwd[t] = true;
                changed = true;
            }
            if bwd[t] && !bwd[s] {
                bwd[s] = true;
                changed = true;
            }
        }
    }
    (0..n).map(|s| fwd[s] && bwd[s]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ∂_a then membership = membership of a·w (the defining law).
    #[test]
    fn derivative_law(seed in 0u64..100_000) {
        let (_, s, r) = gen(seed);
        for &a in &s {
            let d = derivative(&r, a);
            for w in words_up_to(&s, 3) {
                let mut aw = vec![a];
                aw.extend(w.iter().copied());
                prop_assert_eq!(re_accepts(&d, &w), re_accepts(&r, &aw));
            }
        }
    }

    /// Thompson NFA, subset DFA, minimized DFA, and the derivative
    /// closure (a word is accepted iff the class it reaches is nullable)
    /// all accept the same words.
    #[test]
    fn four_representations_agree(seed in 0u64..100_000) {
        let (ab, s, r) = gen(seed);
        let nfa = Nfa::thompson(&r);
        let dfa = Dfa::from_nfa(&nfa, ab.len());
        let min = dfa.minimize();
        let closure = DerivativeClosure::compute(&r, &s, 10_000).unwrap();
        for w in words_up_to(&s, 4) {
            let expect = nfa.accepts(&w);
            prop_assert_eq!(dfa.accepts(&w), expect);
            prop_assert_eq!(min.accepts(&w), expect);
            prop_assert_eq!(closure.nullable[closure.class_of(&w).unwrap()], expect);
        }
    }

    /// Minimization does not change word counts by length.
    #[test]
    fn minimize_preserves_census(seed in 0u64..100_000) {
        let (ab, _, r) = gen(seed);
        let dfa = Dfa::from_nfa(&Nfa::thompson(&r), ab.len());
        let min = dfa.minimize();
        prop_assert!(min.num_states() <= dfa.num_states());
        prop_assert_eq!(dfa.count_words_by_length(6), min.count_words_by_length(6));
    }

    /// The antichain inclusion and equivalence agree with the naive
    /// determinize-and-product inclusion, run both ways.
    #[test]
    fn decision_procedures_agree(seed in 0u64..100_000) {
        let (ab, s, _) = gen(seed);
        let cfg = RegexGenConfig::new(s);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(17));
        let p = random_regex(&mut rng, &cfg);
        let q = random_regex(&mut rng, &cfg);
        let (np, nq) = (Nfa::thompson(&p), Nfa::thompson(&q));
        let inc_naive = included_naive(&np, &nq, ab.len()).is_ok();
        let inc_anti = included_antichain(&np, &nq).is_ok();
        prop_assert_eq!(inc_naive, inc_anti);
        let eq_anti = equivalent(&np, &nq).is_ok();
        let eq_naive = inc_naive && included_naive(&nq, &np, ab.len()).is_ok();
        prop_assert_eq!(eq_anti, eq_naive);
        // consistency: equal ⇒ included both ways
        if eq_anti {
            prop_assert!(inc_anti);
        }
    }

    /// The three inclusion deciders — the regex-level wrapper, the naive
    /// subset-construction check, and the antichain search — agree on
    /// random pairs, with the naive decider's alphabet bound derived from
    /// the *union* of the operands' transition labels ([`union_sigma`])
    /// rather than from an ambient alphabet, and every verdict is
    /// consistent with brute-force word enumeration.
    #[test]
    fn inclusion_deciders_agree_with_derived_sigma(seed in 0u64..100_000) {
        let (_, s, _) = gen(seed);
        let cfg = RegexGenConfig::new(s.clone());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(41));
        let p = random_regex(&mut rng, &cfg);
        let q = random_regex(&mut rng, &cfg);
        let (np, nq) = (Nfa::thompson(&p), Nfa::thompson(&q));
        let sigma = union_sigma(&np, &nq);
        let via_regex = regex_included(&p, &q);
        let via_naive = included_naive(&np, &nq, sigma).is_ok();
        let via_anti = included_antichain(&np, &nq).is_ok();
        prop_assert_eq!(via_regex, via_naive);
        prop_assert_eq!(via_naive, via_anti);
        // ground truth on short words: included ⇒ no short counterexample,
        // and any short counterexample ⇒ not included
        for w in words_up_to(&s, 4) {
            if np.accepts(&w) && !nq.accepts(&w) {
                prop_assert!(!via_anti, "short counterexample refutes inclusion");
                break;
            }
        }
        if via_anti {
            for w in words_up_to(&s, 4) {
                prop_assert!(!np.accepts(&w) || nq.accepts(&w));
            }
        }
    }

    /// State elimination round-trips the language.
    #[test]
    fn elimination_round_trip(seed in 0u64..100_000) {
        let (_, _, r) = gen(seed);
        let back = nfa_to_regex(&Nfa::thompson(&r));
        prop_assert!(
            equivalent(&Nfa::thompson(&r), &Nfa::thompson(&back)).is_ok(),
            "elimination changed the language"
        );
    }

    /// Reversal is a language anti-isomorphism and an involution.
    #[test]
    fn reversal_laws(seed in 0u64..100_000) {
        let (_, s, r) = gen(seed);
        let rev = r.reverse();
        let nfa = Nfa::thompson(&r);
        let nrev = Nfa::thompson(&rev);
        for w in words_up_to(&s, 4) {
            let mut back = w.clone();
            back.reverse();
            prop_assert_eq!(nfa.accepts(&w), nrev.accepts(&back));
        }
        prop_assert_eq!(rev.reverse(), r);
    }

    /// NFA reversal agrees with regex reversal.
    #[test]
    fn nfa_reverse_agrees(seed in 0u64..100_000) {
        let (_, s, r) = gen(seed);
        let via_regex = Nfa::thompson(&r.reverse());
        let via_nfa = Nfa::thompson(&r).reverse();
        for w in words_up_to(&s, 4) {
            prop_assert_eq!(via_regex.accepts(&w), via_nfa.accepts(&w));
        }
    }

    /// The NFA's finiteness decision agrees with the DFA's growth class
    /// (`rpq_paper::growth`), and with the syntactic finite-language
    /// extraction when it succeeds.
    #[test]
    fn finiteness_agrees(seed in 0u64..100_000) {
        let (ab, _, r) = gen(seed);
        let nfa = Nfa::thompson(&r);
        let dfa = Dfa::from_nfa(&nfa, ab.len());
        prop_assert_eq!(nfa.is_finite_lang(), classify_dfa(&dfa).is_finite());
        if let Some(words) = r.finite_language(4096) {
            prop_assert!(nfa.is_finite_lang());
            for w in &words {
                prop_assert!(nfa.accepts(w));
            }
        }
    }

    /// Sampled words are members; shortest-accepted is minimal and a member.
    #[test]
    fn sampling_and_shortest(seed in 0u64..100_000) {
        let (_, _, r) = gen(seed);
        let nfa = Nfa::thompson(&r);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(w) = sample_word(&mut rng, &r, 12) {
            prop_assert!(nfa.accepts(&w));
        }
        match nfa.shortest_accepted() {
            None => prop_assert!(nfa.is_empty_lang()),
            Some(w) => {
                prop_assert!(nfa.accepts(&w));
                // nothing shorter is accepted
                for shorter in nfa.enumerate_words(w.len().saturating_sub(1), 1) {
                    prop_assert!(shorter.len() >= w.len());
                }
            }
        }
    }

    /// Intersection product accepts exactly the conjunction.
    #[test]
    fn intersection_is_conjunction(seed in 0u64..100_000) {
        let (_, s, _) = gen(seed);
        let cfg = RegexGenConfig::new(s.clone());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(99));
        let p = random_regex(&mut rng, &cfg);
        let q = random_regex(&mut rng, &cfg);
        let (np, nq) = (Nfa::thompson(&p), Nfa::thompson(&q));
        let both = Nfa::intersection(&np, &nq);
        for w in words_up_to(&s, 4) {
            prop_assert_eq!(both.accepts(&w), np.accepts(&w) && nq.accepts(&w));
        }
    }

    /// `enumerate_words` returns exactly the accepted words of length ≤ 4,
    /// in (length, symbol) order — brute force over every word, membership
    /// by derivatives — and a cap keeps the first `cap` of them.
    #[test]
    fn enumeration_is_the_filtered_brute_force(seed in 0u64..100_000) {
        let (_, s, r) = gen(seed);
        let nfa = with_unused_states(Nfa::thompson(&r), seed);
        let expect: Vec<Vec<Symbol>> =
            words_up_to(&s, 4).into_iter().filter(|w| re_accepts(&r, w)).collect();
        prop_assert_eq!(&nfa.enumerate_words(4, usize::MAX), &expect);
        let cap = expect.len() / 2 + 1;
        let capped = nfa.enumerate_words(4, cap);
        prop_assert_eq!(capped.as_slice(), &expect[..cap.min(expect.len())]);
    }

    /// The difference product `x && !y` of two determinized automata
    /// accepts exactly the words the first regex accepts and the second
    /// rejects.
    #[test]
    fn difference_product_is_membership(seed in 0u64..100_000) {
        let (ab, s, _) = gen(seed);
        let cfg = RegexGenConfig::new(s.clone());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(23));
        let p = random_regex(&mut rng, &cfg);
        let q = random_regex(&mut rng, &cfg);
        let dp = Dfa::from_nfa(&Nfa::thompson(&p), ab.len());
        let dq = Dfa::from_nfa(&Nfa::thompson(&q), ab.len());
        let diff = Dfa::product(&dp, &dq, |x, y| x && !y);
        for w in words_up_to(&s, 4) {
            prop_assert_eq!(diff.accepts(&w), re_accepts(&p, &w) && !re_accepts(&q, &w));
        }
    }

    /// A counterexample of the antichain inclusion is a word `a` accepts
    /// and `b` rejects (membership by derivatives), no shorter than the
    /// shortest one the naive product finds.
    #[test]
    fn antichain_counterexamples_separate(seed in 0u64..100_000) {
        let (ab, s, _) = gen(seed);
        let cfg = RegexGenConfig::new(s);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(61));
        let p = random_regex(&mut rng, &cfg);
        let q = random_regex(&mut rng, &cfg);
        let (np, nq) = (Nfa::thompson(&p), Nfa::thompson(&q));
        for (a, b, ra, rb) in [(&np, &nq, &p, &q), (&nq, &np, &q, &p)] {
            if let Err(w) = included_antichain(a, b) {
                prop_assert!(re_accepts(ra, &w) && !re_accepts(rb, &w), "{:?}", w);
                let shortest = included_naive(a, b, ab.len()).unwrap_err();
                prop_assert!(shortest.len() <= w.len());
            }
        }
    }

    /// `trim` keeps the language and exactly the useful states: those on
    /// some path from the start to an accepting state, computed here by a
    /// fixpoint over the untrimmed automaton.
    #[test]
    fn trim_keeps_the_language_and_the_useful_states(seed in 0u64..100_000) {
        let (_, s, r) = gen(seed);
        let nfa = with_unused_states(Nfa::thompson(&r), seed);
        let trimmed = nfa.trim();
        for w in words_up_to(&s, 4) {
            prop_assert_eq!(trimmed.accepts(&w), re_accepts(&r, &w));
        }
        let useful = useful_states(&nfa);
        let kept = useful.iter().filter(|&&u| u).count();
        if useful[nfa.start() as usize] {
            prop_assert_eq!(trimmed.num_states(), kept);
            prop_assert!(useful_states(&trimmed).iter().all(|&u| u));
        } else {
            prop_assert!(trimmed.is_empty_lang() && trimmed.num_states() == 1);
        }
    }

    /// Union/concat/star smart constructors respect the algebra semantically.
    #[test]
    fn constructor_semantics(seed in 0u64..100_000) {
        let (_, s, _) = gen(seed);
        let cfg = RegexGenConfig::new(s.clone());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7));
        let p = random_regex(&mut rng, &cfg);
        let q = random_regex(&mut rng, &cfg);
        let u = p.clone().or(q.clone());
        let cat = p.clone().then(q.clone());
        let st = p.clone().star();
        let (np, nq) = (Nfa::thompson(&p), Nfa::thompson(&q));
        let (nu, ncat, nst) = (Nfa::thompson(&u), Nfa::thompson(&cat), Nfa::thompson(&st));
        for w in words_up_to(&s, 3) {
            prop_assert_eq!(nu.accepts(&w), np.accepts(&w) || nq.accepts(&w));
            // concat: check via split
            let mut concat_expect = false;
            for i in 0..=w.len() {
                if np.accepts(&w[..i]) && nq.accepts(&w[i..]) {
                    concat_expect = true;
                    break;
                }
            }
            prop_assert_eq!(ncat.accepts(&w), concat_expect);
            let _ = &nst;
        }
        // star sanity
        prop_assert!(nst.accepts(&[]));
    }
}

#[test]
fn parser_printer_round_trip_on_random_regexes() {
    let (ab, s) = syms();
    let cfg = RegexGenConfig::new(s);
    for seed in 0..200u64 {
        let r = random_regex(&mut StdRng::seed_from_u64(seed), &cfg);
        let printed = format!("{}", r.display(&ab));
        let mut ab2 = ab.clone();
        let reparsed = rpq_automata::parse_regex(&mut ab2, &printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(r, reparsed, "round trip changed {printed}");
    }
}
