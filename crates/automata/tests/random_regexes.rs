//! The automata routines against their definitions on seeded random
//! regexes. These drew on `rpq_testkit::random`, so they live here and not
//! beside the code: a unit test of this crate that took a regex from
//! `rpq-testkit` would hold a second copy of the crate's types.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq_automata::ops::{equivalent, regex_equivalent};
use rpq_automata::{simplify, simplify_deep, Alphabet, Dfa, Symbol};
use rpq_testkit::random::{random_regex, RegexGenConfig};

/// The states of `d` reachable from its start.
fn reachable(d: &Dfa) -> Vec<bool> {
    let mut seen = vec![false; d.num_states()];
    let mut stack = vec![d.start()];
    seen[d.start() as usize] = true;
    while let Some(s) = stack.pop() {
        for sym in 0..d.sigma() {
            let t = d.next(s, Symbol::from_index(sym));
            if !seen[t as usize] {
                seen[t as usize] = true;
                stack.push(t);
            }
        }
    }
    seen
}

/// [`Dfa::minimize`] against the definition of a minimal DFA: the
/// language is kept, every state is reachable, and no two states accept
/// the same language from there (the automaton started at one is not
/// equivalent to the automaton started at the other).
#[test]
fn minimize_is_minimal_on_random_regexes() {
    let mut ab = Alphabet::new();
    let syms = vec![ab.intern("a"), ab.intern("b"), ab.intern("c")];
    let cfg = RegexGenConfig::new(syms);
    let mut rng = StdRng::seed_from_u64(0x40B);
    let mut merged = 0;
    for _ in 0..120 {
        let r = random_regex(&mut rng, &cfg);
        let d = Dfa::from_nfa(&rpq_automata::Nfa::thompson(&r), 3);
        let m = d.minimize();
        assert!(equivalent(&d.to_nfa(), &m.to_nfa()).is_ok(), "{r:?}");
        assert!(reachable(&m).iter().all(|&reached| reached), "{r:?}");
        // `to_nfa` keeps state ids, so moving its start starts it at `s`.
        let from = |s: usize| {
            let mut n = m.to_nfa();
            n.set_start(s as rpq_automata::StateId);
            n
        };
        for s in 0..m.num_states() {
            for t in s + 1..m.num_states() {
                assert!(equivalent(&from(s), &from(t)).is_err(), "{s} ~ {t}: {r:?}");
            }
        }
        merged += usize::from(m.num_states() < d.num_states());
    }
    assert!(merged > 0, "no case had states to merge");
}

#[test]
fn never_grows_and_stays_equivalent_on_random_inputs() {
    let mut ab = Alphabet::new();
    let syms = vec![ab.intern("a"), ab.intern("b"), ab.intern("c")];
    let cfg = RegexGenConfig::new(syms);
    let mut rng = StdRng::seed_from_u64(0xA1B2);
    for _ in 0..200 {
        let r = random_regex(&mut rng, &cfg);
        for s in [simplify(&r), simplify_deep(&r)] {
            assert!(s.size() <= r.size(), "{r:?} grew to {s:?}");
            assert!(
                regex_equivalent(&r, &s),
                "unsound: {} vs {}",
                r.display(&ab),
                s.display(&ab)
            );
        }
    }
}

#[test]
fn deep_route_verified_on_random_inputs() {
    let mut ab = Alphabet::new();
    let syms = vec![ab.intern("a"), ab.intern("b")];
    let mut cfg = RegexGenConfig::new(syms);
    cfg.max_depth = 3;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..60 {
        let r = random_regex(&mut rng, &cfg);
        let s = simplify_deep(&r);
        assert!(regex_equivalent(&r, &s));
    }
}
