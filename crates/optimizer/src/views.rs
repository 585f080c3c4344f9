//! Answering path queries using cached views.
//!
//! Section 5 of the paper: "the use of cached path queries to answer a
//! given path query … can also be solved using our results, by exhaustive
//! search of Boolean combination of the cached queries and testing
//! equivalence to the given query under the constraints. The problem can
//! be refined to making *partial* use of cached queries rather than using
//! them to fully answer the given query." This module implements both: the
//! bounded combination search and the partial-cover refinement.
//!
//! ## Setting
//!
//! A *cache definition* is an equality constraint `l = r` whose one side is
//! a single label `l` (the cache link of Section 3.2: "the answer to query
//! q at site o could be saved and accessed from o by links labeled l_q").
//! Given caches `(l₁ = r₁), …, (lₖ = rₖ)` and a target `q`, we search for
//! a *rewriting*: a query over cache labels and base labels that is
//! equivalent to `q` under the constraints, and cheaper.
//!
//! ## Where cache labels may appear — a soundness point
//!
//! Constraints hold **at the source object only**, so a cache label is
//! only known to mean its body when it is the *first* step of a path. A
//! set-equality does lift through right-concatenation
//! (`l(o) = r(o)` implies `(l·t)(o) = ∪_{x∈l(o)} t(x) = (r·t)(o)`), so
//! rewritings of the shape
//!
//! ```text
//! l₁·t₁ + l₂·t₂ + … + rest        (cache labels in head position only)
//! ```
//!
//! are sound by construction. Cache labels in non-head positions (e.g.
//! `a·l·b`) would require the constraint to hold at interior nodes, which
//! the paper's semantics does not give — the search never produces them.
//!
//! ## The search
//!
//! For each cache `(l, r)`: the *maximal safe tail* is the universal left
//! quotient `t = {w | ∀u ∈ L(r): u·w ∈ L(q)}` — the largest language with
//! `r·t ⊆ q`. For each subset of caches (bounded), the covered part is
//! `∪ rᵢ·tᵢ`; the *remainder* `q ∖ ∪ rᵢ·tᵢ` is computed as an automaton
//! difference and appended as a plain (cache-free) arm — this is the
//! "partial use" refinement; when the remainder is empty the rewriting is
//! total. Tails are shrunk greedily (shortest words first, then the
//! algebraic simplifier). Every emitted rewriting is *verified* by
//! the plan's closure test (never trusted by construction), following the
//! crate's policy. Within a plan, a rewriting whose regex equals a
//! candidate the rewrite families already proved equivalent to `q` takes
//! over that proof: the claim `E ⊨ q = c` is the same one, decided once.
//!
//! ## What is compiled once, and what the gate proves
//!
//! The query's complete DFA is one artefact of the plan's `CompiledQuery`
//! (shared with the simplifier of [`crate::rewrites`], and by every cache
//! and subset mask here); the cache list and each body's automaton come
//! compiled with the [`ConstraintSet`]. Before any
//! complement is taken, each cache is asked the one question both cache
//! families share — which states of `q` does some word of `r` lead to
//! (`q ∩ r·Σ*`)? If none and `L(r) ≠ ∅`, some `u ∈ L(r)` prefixes no word
//! of `q`, so no `w` has `u·w ∈ L(q)`: the universal tail is empty and the
//! cache could not have been used. The gate drops exactly those caches; a
//! body with an empty language passes it (its tail is vacuously `Σ*`).

use rpq_automata::elim::nfa_to_regex;
use rpq_automata::ops::{equivalent, regex_included};
use rpq_automata::simplify::simplify_deep;
use rpq_automata::{Alphabet, Dfa, Nfa, Regex, StateId, Symbol};
use rpq_constraints::types::PathConstraint;
use rpq_constraints::ConstraintSet;

pub use rpq_constraints::CacheDef;

use crate::compiled::{CompiledQuery, PlanPass};
use crate::cost::StaticCost;
use crate::rewrites::Candidate;

/// The cache definitions of `set`: equalities with a single-label side and
/// a non-trivial body ([`ConstraintSet::caches`], compiled once per set).
pub fn cache_defs(set: &ConstraintSet) -> &[CacheDef] {
    set.caches()
}

/// How much of the target the rewriting answers from caches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ViewKind {
    /// The caches cover the whole query (empty remainder).
    Total,
    /// Caches answer part of the query; a residual cache-free arm remains.
    Partial,
}

/// A verified view-based rewriting.
#[derive(Clone, Debug)]
pub struct ViewRewriting {
    /// The rewritten query (cache labels in head positions only).
    pub query: Regex,
    /// Cache labels used.
    pub uses: Vec<Symbol>,
    /// Total or partial cover.
    pub kind: ViewKind,
    /// Which engine verified equivalence under the constraints.
    pub proof: &'static str,
    /// Static cost of the rewriting.
    pub cost: StaticCost,
}

/// Consider at most this many caches (subsets enumerate 2^k).
const MAX_CACHES: usize = 4;
/// Give up on a tail whose intermediate DFA exceeds this many states.
const MAX_DFA_STATES: usize = 2_000;
/// Greedy tail shrinking: max word length to try.
const TAIL_WORD_LEN: usize = 10;
/// Greedy tail shrinking: cap on enumerated words.
const TAIL_WORD_CAP: usize = 12;

/// The universal left quotient `{w | ∀u ∈ L(r): u·w ∈ L(q)}` as a regex,
/// or `None` when it is empty or exceeds the state budget. This is the
/// maximal tail with `r·t ⊆ q`. `hits` is the cache's entry of
/// [`CompiledQuery::cache_hits`].
fn universal_tail(cq: &CompiledQuery<'_>, cache: &CacheDef, hits: &[StateId]) -> Option<Regex> {
    // The gate: no word of r can even be read in q, and r has a word.
    if hits.is_empty() && !cache.empty {
        return None;
    }
    // ∁( ∃-quotient of ∁q by r ): complement, quotient, complement.
    let dq = cq.dfa();
    if dq.num_states() > MAX_DFA_STATES {
        return None;
    }
    let ncomp = dq.complement().to_nfa();
    let starts = ncomp.reachable_via(&cache.nfa);
    let mut ex = Nfa::empty();
    let off = ex.add_nfa(&ncomp);
    for s in starts {
        ex.add_eps(ex.start(), s + off);
    }
    let dex = Dfa::from_nfa(&ex, dq.sigma());
    if dex.num_states() > MAX_DFA_STATES {
        return None;
    }
    let tail_nfa = dex.complement().to_nfa().trim();
    if tail_nfa.is_empty_lang() {
        return None;
    }
    let tail = nfa_to_regex(&tail_nfa);
    debug_assert!(
        regex_included(&cache.body.clone().then(tail.clone()), cq.regex()),
        "universal tail must satisfy r·t ⊆ q"
    );
    Some(tail)
}

/// Shrink a tail: greedily try finite unions of its shortest words, then
/// the algebraic simplifier on the full expression; keep the smallest
/// expression `t'` with `r·t' ≡ r·t`.
fn shrink_tail(tail: &Regex, r: &Regex) -> Regex {
    let covered = Nfa::thompson(&r.clone().then(tail.clone()));
    let nfa = Nfa::thompson(tail);
    let mut words: Vec<Vec<Symbol>> = Vec::new();
    for w in nfa.enumerate_words(TAIL_WORD_LEN, TAIL_WORD_CAP) {
        words.push(w);
        let t = Regex::from_finite_language(words.clone());
        if equivalent(&Nfa::thompson(&r.clone().then(t.clone())), &covered).is_ok() {
            return t;
        }
    }
    let simplified = simplify_deep(tail);
    if simplified.size() < tail.size() {
        simplified
    } else {
        tail.clone()
    }
}

/// Search for view-based rewritings of `q` under `set`. Results are
/// verified by the closure test ([`rpq_constraints::Closures::implies`])
/// and sorted by static cost (best first).
pub fn rewrite_with_views(
    set: &ConstraintSet,
    q: &Regex,
    alphabet: &Alphabet,
) -> Vec<ViewRewriting> {
    views_compiled(
        &PlanPass::new(set),
        &CompiledQuery::new(q, alphabet.len()),
        &[],
    )
}

/// [`rewrite_with_views`] over a query the planner has compiled, within
/// its pass. `proved` are the candidates the rewrite families validated
/// for the same query: a rewriting equal to one of them reuses its proof.
pub(crate) fn views_compiled(
    pass: &PlanPass<'_>,
    cq: &CompiledQuery<'_>,
    proved: &[Candidate],
) -> Vec<ViewRewriting> {
    let set = pass.set();
    if set.caches().is_empty() {
        return Vec::new();
    }
    let q = cq.regex();

    // Per-cache maximal tails (shrunk) and covered languages.
    struct Usable {
        label: Symbol,
        tail: Regex,
        covered: Regex,
    }
    let mut usable: Vec<Usable> = Vec::new();
    for (c, hits) in set.caches().iter().zip(cq.cache_hits(set)).take(MAX_CACHES) {
        let Some(t) = universal_tail(cq, c, hits) else {
            continue;
        };
        let tail = shrink_tail(&t, &c.body);
        let covered = c.body.clone().then(tail.clone());
        usable.push(Usable {
            label: c.label,
            tail,
            covered,
        });
    }
    if usable.is_empty() {
        return Vec::new();
    }

    let mut out: Vec<ViewRewriting> = Vec::new();
    // Enumerate nonempty subsets (the "Boolean combinations").
    for mask in 1u32..(1u32 << usable.len()) {
        let members: Vec<&Usable> = usable
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, u)| u)
            .collect();

        let cover = Regex::union(members.iter().map(|u| u.covered.clone()).collect());
        // Remainder: q ∖ cover, as an automaton difference.
        let dq = cq.dfa();
        let dc = Dfa::from_nfa(&Nfa::thompson(&cover), dq.sigma());
        if dq.num_states() > MAX_DFA_STATES || dc.num_states() > MAX_DFA_STATES {
            continue;
        }
        let diff = Dfa::product(dq, &dc, |x, y| x && !y);
        let rem_nfa = diff.to_nfa().trim();
        let (kind, rem) = if rem_nfa.is_empty_lang() {
            (ViewKind::Total, Regex::Empty)
        } else {
            (ViewKind::Partial, simplify_deep(&nfa_to_regex(&rem_nfa)))
        };

        let mut arms: Vec<Regex> = members
            .iter()
            .map(|u| Regex::sym(u.label).then(u.tail.clone()))
            .collect();
        if rem != Regex::Empty {
            arms.push(rem.clone());
        }
        let candidate = Regex::union(arms);
        if candidate == *q {
            continue;
        }

        // Verify E ⊨ q = candidate: a family's proof of the same claim,
        // else the plan's closure test. Never emit unverified rewritings.
        let proof = match proved.iter().find(|c| c.query == candidate) {
            Some(c) => c.proof,
            None => {
                let claim = PathConstraint::equality(q.clone(), candidate.clone());
                match pass.decide(&claim) {
                    Some(method) => method,
                    None => continue,
                }
            }
        };
        out.push(ViewRewriting {
            cost: StaticCost::of(&candidate),
            query: candidate,
            uses: members.iter().map(|u| u.label).collect(),
            kind,
            proof,
        });
    }

    out.sort_by_key(|r| r.cost.score());
    out.dedup_by(|a, b| a.query == b.query);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::ops::regex_equivalent;
    use rpq_automata::parse_regex;
    use rpq_constraints::general::{check, Budget};

    fn setup(lines: &[&str], query: &str) -> (Alphabet, ConstraintSet, Regex) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let q = parse_regex(&mut ab, query).unwrap();
        (ab, set, q)
    }

    #[test]
    fn extracts_cache_definitions() {
        let (ab, set, _) = setup(&["l = (a.b)*", "m = c.d", "x <= y"], "a");
        let defs = cache_defs(&set);
        assert_eq!(defs.len(), 2);
        let l = ab.get("l").unwrap();
        assert!(defs.iter().any(|d| d.label == l));
    }

    #[test]
    fn total_cover_reproduces_example3() {
        // X3: q = a(ba)*c, cache l = (ab)*: total rewriting l·a·c.
        let (ab, set, q) = setup(&["l = (a.b)*"], "a.(b.a)*.c");
        let rewritings = rewrite_with_views(&set, &q, &ab);
        assert!(!rewritings.is_empty());
        let best = &rewritings[0];
        assert_eq!(best.kind, ViewKind::Total);
        assert!(!best.cost.recursive, "cache removes recursion");
        let mut ab2 = ab.clone();
        let expect = parse_regex(&mut ab2, "l.a.c").unwrap();
        assert!(
            regex_equivalent(&best.query, &expect),
            "got {}",
            best.query.display(&ab)
        );
    }

    #[test]
    fn partial_cover_leaves_cache_free_remainder() {
        // Cache covers only the (ab)*-headed part; the d-arm remains plain.
        let (ab, set, q) = setup(&["l = (a.b)*"], "a.(b.a)*.c + d.e");
        let rewritings = rewrite_with_views(&set, &q, &ab);
        assert!(!rewritings.is_empty());
        let best = &rewritings[0];
        assert_eq!(best.kind, ViewKind::Partial);
        let mut ab2 = ab.clone();
        let expect = parse_regex(&mut ab2, "l.a.c + d.e").unwrap();
        assert!(
            regex_equivalent(&best.query, &expect),
            "got {}",
            best.query.display(&ab)
        );
    }

    #[test]
    fn two_caches_combine() {
        let (ab, set, q) = setup(&["l1 = (a.b)*", "l2 = (c.d)*"], "a.(b.a)*.x + c.(d.c)*.y");
        let rewritings = rewrite_with_views(&set, &q, &ab);
        let both = rewritings
            .iter()
            .find(|r| r.uses.len() == 2)
            .expect("a rewriting using both caches");
        assert_eq!(both.kind, ViewKind::Total);
        let mut ab2 = ab.clone();
        let expect = parse_regex(&mut ab2, "l1.a.x + l2.c.y").unwrap();
        assert!(regex_equivalent(&both.query, &expect));
    }

    #[test]
    fn no_usable_cache_returns_empty() {
        // The cache body shares no structure with the query.
        let (ab, set, q) = setup(&["l = (a.b)*"], "z.z");
        let rewritings = rewrite_with_views(&set, &q, &ab);
        assert!(rewritings.is_empty());
    }

    #[test]
    fn rewritings_cache_labels_in_head_position_only() {
        let (ab, set, q) = setup(&["l = (a.b)*"], "a.(b.a)*.c + d.e");
        let l = ab.get("l").unwrap();
        for r in rewrite_with_views(&set, &q, &ab) {
            // every occurrence of l must be the first factor of a union arm
            fn l_only_at_head(r: &Regex, l: Symbol, at_head: bool) -> bool {
                match r {
                    Regex::Symbol(s) => *s != l || at_head,
                    Regex::Empty | Regex::Epsilon => true,
                    Regex::Star(inner) => l_only_at_head(inner, l, false),
                    Regex::Union(parts) => parts.iter().all(|p| l_only_at_head(p, l, at_head)),
                    Regex::Concat(parts) => parts
                        .iter()
                        .enumerate()
                        .all(|(i, p)| l_only_at_head(p, l, at_head && i == 0)),
                }
            }
            assert!(
                l_only_at_head(&r.query, l, true),
                "{}",
                r.query.display(&ab)
            );
        }
    }

    #[test]
    fn verified_never_trusted_by_construction() {
        // All returned rewritings pass the implication engine again.
        let (ab, set, q) = setup(&["l = (a.b)*"], "a.(b.a)*.c");
        for r in rewrite_with_views(&set, &q, &ab) {
            let claim = PathConstraint::equality(q.clone(), r.query.clone());
            assert!(check(&set, &claim, &Budget::default()).is_implied());
        }
    }

    /// `universal_tail` without the gate — the definition the gated one is
    /// compared with: both complements, whatever the query starts with.
    fn ungated_universal_tail(q: &Regex, r: &Regex, sigma: usize) -> Option<Regex> {
        let dq = Dfa::from_nfa(&Nfa::thompson(q), sigma);
        if dq.num_states() > MAX_DFA_STATES {
            return None;
        }
        let ncomp = dq.complement().to_nfa();
        let starts = ncomp.reachable_via(&Nfa::thompson(r));
        let mut ex = Nfa::empty();
        let off = ex.add_nfa(&ncomp);
        for s in starts {
            ex.add_eps(ex.start(), s + off);
        }
        let dex = Dfa::from_nfa(&ex, sigma);
        if dex.num_states() > MAX_DFA_STATES {
            return None;
        }
        let tail_nfa = dex.complement().to_nfa().trim();
        if tail_nfa.is_empty_lang() {
            return None;
        }
        Some(nfa_to_regex(&tail_nfa))
    }

    #[test]
    fn the_gate_drops_only_caches_that_have_no_tail() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rpq_automata::random::{random_regex, RegexGenConfig};
        let shapes: [(&str, &[&str]); 4] = [
            ("word", &["l0 = a.b", "l1 = c.d.a"]),
            ("union", &["l0 = a.b + c", "l1 = (a+b).d"]),
            ("star", &["l0 = (a.b)*.c", "l1 = c.d*"]),
            ("empty", &["l0 = []", "l1 = a.b"]),
        ];
        let heads = ["a.b", "c", "c.d", "a.d", "(a.b)*.c", "c.d.a"];
        for (i, (shape, lines)) in shapes.iter().enumerate() {
            let mut ab = Alphabet::from_names(["a", "b", "c", "d"]);
            let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
            let z = ab.intern("z");
            let mut syms: Vec<Symbol> = "abcd"
                .chars()
                .map(|c| ab.get(&c.to_string()).unwrap())
                .collect();
            syms.push(z);
            let mut cfg = RegexGenConfig::new(syms);
            cfg.max_depth = 3;
            let mut rng = StdRng::seed_from_u64(0x6A7E + i as u64);
            let (mut dropped, mut kept) = (0, 0);
            for k in 0..40 {
                let mut q = random_regex(&mut rng, &cfg);
                if k % 2 == 1 {
                    q = parse_regex(&mut ab, heads[k / 2 % heads.len()])
                        .unwrap()
                        .then(q);
                }
                let cq = CompiledQuery::new(&q, ab.len());
                for (cache, hits) in set.caches().iter().zip(cq.cache_hits(&set)) {
                    let reference = ungated_universal_tail(&q, &cache.body, ab.len());
                    assert_eq!(
                        universal_tail(&cq, cache, hits),
                        reference,
                        "{shape}: {} with body {}",
                        q.display(&ab),
                        cache.body.display(&ab)
                    );
                    if hits.is_empty() && !cache.empty {
                        dropped += 1;
                        assert!(
                            reference.is_none(),
                            "{shape}: the gate dropped a usable cache"
                        );
                        // and the ∃-quotient of `rewrites` has no start state
                        let q_nfa = Nfa::thompson(&q);
                        assert!(q_nfa.reachable_via(&Nfa::thompson(&cache.body)).is_empty());
                    } else {
                        kept += 1;
                    }
                }
            }
            assert!(
                dropped > 0 && kept > 0,
                "{shape}: {dropped} dropped, {kept} kept"
            );
        }
    }

    #[test]
    fn an_empty_cache_body_passes_the_gate() {
        // L(r) = ∅ makes every tail vacuously safe: the probe finds no
        // state, and the cache must still reach the search (which then
        // verifies, and ranks, whatever it builds from `Σ*`).
        let (ab, set, q) = setup(&["l = []"], "a.b");
        let cq = CompiledQuery::new(&q, ab.len());
        let hits = &cq.cache_hits(&set)[0];
        assert!(hits.is_empty() && set.caches()[0].empty);
        let tail = universal_tail(&cq, &set.caches()[0], hits).expect("Σ* is a tail");
        assert!(regex_included(&Regex::word(&q.as_word().unwrap()), &tail));
    }

    #[test]
    fn sorted_by_cost() {
        let (ab, set, q) = setup(&["l1 = (a.b)*", "l2 = (c.d)*"], "a.(b.a)*.x + c.(d.c)*.y");
        let rs = rewrite_with_views(&set, &q, &ab);
        for pair in rs.windows(2) {
            assert!(pair[0].cost.score() <= pair[1].cost.score());
        }
    }
}
