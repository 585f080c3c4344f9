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
//! `r·t ⊆ q`. The first `MAX_CACHES` caches that have one are combined:
//! for each non-empty subset, the covered part is `∪ rᵢ·tᵢ`; the
//! *remainder* `q ∖ ∪ rᵢ·tᵢ` is computed as an automaton difference and
//! appended as a plain (cache-free) arm — this is the "partial use"
//! refinement; when the remainder is empty the rewriting is total. Tails
//! are shrunk greedily (shortest words first, then the algebraic
//! simplifier). Every emitted rewriting is *verified* under `E`
//! ([`rpq_constraints::Closures::implies`]), following the crate's policy:
//! shape alone never admits one. A total cover by one cache whose body
//! `r` begins `q` as a tree, `q = r·t` beside `l·t`, is one rule of `E`
//! right-concatenated with the tail each way (`r ⊆ l` and `l ⊆ r`), and
//! is proved in one rewrite step — sound by the right-congruence above,
//! and checked on the two trees, not assumed of the search. Every other
//! rewriting is decided by the closure test.
//!
//! This search is the only code in the crate that substitutes a cache: the
//! paper's Example 3 (`l = (ab)*` turns `a(ba)*c` into `l·a·c`) is its
//! one-cache total cover, which the planner reports as
//! [`crate::RewriteRule::CacheSubstitution`].
//!
//! ## Computing the tail
//!
//! A one-word body `u` under a query that spells it, `q = u·t` as a
//! concatenation whose first `|u|` factors are `u`'s labels, needs no
//! automaton: its universal tail is `L(t)`, and since `u·t' ≡ u·t` iff
//! `L(t') = L(t)`, shrinking keeps every word of `L(t)`. When `L(t)` is
//! finite, non-empty and within the shrinking's bounds (`TAIL_WORD_CAP`
//! words of at most `TAIL_WORD_LEN` labels), the tail is the union of
//! those words, read off the tree — the regex the path below returns,
//! because `Regex::union` sorts its arms. Such a cache is not probed, and
//! its candidate is still decided and certified like any other. Every
//! other body, and a one-word body under any other query, takes that path.
//!
//! The tail is first sought as the *existential* quotient `E = {w | ∃u ∈
//! L(r): u·w ∈ L(q)}`: `q`'s Thompson automaton entered at the states some
//! word of `r` leads to. `E` contains the universal tail whenever `r` has
//! a word, so if also `r·E ⊆ q` (one inclusion test), `E` *is* the
//! universal tail — and its regex, read off `q`'s own automaton, keeps
//! `q`'s syntax, which the complement construction does not. Only when
//! `r·E ⊈ q` — a body whose words `q` continues differently, as
//! `r = a.b + c` under `q = a.b.x + c.y` — is the tail computed as the
//! complement of the existential quotient of `∁q`, two determinizations
//! bounded by `MAX_DFA_STATES`. The remainder of a subset whose cover
//! `∪ rᵢ·tᵢ` is `q` itself, as a tree, is `∅`; every other remainder is a
//! difference with `q`'s complete DFA under the same bound, so a query
//! whose DFA exceeds it gets only the covers that are `q` itself.
//!
//! ## What is compiled once, and what the gate proves
//!
//! The query's Thompson automaton and complete DFA are artefacts of the
//! plan's `CompiledQuery` (shared with the rewrite families of
//! [`crate::rewrites`], and by every cache and subset mask here); the
//! cache list and each body's automaton come compiled with the
//! [`ConstraintSet`]. Before any tail is built, each cache is probed once
//! for the states of `q` some word of `r` leads to (`q ∩ r·Σ*`). If none and
//! `L(r) ≠ ∅`, some `u ∈ L(r)` prefixes no word of `q`, so no `w` has
//! `u·w ∈ L(q)`: the universal tail is empty and the cache could not have
//! been used. The gate drops exactly those caches; a body with an empty
//! language passes it (its tail is vacuously `Σ*`). When `q` has no `∅`
//! subterm, so that every state of its automaton begins a word of `q`, a
//! body without the empty word none of whose first labels begins a word
//! of `q` is one the probe would find no state for: it is dropped on the
//! regexes, and the probe is not run.
//!
//! `q`'s complete DFA is built only for a remainder that is not `∅` by
//! construction: a query whose every cover is `q` itself (a body with one
//! tail, `q = r·t` as a tree) is rewritten without it, whatever the size
//! of its DFA against `MAX_DFA_STATES`.

use rpq_automata::elim::nfa_to_regex;
use rpq_automata::ops::{equivalent, included_antichain, regex_included};
use rpq_automata::simplify::simplify_deep;
use rpq_automata::{Alphabet, Dfa, Nfa, Regex, StateId, Symbol};
use rpq_constraints::types::PathConstraint;
use rpq_constraints::ConstraintSet;

pub use rpq_constraints::CacheDef;

use crate::compiled::{CompiledQuery, PlanPass};
use crate::cost::StaticCost;
use crate::shape::labels;

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

/// Use at most this many caches (subsets enumerate 2^k): the first ones,
/// in set order, that have a tail.
const MAX_CACHES: usize = 4;
/// Give up on a tail whose intermediate DFA exceeds this many states.
const MAX_DFA_STATES: usize = 2_000;
/// Greedy tail shrinking: max word length to try.
const TAIL_WORD_LEN: usize = 12;
/// Greedy tail shrinking: cap on enumerated words.
const TAIL_WORD_CAP: usize = 16;

/// The universal left quotient `{w | ∀u ∈ L(r): u·w ∈ L(q)}` as a regex,
/// or `None` when it is empty or exceeds the state budget. This is the
/// maximal tail with `r·t ⊆ q`. `hits` are the states of
/// [`CompiledQuery::nfa`] some word of the body leads to (`q ∩ r·Σ*`).
///
/// It tries the existential quotient `E` first — `q`'s automaton entered
/// at `hits` — which contains the universal tail whenever `r` has a word;
/// if `r·E ⊆ q` as well, `E` is the universal tail, and its regex is read
/// off `q`'s own automaton. Otherwise (a body whose words `q` continues
/// differently, such as `a.b + c` under `a.b.x + c.y`) the tail is the
/// complement of the existential quotient of `∁q`.
fn universal_tail(cq: &CompiledQuery<'_>, cache: &CacheDef, hits: &[StateId]) -> Option<Regex> {
    // The gate: no word of r can even be read in q, and r has a word.
    if hits.is_empty() && !cache.empty {
        return None;
    }
    if !hits.is_empty() {
        let mut quot = Nfa::empty();
        let off = quot.add_nfa(cq.nfa());
        for &s in hits {
            quot.add_eps(quot.start(), s + off);
        }
        if included_antichain(&Nfa::concat(&cache.nfa, &quot), cq.nfa()).is_ok() {
            return match nfa_to_regex(&quot) {
                Regex::Empty => None,
                tail => Some(tail),
            };
        }
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

/// The probe's pre-gate, read off the regexes, for a query whose
/// automaton is trim and begins its words with `first`: a cache body with
/// a word, but not the empty one, none of whose first labels is in
/// `first`. Every state of a trim automaton begins a word of its language
/// with the letters that reach it, so no word of the body leads to a state
/// of `q`: the probe would find no hits, and the universal tail is empty.
fn begins_apart(cache: &CacheDef, first: &[Symbol]) -> bool {
    !cache.empty
        && !cache.body.nullable()
        && labels(&cache.body, false)
            .iter()
            .all(|s| first.binary_search(s).is_err())
}

/// Shrink a tail: greedily try finite unions of its shortest words, then
/// the algebraic simplifier on the full expression; keep the smallest
/// expression `t'` with `r·t' ≡ r·t`.
fn shrink_tail(tail: &Regex, r: &Regex) -> Regex {
    let nfa = Nfa::thompson(tail);
    let mut covered = None;
    let mut words: Vec<Vec<Symbol>> = Vec::new();
    for w in nfa.enumerate_words(TAIL_WORD_LEN, TAIL_WORD_CAP) {
        words.push(w);
        let t = Regex::from_finite_language(words.clone());
        // the tail itself covers what it covers: no test to run
        if t == *tail {
            return t;
        }
        let covered = covered.get_or_insert_with(|| Nfa::thompson(&r.clone().then(tail.clone())));
        if equivalent(&Nfa::thompson(&r.clone().then(t.clone())), covered).is_ok() {
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

/// The tail of a one-word body `u`, read off the tree: when `body` is a
/// concatenation of labels, `q` a concatenation whose first `|u|` factors
/// are those labels, and the rest has a finite, non-empty language of at
/// most `TAIL_WORD_CAP` words no longer than `TAIL_WORD_LEN`, the union of
/// those words. That is what
/// [`universal_tail`] and [`shrink_tail`] return for such a query: the
/// universal tail is `L(rest)`, `u·t' ≡ u·t` iff `L(t') = L(t)`, so the
/// shrinking keeps all of `L(rest)`'s words, and [`Regex::union`] sorts
/// its arms. `None` sends the cache down that path.
fn word_body_tail(q: &Regex, body: &Regex) -> Option<Regex> {
    let (Regex::Concat(parts), Regex::Concat(word)) = (q, body) else {
        return None;
    };
    let (head, rest) = parts.split_at_checked(word.len())?;
    if head != word || !word.iter().all(|s| matches!(s, Regex::Symbol(_))) {
        return None;
    }
    let words = Regex::concat(rest.to_vec()).finite_language(TAIL_WORD_CAP)?;
    if words.is_empty() || words.iter().any(|w| w.len() > TAIL_WORD_LEN) {
        return None;
    }
    Some(Regex::from_finite_language(words))
}

/// The shrunk tail of one cache, or `None` when it has none (or the search
/// gives up on it): a one-word body's read off the tree
/// ([`word_body_tail`]), any other's computed by the probe,
/// [`universal_tail`] and [`shrink_tail`]. `first` holds the labels that
/// begin a word of `q`, when its automaton is trim.
fn cache_tail(cq: &CompiledQuery<'_>, cache: &CacheDef, first: Option<&[Symbol]>) -> Option<Regex> {
    if let Some(tail) = word_body_tail(cq.regex(), &cache.body) {
        return Some(tail);
    }
    if first.is_some_and(|first| begins_apart(cache, first)) {
        return None;
    }
    let hits = cq.nfa().reachable_via(&cache.nfa);
    Some(shrink_tail(&universal_tail(cq, cache, &hits)?, &cache.body))
}

/// Search for view-based rewritings of `q` under `set`. Results are
/// verified under `set` ([`rpq_constraints::Closures::implies`]: in one
/// rewrite step where the claim is a rule right-concatenated with a tail,
/// otherwise by the closure test) and sorted by static cost (best first).
pub fn rewrite_with_views(
    set: &ConstraintSet,
    q: &Regex,
    alphabet: &Alphabet,
) -> Vec<ViewRewriting> {
    views_compiled(&PlanPass::new(set), &CompiledQuery::new(q, alphabet.len()))
}

/// [`rewrite_with_views`] over a query the planner has compiled, within
/// its pass.
pub(crate) fn views_compiled(pass: &PlanPass<'_>, cq: &CompiledQuery<'_>) -> Vec<ViewRewriting> {
    let caches = pass.set().caches();
    // The labels that begin a word of `q`, when its automaton is trim.
    let first = (!caches.is_empty() && cq.is_trim()).then(|| labels(cq.regex(), false));
    let tails = caches
        .iter()
        .filter_map(|c| Some((c, cache_tail(cq, c, first.as_deref())?)));
    covers(pass, cq, tails)
}

/// The verified rewritings of `q` by the non-empty subsets of the first
/// `MAX_CACHES` of `tails`: each cache with its shrunk tail.
fn covers<'c>(
    pass: &PlanPass<'_>,
    cq: &CompiledQuery<'_>,
    tails: impl Iterator<Item = (&'c CacheDef, Regex)>,
) -> Vec<ViewRewriting> {
    let q = cq.regex();
    struct Usable {
        label: Symbol,
        tail: Regex,
        covered: Regex,
    }
    let usable: Vec<Usable> = tails
        .take(MAX_CACHES)
        .map(|(c, tail)| Usable {
            label: c.label,
            covered: c.body.clone().then(tail.clone()),
            tail,
        })
        .collect();

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
        // Remainder: q ∖ cover — nothing when the cover is `q` itself,
        // otherwise an automaton difference.
        let (kind, rem) = if cover == *q {
            (ViewKind::Total, Regex::Empty)
        } else {
            let dq = cq.dfa();
            if dq.num_states() > MAX_DFA_STATES {
                continue;
            }
            let dc = Dfa::from_nfa(&Nfa::thompson(&cover), dq.sigma());
            if dc.num_states() > MAX_DFA_STATES {
                continue;
            }
            let rem_nfa = Dfa::product(dq, &dc, |x, y| x && !y).to_nfa().trim();
            if rem_nfa.is_empty_lang() {
                (ViewKind::Total, Regex::Empty)
            } else {
                (ViewKind::Partial, simplify_deep(&nfa_to_regex(&rem_nfa)))
            }
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

        // Verify E ⊨ q = candidate within the plan's pass. Never emit
        // unverified rewritings.
        let claim = PathConstraint::equality(q.clone(), candidate.clone());
        let Some(proof) = pass.decide(&claim) else {
            continue;
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpq_automata::ops::regex_equivalent;
    use rpq_automata::parse_regex;
    use rpq_constraints::general::Budget;
    use rpq_paper::general_implication::check;
    use rpq_testkit::random::{random_regex, RegexGenConfig};

    fn setup(lines: &[&str], query: &str) -> (Alphabet, ConstraintSet, Regex) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let q = parse_regex(&mut ab, query).unwrap();
        (ab, set, q)
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
    fn a_cover_that_is_the_query_is_total_without_a_dfa() {
        // l = a.b covers q = a.b.(c + d) as l.(c + d): the cover a.b.(c + d)
        // is q itself, so the remainder is ∅ with no automaton difference.
        let (ab, set, q) = setup(&["l = a.b"], "a.b.(c + d)");
        let pass = PlanPass::new(&set);
        let cq = CompiledQuery::new(&q, ab.len());
        let rewritings = views_compiled(&pass, &cq);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(rewritings[0].kind, ViewKind::Total);
        let expect = parse_regex(&mut ab.clone(), "l.(c + d)").unwrap();
        assert!(regex_equivalent(&rewritings[0].query, &expect));
        assert_eq!(cq.determinizations(), 0);
        // Example 3's cover (a.b)*.a.c is not a.(b.a)*.c as a tree: its
        // remainder is the DFA difference, which is empty.
        let (ab, set, q) = setup(&["l = (a.b)*"], "a.(b.a)*.c");
        let cq = CompiledQuery::new(&q, ab.len());
        let rewritings = views_compiled(&PlanPass::new(&set), &cq);
        assert_eq!(rewritings[0].kind, ViewKind::Total);
        assert_eq!(cq.determinizations(), 1);
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

    /// Cache sets by the shape of their bodies: words, unions, stars, an
    /// `∅` body and bodies with `ε`.
    const BODY_SHAPES: [(&str, &[&str]); 5] = [
        ("word", &["l0 = a.b", "l1 = c.d.a"]),
        ("union", &["l0 = a.b + c", "l1 = (a+b).d"]),
        ("star", &["l0 = (a.b)*.c", "l1 = c.d*"]),
        ("empty", &["l0 = []", "l1 = a.b"]),
        ("eps", &["l0 = () + a.b", "l1 = c.(() + d)"]),
    ];

    /// A body shape's set over `a b c d`, with `z` interned after every
    /// constraint symbol, and a random-regex configuration over all five.
    fn shape_setup(lines: &[&str]) -> (Alphabet, ConstraintSet, RegexGenConfig) {
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
        (ab, set, cfg)
    }

    #[test]
    fn the_gate_drops_only_caches_that_have_no_tail() {
        let heads = ["a.b", "c", "c.d", "a.d", "(a.b)*.c", "c.d.a"];
        let mut pregated = 0;
        for (i, (shape, lines)) in BODY_SHAPES.iter().enumerate() {
            let (mut ab, set, cfg) = shape_setup(lines);
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
                let first = labels(&q, false);
                for cache in set.caches() {
                    let hits = cq.nfa().reachable_via(&cache.nfa);
                    if cq.is_trim() && begins_apart(cache, &first) {
                        pregated += 1;
                        assert!(
                            hits.is_empty(),
                            "{shape}: the pre-gate dropped {} for {}, which the probe enters",
                            cache.body.display(&ab),
                            q.display(&ab)
                        );
                    }
                    let reference = ungated_universal_tail(&q, &cache.body, ab.len());
                    let tail = universal_tail(&cq, cache, &hits);
                    assert!(
                        match (&tail, &reference) {
                            (Some(t), Some(r)) => regex_equivalent(t, r),
                            (t, r) => t.is_none() && r.is_none(),
                        },
                        "{shape}: {} with body {}: {:?} vs {:?}",
                        q.display(&ab),
                        cache.body.display(&ab),
                        tail.map(|t| t.display(&ab).to_string()),
                        reference.map(|r| r.display(&ab).to_string()),
                    );
                    if hits.is_empty() && !cache.empty {
                        dropped += 1;
                        assert!(
                            reference.is_none(),
                            "{shape}: the gate dropped a usable cache"
                        );
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
        assert!(pregated > 50, "{pregated} caches pre-gated");
    }

    #[test]
    fn every_body_with_a_tail_is_substituted_whole() {
        // What Example 3 asks of a cache, on any body and tail: for
        // q = r·t with L(q) ≠ ∅, the search offers a total cover by that
        // one cache, and certification accepts it.
        let mut cases = 0;
        for (i, (shape, lines)) in BODY_SHAPES.iter().enumerate() {
            let (ab, set, cfg) = shape_setup(lines);
            let mut rng = StdRng::seed_from_u64(0x5B57 + i as u64);
            for cache in set.caches() {
                for _ in 0..20 {
                    let q = cache.body.clone().then(random_regex(&mut rng, &cfg));
                    if CompiledQuery::new(&q, ab.len()).is_empty() {
                        continue;
                    }
                    cases += 1;
                    let rewritings = rewrite_with_views(&set, &q, &ab);
                    let whole = rewritings
                        .iter()
                        .find(|r| r.kind == ViewKind::Total && r.uses == [cache.label])
                        .unwrap_or_else(|| {
                            panic!(
                                "{shape}: no total cover of {} by {}",
                                q.display(&ab),
                                ab.name(cache.label)
                            )
                        });
                    assert!(
                        crate::certify_rewrite(&set, &q, &whole.query),
                        "{shape}: {} => {}",
                        q.display(&ab),
                        whole.query.display(&ab)
                    );
                }
            }
        }
        assert!(cases >= 160, "{cases} cases");
    }

    #[test]
    fn a_word_body_tail_read_off_the_tree_is_the_shrunk_universal_tail() {
        // Over the one-word bodies and random suffixes: where the tail is
        // read off the tree it is the regex `universal_tail` + `shrink_tail`
        // return, and the search's list is the one those tails give.
        let key = |r: &ViewRewriting| {
            (
                r.query.clone(),
                r.uses.clone(),
                r.kind,
                r.proof,
                r.cost.clone(),
            )
        };
        let (ab, set, cfg) = shape_setup(BODY_SHAPES[0].1);
        let mut rng = StdRng::seed_from_u64(0x7A11);
        let (mut read_off, mut rewritten) = (0, 0);
        for cache in set.caches() {
            for _ in 0..60 {
                let q = cache.body.clone().then(random_regex(&mut rng, &cfg));
                let cq = CompiledQuery::new(&q, ab.len());
                let reference = |c: &CacheDef| {
                    let hits = cq.nfa().reachable_via(&c.nfa);
                    Some(shrink_tail(&universal_tail(&cq, c, &hits)?, &c.body))
                };
                if let Some(tail) = word_body_tail(&q, &cache.body) {
                    read_off += 1;
                    assert_eq!(
                        Some(&tail),
                        reference(cache).as_ref(),
                        "{} by {}",
                        q.display(&ab),
                        cache.body.display(&ab)
                    );
                }
                let expect = covers(
                    &PlanPass::new(&set),
                    &cq,
                    set.caches().iter().filter_map(|c| Some((c, reference(c)?))),
                );
                let got = rewrite_with_views(&set, &q, &ab);
                rewritten += usize::from(!got.is_empty());
                assert_eq!(
                    got.iter().map(key).collect::<Vec<_>>(),
                    expect.iter().map(key).collect::<Vec<_>>(),
                    "{}",
                    q.display(&ab)
                );
            }
        }
        assert!(
            read_off >= 40 && rewritten >= 100,
            "{read_off} tails read off, {rewritten} queries rewritten"
        );
    }

    #[test]
    fn an_empty_cache_body_passes_the_gate() {
        // L(r) = ∅ makes every tail vacuously safe: the probe finds no
        // state, and the cache must still reach the search (which then
        // verifies, and ranks, whatever it builds from `Σ*`).
        let (ab, set, q) = setup(&["l = []"], "a.b");
        let cq = CompiledQuery::new(&q, ab.len());
        let cache = &set.caches()[0];
        let hits = cq.nfa().reachable_via(&cache.nfa);
        assert!(hits.is_empty() && cache.empty);
        let tail = universal_tail(&cq, cache, &hits).expect("Σ* is a tail");
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
