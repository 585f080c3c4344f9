//! Static query analysis — facts derived once per (query, snapshot) plan.
//!
//! The planner's rewrite pass (Section 3.2's "replace the query by a
//! simpler query") decides *what* to evaluate and the direction pass
//! decides *how*; this module adds a third static stage that runs between
//! them, entirely at plan time:
//!
//! 1. **Certified rewrites** — the rewrite winner is re-checked against
//!    the constraint closure ([`rpq_constraints::rewrite_closure_nfa`],
//!    the Lemma 4.5/4.7 construction) by two antichain inclusion tests.
//!    A winner that cannot be certified `E ⊨ q = r` is rejected and the
//!    original query is planned instead — candidate validation bugs can
//!    cost optimality, never soundness. The two inclusion tests always
//!    run; the two closures they read come from the plan's
//!    [`rpq_constraints::Closures`] memo, where the rewrite search's
//!    decision of the same claim — the same two tests — already built
//!    them, so the planned engine's certification builds none
//!    ([`Analysis::certify_closure_builds`]). [`analyze`] and
//!    [`certify_rewrite`] start a fresh memo and build both.
//! 2. **Alphabet restriction** — symbols with zero edges in the
//!    snapshot's [`LabelStats`] cannot appear on any path, so every
//!    occurrence is replaced by `∅` and the regex re-simplified. A query
//!    whose every word mentions a dead symbol becomes statically empty
//!    and is answered without touching the graph.
//! 3. **NFA trimming** — states not on a start→accept path are dropped
//!    before the plan's automata are built, shrinking every downstream
//!    structure (frontiers, subset universes, reversals).
//! 4. **Finite-language detection** — when the trimmed automaton accepts
//!    a finite language, the longest accepted word bounds the product
//!    BFS depth exactly ([`rpq_automata::Nfa::longest_accepted_len`]),
//!    enabling the bounded fast path.
//!
//! The resulting [`AnalysisFacts`] ride on the plan through the epoch
//! memo and are stamped into every [`rpq_core::EvalStats`] the planned
//! engine produces.

use std::collections::BTreeSet;
use std::time::Instant;

use rpq_automata::{Nfa, Regex, Symbol};
use rpq_constraints::{Closures, ConstraintSet};
use rpq_graph::LabelStats;

use crate::compiled::CompiledQuery;

/// Facts derived statically from one query over one snapshot's label
/// statistics. Attached to every plan; see the module docs for the four
/// analyses that populate it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisFacts {
    /// Query symbols erased because the snapshot has zero edges with that
    /// label (sorted, deduplicated). Pruning is statistics-dependent:
    /// epoch-drift plan reuse must re-check that these labels are still
    /// absent.
    pub pruned_symbols: Vec<Symbol>,
    /// NFA states dropped before determinization relative to the
    /// unanalyzed query's Thompson automaton — dead-arm erasure and
    /// reachable/co-accessible trimming combined.
    pub states_trimmed: usize,
    /// Is the restricted language empty? If so the answer set is empty on
    /// *this snapshot* regardless of source, and evaluation is skipped
    /// entirely (`edges_scanned == 0`, no frontier allocation).
    pub statically_empty: bool,
    /// Is the restricted language finite?
    pub finite_language: bool,
    /// Length of the longest accepted word when the language is finite
    /// and nonempty — the exact product-BFS depth cap.
    pub max_word_len: Option<usize>,
    /// Rewrite winners certified equivalent under the constraint closure.
    pub rewrites_certified: usize,
    /// Rewrite winners rejected by certification (planned as original).
    pub rewrites_rejected: usize,
    /// Wall-clock nanoseconds spent in `analyze` (certification included).
    pub analysis_ns: u64,
}

/// The output of [`analyze`]: the query actually planned (certified
/// winner, alphabet-restricted), its trimmed NFA, and the facts.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The regex to plan. Language-equal to `nfa` — the
    /// [`rpq_core::Query::with_nfa`] contract.
    pub regex: Regex,
    /// Trimmed Thompson automaton of `regex`.
    pub nfa: Nfa,
    /// The derived facts.
    pub facts: AnalysisFacts,
    /// `RewriteTo` closures certification built; 0 when the plan's memo
    /// held both already, or when the input won (nothing to certify).
    pub certify_closure_builds: usize,
    /// Inclusion tests certification ran: 2 for a certified winner, 1 or
    /// 2 for a rejected one, 0 when the input won.
    pub certify_inclusions: usize,
}

/// Certify `E ⊨ original = candidate` against the generalized rewrite
/// closure: `L(q) ⊆ L(RewriteTo(r))` and `L(r) ⊆ L(RewriteTo(q))`. Every
/// word of the closure rewrites into the target under `E` (each saturation
/// step is justified by one constraint plus prefix congruence), so both
/// inclusions passing means each query's words reach the other's answers
/// on any instance satisfying `E` — sound to substitute either way. The
/// closure under-approximates full path implication, so a genuinely valid
/// rewrite can be rejected (costing only optimality), but an invalid one
/// is never certified.
///
/// Both closures are built here; the planned engine certifies through
/// [`crate::optimize_and_analyze`], which reads them from the memo its
/// rewrite search filled.
pub fn certify_rewrite(set: &ConstraintSet, original: &Regex, candidate: &Regex) -> bool {
    let (q, r) = (
        CompiledQuery::new(original, 0),
        CompiledQuery::new(candidate, 0),
    );
    certify(&Closures::new(set), &q, &r)
}

/// [`certify_rewrite`] over compiled queries and a plan's closures (the
/// second inclusion runs only when the first passes).
fn certify(closures: &Closures<'_>, q: &CompiledQuery<'_>, r: &CompiledQuery<'_>) -> bool {
    closures.includes(q.nfa(), r.regex()).is_ok() && closures.includes(r.nfa(), q.regex()).is_ok()
}

/// Replace every symbol of `q` that has zero edges under `stats` with `∅`
/// and re-simplify. Returns the restricted regex plus the distinct symbols
/// pruned (empty when nothing changed). Sound per snapshot: a word using a
/// label with no edges matches no path, so dropping those words never
/// loses an answer.
pub fn restrict_to_live_symbols(q: &Regex, stats: &LabelStats) -> (Regex, Vec<Symbol>) {
    let dead: BTreeSet<Symbol> = q
        .symbols()
        .into_iter()
        .filter(|&s| stats.edge_count(s) == 0)
        .collect();
    if dead.is_empty() {
        return (q.clone(), Vec::new());
    }
    (erase(q, &dead), dead.into_iter().collect())
}

/// Structural erase: dead symbols become `∅`, propagated through the
/// smart constructors (`∅` annihilates concatenation, drops out of
/// unions, and collapses `∅*` to `ε`).
fn erase(q: &Regex, dead: &BTreeSet<Symbol>) -> Regex {
    match q {
        Regex::Symbol(s) if dead.contains(s) => Regex::Empty,
        Regex::Concat(parts) => Regex::concat(parts.iter().map(|p| erase(p, dead)).collect()),
        Regex::Union(parts) => Regex::union(parts.iter().map(|p| erase(p, dead)).collect()),
        Regex::Star(inner) => erase(inner, dead).star(),
        other => other.clone(),
    }
}

/// Run the full static pipeline on a rewrite winner: certify (when the
/// winner differs from `original`), restrict to live symbols, trim, and
/// classify the language. The returned [`Analysis`] carries everything
/// the planner needs to build the plan.
pub fn analyze(
    set: &ConstraintSet,
    original: &Regex,
    winner: Regex,
    stats: &LabelStats,
) -> Analysis {
    let input = CompiledQuery::new(original, 0);
    let closures = Closures::new(set);
    if winner == *original {
        analyze_compiled(&closures, &input, None, stats)
    } else {
        let winner = CompiledQuery::owned(winner, 0);
        analyze_compiled(&closures, &input, Some(&winner), stats)
    }
}

/// [`analyze`] over compiled queries and the plan's closures: `winner` is
/// `None` when the input won the rewrite search. What the search already
/// built of either query (automaton, trimmed form, depth cap) and of the
/// closures is read, not rebuilt.
pub(crate) fn analyze_compiled(
    closures: &Closures<'_>,
    original: &CompiledQuery<'_>,
    winner: Option<&CompiledQuery<'_>>,
    stats: &LabelStats,
) -> Analysis {
    let t0 = Instant::now();
    let mut facts = AnalysisFacts::default();
    let mut chosen = original;
    let (builds, inclusions) = (closures.builds(), closures.inclusions());
    if let Some(winner) = winner {
        if certify(closures, original, winner) {
            facts.rewrites_certified = 1;
            chosen = winner;
        } else {
            facts.rewrites_rejected = 1;
        }
    }
    let certify_closure_builds = closures.builds() - builds;
    let certify_inclusions = closures.inclusions() - inclusions;
    let (restricted, pruned) = restrict_to_live_symbols(chosen.regex(), stats);
    facts.pruned_symbols = pruned;
    // Nothing pruned: the restricted query *is* the chosen one, compiled
    // already. Otherwise symbol erasure simplified the regex structurally
    // (the smart constructors fold `∅` away), so the states it removes
    // never reach the restricted automaton — counting savings against the
    // chosen query's Thompson NFA is what makes the reduction visible.
    let erased;
    let planned = if facts.pruned_symbols.is_empty() {
        chosen
    } else {
        erased = CompiledQuery::owned(restricted, 0);
        &erased
    };
    let trimmed = planned.trimmed().clone();
    facts.states_trimmed = chosen
        .nfa()
        .num_states()
        .saturating_sub(trimmed.num_states());
    facts.statically_empty = planned.is_empty();
    facts.max_word_len = planned.longest_accepted_len();
    facts.finite_language = planned.is_finite();
    facts.analysis_ns = t0.elapsed().as_nanos() as u64;
    Analysis {
        regex: planned.regex().clone(),
        nfa: trimmed,
        facts,
        certify_closure_builds,
        certify_inclusions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::{CsrGraph, InstanceBuilder};

    fn stats_for(edges: &[(&str, &str, &str)], ab: &mut Alphabet) -> LabelStats {
        let mut b = InstanceBuilder::new(ab);
        for &(f, l, t) in edges {
            b.edge(f, l, t);
        }
        let (inst, _) = b.finish();
        CsrGraph::from(&inst).stats().clone()
    }

    #[test]
    fn dead_symbols_are_erased_and_recorded() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a.(b + c).d*").unwrap();
        // only a and b have edges; c and d are dead
        let stats = stats_for(&[("x", "a", "y"), ("y", "b", "z")], &mut ab);
        let (r, pruned) = restrict_to_live_symbols(&q, &stats);
        let expected = parse_regex(&mut ab, "a.b").unwrap();
        assert_eq!(r, expected, "c drops from the union, d* collapses to ε");
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn all_dead_paths_make_the_query_statically_empty() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a.ghost + ghost.b").unwrap();
        let stats = stats_for(&[("x", "a", "y"), ("y", "b", "z")], &mut ab);
        let a = analyze(&ConstraintSet::default(), &q, q.clone(), &stats);
        assert!(a.facts.statically_empty);
        assert!(a.facts.finite_language);
        assert_eq!(a.facts.max_word_len, None);
        assert_eq!(a.regex, Regex::Empty);
        assert!(a.nfa.is_empty_lang());
    }

    #[test]
    fn finite_language_gets_an_exact_depth_cap() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a.b.a + a").unwrap();
        let stats = stats_for(&[("x", "a", "y"), ("y", "b", "x")], &mut ab);
        let a = analyze(&ConstraintSet::default(), &q, q.clone(), &stats);
        assert!(a.facts.finite_language);
        assert_eq!(a.facts.max_word_len, Some(3));
        assert!(!a.facts.statically_empty);
    }

    #[test]
    fn infinite_language_is_classified_as_such() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a*").unwrap();
        let stats = stats_for(&[("x", "a", "y")], &mut ab);
        let a = analyze(&ConstraintSet::default(), &q, q.clone(), &stats);
        assert!(!a.facts.finite_language);
        assert_eq!(a.facts.max_word_len, None);
    }

    #[test]
    fn valid_rewrites_certify_invalid_ones_are_rejected() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
        let q = parse_regex(&mut ab, "l*").unwrap();
        let good = parse_regex(&mut ab, "l + ()").unwrap();
        let bad = parse_regex(&mut ab, "l.l.l").unwrap();
        assert!(certify_rewrite(&set, &q, &good), "Example 2 must certify");
        assert!(!certify_rewrite(&set, &q, &bad), "l.l.l misses ε ∈ L(l*)");

        // analyze() reverts a rejected winner to the original query
        let stats = stats_for(&[("x", "l", "y")], &mut ab);
        let a = analyze(&set, &q, bad, &stats);
        assert_eq!(a.facts.rewrites_rejected, 1);
        assert_eq!(a.facts.rewrites_certified, 0);
        assert_eq!(a.regex, q);
    }

    #[test]
    fn union_branch_rewrites_are_rejected() {
        // E = {a = b + c} does not imply a.x = b.x: on the satisfying
        // instance s -a→ m, s -c→ m, m -x→ t (its stats below),
        // answers(a.x) = {t} while answers(b.x) = ∅. Certification must
        // reject the winner and analyze() must plan the original.
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["a = b + c"]).unwrap();
        let q = parse_regex(&mut ab, "a.x").unwrap();
        let bad = parse_regex(&mut ab, "b.x").unwrap();
        assert!(!certify_rewrite(&set, &q, &bad), "a.x = b.x is not implied");
        let stats = stats_for(
            &[("s", "a", "m"), ("s", "c", "m"), ("m", "x", "t")],
            &mut ab,
        );
        let a = analyze(&set, &q, bad, &stats);
        assert_eq!(a.facts.rewrites_rejected, 1);
        assert_eq!(a.facts.rewrites_certified, 0);
        assert_eq!(a.regex, q);
    }

    #[test]
    fn cache_substitution_certifies_under_the_definition_constraint() {
        // Example 3: E ⊨ a.(b.a)*.c = l.a.c when l = (a.b)*.
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
        let q = parse_regex(&mut ab, "a.(b.a)*.c").unwrap();
        let r = parse_regex(&mut ab, "l.a.c").unwrap();
        assert!(certify_rewrite(&set, &q, &r));
    }

    #[test]
    fn trimming_is_counted() {
        let mut ab = Alphabet::new();
        // Erasing the dead `b.c` arm folds the union away structurally,
        // so the analyzed automaton is strictly smaller than the
        // unanalyzed query's Thompson NFA — the count records that gap.
        let q = parse_regex(&mut ab, "a* + b.c").unwrap();
        let stats = stats_for(&[("x", "a", "y")], &mut ab);
        let a = analyze(&ConstraintSet::default(), &q, q.clone(), &stats);
        // `b` and `c` were pruned; the trimmed NFA accepts a* and only a*
        assert_eq!(a.facts.pruned_symbols.len(), 2);
        assert!(
            a.facts.states_trimmed > 0,
            "erasure must shrink the automaton vs the unanalyzed query"
        );
        let aa = ab.get("a").unwrap();
        let bb = ab.get("b").unwrap();
        assert!(a.nfa.accepts(&[]));
        assert!(a.nfa.accepts(&[aa, aa]));
        assert!(!a.nfa.accepts(&[bb]));
    }

    #[test]
    fn unchanged_winner_skips_certification() {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, ["l.l <= l"]).unwrap();
        let q = parse_regex(&mut ab, "l*").unwrap();
        let stats = stats_for(&[("x", "l", "y")], &mut ab);
        let a = analyze(&set, &q, q.clone(), &stats);
        assert_eq!(a.facts.rewrites_certified + a.facts.rewrites_rejected, 0);
    }
}
