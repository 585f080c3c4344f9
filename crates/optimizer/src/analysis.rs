//! Static query analysis — facts derived once per (query, snapshot) plan.
//!
//! The planner's rewrite pass (Section 3.2's "replace the query by a
//! simpler query") decides *what* to evaluate and the direction pass
//! decides *how*; this module adds a third static stage that runs between
//! them, entirely at plan time:
//!
//! 1. **Certified rewrites** — the rewrite winner is re-checked, one
//!    inclusion each way, by [`rpq_constraints::Closures::proves`]. A
//!    direction that is one rule of `E` right-concatenated with a tail —
//!    each direction of a cache substitution `u·t = l·t` under `l = u` —
//!    is proved in one rewrite step, with no closure and no inclusion
//!    test; any other is an antichain inclusion test against the
//!    constraint closure ([`rpq_constraints::rewrite_closure_nfa`], the
//!    Lemma 4.5/4.7 construction). A winner that cannot be certified
//!    `E ⊨ q = r` is rejected and the original query is planned instead —
//!    candidate validation bugs can cost optimality, never soundness. The
//!    closures the tests read come from the plan's
//!    [`rpq_constraints::Closures`] memo, where the rewrite search's
//!    decision of the same claim — the same method — already built them,
//!    so the planned engine's certification builds none
//!    ([`PlanRecord::certify_closure_builds`]). [`analyze`] and
//!    [`certify_rewrite`] start a fresh memo.
//! 2. **Alphabet restriction** — symbols with zero edges in the
//!    snapshot's [`LabelStats`] cannot appear on any path, so every
//!    occurrence is replaced by `∅` and the regex re-simplified. A query
//!    whose every word mentions a dead symbol becomes statically empty
//!    and is answered without touching the graph.
//! 3. **NFA trimming** — states not on a start→accept path are dropped
//!    before the plan's automata are built, shrinking every downstream
//!    structure (frontiers, subset universes, reversals). A regex with no
//!    `∅` subterm — every restricted query the smart constructors leave
//!    non-empty — has a Thompson automaton that is trim as built, so
//!    nothing is trimmed ([`PlanRecord::trims`]).
//! 4. **Finite-language detection** — when the language is finite, the
//!    longest accepted word bounds the product BFS depth exactly
//!    ([`rpq_automata::Nfa::longest_accepted_len`], read off the regex),
//!    enabling the bounded fast path.
//!
//! The results go into the plan's [`PlanRecord`], beside what the rewrite
//! search learned; the record is built once per plan miss and rides on the
//! plan through the epoch memo, so every response a plan serves shares it
//! instead of carrying a copy. Of it, only the two certification counts
//! are stamped into each [`rpq_core::EvalStats`] the planned engine
//! produces.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::time::Instant;

use rpq_automata::{Nfa, Regex, Symbol};
use rpq_constraints::{Closures, ConstraintSet};
use rpq_core::Direction;
use rpq_graph::LabelStats;

use crate::compiled::CompiledQuery;
use crate::rewrites::RewriteRule;
use crate::shape::any_leaf;

/// What one plan learned, built once per plan miss and kept with the plan
/// ([`crate::Plan::record`]), so every response the plan serves shares it
/// through the memo. Each part has one writer: the rewrite search fills
/// the search part ([`crate::optimize_and_analyze`]), the static analysis
/// the certification and analysis parts ([`analyze`]), and the plan the
/// direction. A CRPQ atom's plan runs no search, so that part stays at
/// its defaults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanRecord {
    /// The rule of the search's winner, `None` when the input won.
    pub applied: Option<RewriteRule>,
    /// The search's winner when a candidate beat the input — the query
    /// certification checked, before alphabet restriction; `None` when
    /// the input won.
    pub winner: Option<Regex>,
    /// All candidates the search considered.
    pub considered: usize,
    /// Thompson automata the search built: at most one of the input — for
    /// the view search's probe, the candidate families and whichever side
    /// of the certification needs it — and none of the candidates it
    /// scored, since both cost models read the regex.
    pub thompson_builds: usize,
    /// Subset constructions of the input query the search ran: at most
    /// one, and none when the view search takes no remainder (no cache
    /// body prefixes a word of the query, or each cover is the query
    /// itself) and the simplifier has nothing to look for (no regex of the
    /// query's finite language is smaller than the query).
    pub determinizations: usize,
    /// Claims `E ⊨ q = c` the search decided, in one rewrite step or by
    /// the plan's closure test, proved or not.
    pub claims_proved: usize,
    /// `RewriteTo` closures the search's decisions built
    /// ([`rpq_constraints::Closures`]): at most one per target regex, none
    /// for a direction of a claim proved in one step, so none for a cache
    /// substitution `u·t = l·t` and up to two for another claim `q = c`.
    pub closure_builds: usize,
    /// Rewrite winners certified equivalent under the constraint closure.
    pub rewrites_certified: usize,
    /// Rewrite winners rejected by certification (planned as original).
    pub rewrites_rejected: usize,
    /// `RewriteTo` closures certification built; 0 when the plan's memo
    /// held them already, when each direction was one step, or when the
    /// input won (nothing to certify).
    pub certify_closure_builds: usize,
    /// Inclusion tests certification ran: one per direction not proved in
    /// one step — 0 for a cache substitution `u·t = l·t` under `l = u`, up
    /// to 2 for any other winner — and 0 when the input won.
    pub certify_inclusions: usize,
    /// Query symbols erased because the snapshot has zero edges with that
    /// label (sorted, deduplicated). Pruning is statistics-dependent:
    /// epoch-drift plan reuse must re-check that these labels are still
    /// absent.
    pub pruned_symbols: Vec<Symbol>,
    /// NFA states dropped before determinization relative to the
    /// unanalyzed query's Thompson automaton — dead-arm erasure and
    /// reachable/co-accessible trimming combined.
    pub states_trimmed: usize,
    /// Trims of the planned regex's Thompson automaton the analysis ran: 0
    /// when no subterm of the regex denotes `∅`, for then the automaton is
    /// trim as built.
    pub trims: usize,
    /// Is the restricted language empty? If so the answer set is empty on
    /// *this snapshot* regardless of source, and evaluation is skipped
    /// entirely (`edges_scanned == 0`, no frontier allocation).
    pub statically_empty: bool,
    /// Is the restricted language finite?
    pub finite_language: bool,
    /// Length of the longest accepted word when the language is finite
    /// and nonempty — the exact product-BFS depth cap.
    pub max_word_len: Option<usize>,
    /// Wall-clock nanoseconds spent in the analysis (certification
    /// included).
    pub analysis_ns: u64,
    /// The planned direction for pair/target-bound evaluation.
    pub direction: Direction,
    /// Estimated forward entry cost: edges matching the first label group
    /// under the statistics the plan was built on.
    pub forward_cost: usize,
    /// Estimated backward entry cost: edges matching the last label group.
    pub backward_cost: usize,
}

/// The output of [`analyze`]: the query actually planned (certified
/// winner, alphabet-restricted), its trimmed NFA, its two label groups and
/// the record.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The regex to plan. Language-equal to `nfa` — the
    /// [`rpq_core::Query::with_nfa`] contract.
    pub regex: Regex,
    /// Trimmed Thompson automaton of `regex`.
    pub nfa: Nfa,
    /// What the plan learned so far: the search part (when the analysis
    /// ran after a search) and the certification and analysis parts.
    pub record: PlanRecord,
    /// The labels that begin a word of `regex`: [`Nfa::entry_symbols`] of
    /// `nfa`, read off the regex.
    pub(crate) first_symbols: Vec<Symbol>,
    /// The labels that end a word of `regex`: the entry symbols of `nfa`'s
    /// reversal, read off the regex.
    pub(crate) last_symbols: Vec<Symbol>,
}

/// Certify `E ⊨ original = candidate`: `q ⊆ r` and `r ⊆ q`, each in one
/// rewrite step when it is a rule of `E` right-concatenated with a tail
/// (`q = P·t`, `r = R·t` for a rule `P ⊆ R`; rooted constraints are
/// right-congruent), otherwise against the generalized rewrite closure,
/// `L(q) ⊆ L(RewriteTo(r))` and `L(r) ⊆ L(RewriteTo(q))`. Every word of
/// the closure rewrites into the target under `E` (each saturation step is
/// justified by one constraint plus prefix congruence), so both inclusions
/// passing means each query's words reach the other's answers on any
/// instance satisfying `E` — sound to substitute either way. The closure
/// under-approximates full path implication, so a genuinely valid rewrite
/// can be rejected (costing only optimality), but an invalid one is never
/// certified.
///
/// Whatever closure a direction needs is built here; the planned engine
/// certifies through [`crate::optimize_and_analyze`], which reads them
/// from the memo its rewrite search filled.
pub fn certify_rewrite(set: &ConstraintSet, original: &Regex, candidate: &Regex) -> bool {
    let (q, r) = (
        CompiledQuery::new(original, 0),
        CompiledQuery::new(candidate, 0),
    );
    certify(&Closures::new(set), &q, &r)
}

/// [`certify_rewrite`] over compiled queries and a plan's closures: each
/// inclusion by [`Closures::proves`], the method the plan's decisions use,
/// so a direction that is one step asks for no automaton and no closure
/// (the second runs only when the first passes).
fn certify(closures: &Closures<'_>, q: &CompiledQuery<'_>, r: &CompiledQuery<'_>) -> bool {
    let proves = |p: &CompiledQuery<'_>, target: &CompiledQuery<'_>| {
        closures
            .proves(p.regex(), target.regex(), || Cow::Borrowed(p.nfa()))
            .is_ok()
    };
    proves(q, r) && proves(r, q)
}

/// Replace every symbol of `q` that has zero edges under `stats` with `∅`
/// and re-simplify. Returns the restricted regex plus the distinct symbols
/// pruned (empty when nothing changed). Sound per snapshot: a word using a
/// label with no edges matches no path, so dropping those words never
/// loses an answer.
pub fn restrict_to_live_symbols(q: &Regex, stats: &LabelStats) -> (Regex, Vec<Symbol>) {
    if !any_leaf(q, |s| stats.edge_count(s) == 0) {
        return (q.clone(), Vec::new());
    }
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
    let winner = (winner != *original).then(|| CompiledQuery::owned(winner, 0));
    let closures = Closures::new(set);
    analyze_compiled(&closures, input, winner, stats, PlanRecord::default())
}

/// [`analyze`] over compiled queries and the plan's closures: `winner` is
/// `None` when the input won the rewrite search, and `record` carries what
/// the search filled in. What the search already built of either query
/// (automaton, trimmed form) and of the closures is read, not rebuilt, and
/// the planned query's automaton is moved into the [`Analysis`], not
/// copied.
pub(crate) fn analyze_compiled<'q>(
    closures: &Closures<'_>,
    original: CompiledQuery<'q>,
    winner: Option<CompiledQuery<'q>>,
    stats: &LabelStats,
    mut record: PlanRecord,
) -> Analysis {
    let t0 = Instant::now();
    let (builds, inclusions) = (closures.builds(), closures.inclusions());
    let chosen = match winner {
        Some(winner) if certify(closures, &original, &winner) => {
            record.rewrites_certified = 1;
            winner
        }
        Some(_) => {
            record.rewrites_rejected = 1;
            original
        }
        None => original,
    };
    record.certify_closure_builds = closures.builds() - builds;
    record.certify_inclusions = closures.inclusions() - inclusions;
    // No dead label (a walk over the leaves): the restricted query *is*
    // the chosen one, compiled already. Otherwise symbol erasure
    // simplified the regex structurally (the smart constructors fold `∅`
    // away), so the states it removes never reach the restricted automaton
    // — counting savings against the chosen query's Thompson NFA is what
    // makes the reduction visible.
    let chosen_states = chosen.states();
    let planned = if any_leaf(chosen.regex(), |s| stats.edge_count(s) == 0) {
        let (restricted, pruned) = restrict_to_live_symbols(chosen.regex(), stats);
        record.pruned_symbols = pruned;
        CompiledQuery::owned(restricted, 0)
    } else {
        chosen
    };
    record.states_trimmed = chosen_states.saturating_sub(planned.trimmed().num_states());
    record.statically_empty = planned.is_empty();
    record.max_word_len = planned.longest_accepted_len();
    record.finite_language = planned.is_finite();
    let (first_symbols, last_symbols) = planned.label_groups();
    record.trims = planned.trims();
    let (regex, nfa) = planned.into_trimmed();
    record.analysis_ns = t0.elapsed().as_nanos() as u64;
    Analysis {
        regex,
        nfa,
        record,
        first_symbols,
        last_symbols,
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
        assert!(a.record.statically_empty);
        assert!(a.record.finite_language);
        assert_eq!(a.record.max_word_len, None);
        assert_eq!(a.regex, Regex::Empty);
        assert!(a.nfa.is_empty_lang());
    }

    #[test]
    fn finite_language_gets_an_exact_depth_cap() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a.b.a + a").unwrap();
        let stats = stats_for(&[("x", "a", "y"), ("y", "b", "x")], &mut ab);
        let a = analyze(&ConstraintSet::default(), &q, q.clone(), &stats);
        assert!(a.record.finite_language);
        assert_eq!(a.record.max_word_len, Some(3));
        assert!(!a.record.statically_empty);
    }

    #[test]
    fn infinite_language_is_classified_as_such() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a*").unwrap();
        let stats = stats_for(&[("x", "a", "y")], &mut ab);
        let a = analyze(&ConstraintSet::default(), &q, q.clone(), &stats);
        assert!(!a.record.finite_language);
        assert_eq!(a.record.max_word_len, None);
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
        assert_eq!(a.record.rewrites_rejected, 1);
        assert_eq!(a.record.rewrites_certified, 0);
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
        assert_eq!(a.record.rewrites_rejected, 1);
        assert_eq!(a.record.rewrites_certified, 0);
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
        assert_eq!(a.record.pruned_symbols.len(), 2);
        assert!(
            a.record.states_trimmed > 0,
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
        assert_eq!(a.record.rewrites_certified + a.record.rewrites_rejected, 0);
    }
}
