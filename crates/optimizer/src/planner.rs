//! Plan selection: pick the cheapest validated equivalent.
//!
//! "The query processor at each site may use the path constraints holding
//! at the site to replace the query to be executed by a simpler query."
//! [`optimize`] ties the pieces together: generate candidates, rank by the
//! static cost model, return the winner with its provenance. The memoized
//! form — the per-site hook of `rpq_distributed::Simulator::with_rewrite`
//! — is [`crate::PlannedEngine::rewrite`].
//!
//! One call is one pass: the input is compiled once (`CompiledQuery`:
//! the facts its regex states — finiteness, depth, automaton size, label
//! mass — read off the tree, and the Thompson automaton, trimmed form and
//! complete DFA each built lazily, at most once) and that one value is
//! what both cost models, the three candidate families and the view
//! search read. The view search is the only source of cache rewritings:
//! a cover that answers the whole query from one cache is reported as
//! [`RewriteRule::CacheSubstitution`] (the paper's Example 3), every other
//! cover as [`RewriteRule::ViewCover`]. Every candidate is compiled once too, for
//! its score — which reads the regex and builds no automaton — and the
//! winner's compilation is what the static analysis goes on with, so the
//! planned engine's cold plan builds the winner's automaton once, for
//! certification and the plan it runs.
//!
//! One call is also one proof pass (`PlanPass`): every claim `E ⊨ q = c`
//! is decided once, by the method certification runs, and every
//! `RewriteTo` closure it builds is kept by target, so the planned
//! engine's certification of the winner reads the closures the decision
//! of the same claim built ([`PlanRecord::claims_proved`],
//! [`PlanRecord::closure_builds`] and
//! [`PlanRecord::certify_closure_builds`] count them). A direction that is
//! one rule of `E` right-concatenated with a tail — each direction of a
//! cache substitution `u·t = l·t` under `l = u` — is one rewrite step and
//! needs no closure
//! ([`rpq_constraints::Closures::one_step`]; sound because rooted
//! constraints are right-congruent), so such a plan decides and certifies
//! its claim with no closure and no inclusion test.

use rpq_automata::{Alphabet, Regex};
use rpq_constraints::general::Budget;
use rpq_constraints::ConstraintSet;
use rpq_graph::LabelStats;

use crate::analysis::{analyze_compiled, Analysis, PlanRecord};
use crate::compiled::{CompiledQuery, PlanPass};
use crate::cost::{estimated_cost_compiled, StaticCost};
use crate::rewrites::{candidates_compiled, Candidate, RewriteRule};
use crate::views::{views_compiled, ViewKind};

/// The outcome of optimizing one query.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The selected query (the input itself when nothing beat it).
    pub query: Regex,
    /// Cost before.
    pub before: StaticCost,
    /// Cost after.
    pub after: StaticCost,
    /// The applied rule, if any.
    pub applied: Option<RewriteRule>,
}

impl Optimized {
    /// Did optimization change the query?
    pub fn improved(&self) -> bool {
        self.applied.is_some()
    }
}

/// Optimize `q` under `set`: cheapest validated equivalent by static cost.
///
/// Besides the whole-query candidates of the rewrite families and the view
/// search (whose partial covers are the conclusion's "partial use of
/// cached queries"), union queries are also rewritten *arm-wise*: each
/// union arm is optimized independently by the rewrite families and the
/// recombined union is kept when it wins. Arm rewrites are equivalences
/// under `E`, so their union is too (no extra validation round needed).
pub fn optimize(set: &ConstraintSet, q: &Regex, alphabet: &Alphabet) -> Optimized {
    let input = CompiledQuery::new(q, alphabet.len());
    let (winner, _) = search(&PlanPass::new(set), &input, alphabet, &static_score);
    optimized(&input, winner)
}

/// Like [`optimize`], but rank candidates by the *data-aware* estimated
/// cost ([`crate::estimated_cost`]) computed from the per-label statistics
/// of a `rpq_graph::CsrGraph` snapshot, instead of the static shape score.
/// Two equivalents that the static model cannot separate (same automaton
/// size) rank correctly when the data is label-skewed — e.g. a cache
/// substitution whose cache label is rare wins by exactly its selectivity.
///
/// Nothing reads `_budget`: claims are decided by the closure test, which
/// has none. The parameter stays while `bench_e2e` passes one (ROADMAP
/// 1(b)).
pub fn optimize_with_stats(
    set: &ConstraintSet,
    q: &Regex,
    alphabet: &Alphabet,
    _budget: &Budget,
    stats: &LabelStats,
) -> Optimized {
    let input = CompiledQuery::new(q, alphabet.len());
    let (winner, _) = search(&PlanPass::new(set), &input, alphabet, &|c| {
        estimated_cost_compiled(c, stats)
    });
    optimized(&input, winner)
}

/// The planned engine's cold plan: [`optimize_with_stats`] and
/// [`crate::analyze`] as one pass — the input's compilation serves the
/// rewrite search and then either side of the certification, the winner's
/// serves its score, the certification and then the plan (its automaton
/// moves into the [`Analysis`]), and the closures the search's decisions
/// built serve the certification. The search's part of the
/// [`PlanRecord`] is filled in here, the rest by the analysis. It builds no
/// [`Optimized`]: neither a copy of the input nor the static cost of
/// either side, which nothing of the plan reads.
pub fn optimize_and_analyze(
    set: &ConstraintSet,
    q: &Regex,
    alphabet: &Alphabet,
    stats: &LabelStats,
) -> Analysis {
    let pass = PlanPass::new(set);
    let input = CompiledQuery::new(q, alphabet.len());
    let (winner, mut record) = search(&pass, &input, alphabet, &|c| {
        estimated_cost_compiled(c, stats)
    });
    let winner = winner.map(|(_, winner)| winner);
    record.winner = winner.as_ref().map(|w| w.regex().clone());
    analyze_compiled(pass.closures(), input, winner, stats, record)
}

fn static_score(q: &CompiledQuery<'_>) -> usize {
    StaticCost::of_compiled(q).score()
}

/// The search's outcome as [`optimize`] reports it: the winner and its
/// rule, or the input, with the static cost of each side.
fn optimized(
    input: &CompiledQuery<'_>,
    winner: Option<(RewriteRule, CompiledQuery<'static>)>,
) -> Optimized {
    let before = StaticCost::of_compiled(input);
    match winner {
        Some((rule, winner)) => Optimized {
            query: winner.regex().clone(),
            after: StaticCost::of_compiled(&winner),
            before,
            applied: Some(rule),
        },
        None => Optimized {
            query: input.regex().clone(),
            after: before.clone(),
            before,
            applied: None,
        },
    }
}

/// The rewrite search over `input`: the winner and its rule, when a
/// candidate scored below the input, with that candidate's compilation,
/// and the search's part of the plan record. The input is scored only
/// when there is a candidate to compare it with.
fn search(
    pass: &PlanPass<'_>,
    input: &CompiledQuery<'_>,
    alphabet: &Alphabet,
    score: &dyn Fn(&CompiledQuery<'_>) -> usize,
) -> (Option<(RewriteRule, CompiledQuery<'static>)>, PlanRecord) {
    let q = input.regex();
    let sigma = alphabet.len();
    let mut cands: Vec<Candidate> = Vec::new();

    // Section 5 view covers (total and partial), verified; one cache
    // answering the whole query is Example 3's substitution. They are
    // listed first, so a family's candidate that only ties keeps it.
    for v in views_compiled(pass, input) {
        let rule = if v.kind == ViewKind::Total && v.uses.len() == 1 {
            RewriteRule::CacheSubstitution
        } else {
            RewriteRule::ViewCover
        };
        cands.push(Candidate {
            query: v.query,
            rule,
            proof: v.proof,
        });
    }
    cands.extend(candidates_compiled(pass, input));

    let mut scored_builds = 0;
    let mut score_candidate = |c: &CompiledQuery<'_>| {
        let s = score(c);
        scored_builds += c.thompson_builds();
        s
    };

    // union-arm decomposition (one level, non-recursive to bound cost),
    // reported under the rule of the first arm it rewrote
    if let Regex::Union(arms) = q {
        let mut rewritten = Vec::with_capacity(arms.len());
        let mut first_rule = None;
        for arm in arms {
            let arm = CompiledQuery::new(arm, sigma);
            let arm_cands = candidates_compiled(pass, &arm);
            let best_arm = if arm_cands.is_empty() {
                None
            } else {
                let arm_score = score(&arm);
                arm_cands
                    .into_iter()
                    .map(|c| (score_candidate(&CompiledQuery::new(&c.query, sigma)), c))
                    .filter(|(s, _)| *s < arm_score)
                    .min_by_key(|(s, _)| *s)
            };
            match best_arm {
                Some((_, c)) => {
                    rewritten.push(c.query);
                    first_rule.get_or_insert(c.rule);
                }
                None => rewritten.push(arm.regex().clone()),
            }
        }
        if let Some(rule) = first_rule {
            cands.push(Candidate {
                query: Regex::union(rewritten),
                rule,
                proof: "arm-wise (equivalence of arms under E)",
            });
        }
    }

    let considered = cands.len();
    let mut best: Option<(usize, RewriteRule, CompiledQuery<'static>)> = None;
    if !cands.is_empty() {
        let input_score = score(input);
        for c in cands {
            let compiled = CompiledQuery::owned(c.query, sigma);
            let s = score_candidate(&compiled);
            if s < input_score && best.as_ref().is_none_or(|(b, _, _)| s < *b) {
                best = Some((s, c.rule, compiled));
            }
        }
    }
    let winner = best.map(|(_, rule, winner)| (rule, winner));
    let record = PlanRecord {
        applied: winner.as_ref().map(|(rule, _)| *rule),
        considered,
        thompson_builds: input.thompson_builds() + scored_builds,
        determinizations: input.determinizations(),
        claims_proved: pass.claims(),
        closure_builds: pass.closures().builds(),
        ..PlanRecord::default()
    };
    (winner, record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::estimated_cost;
    use rpq_automata::ops::regex_equivalent;
    use rpq_automata::parse_regex;

    fn setup(lines: &[&str], query: &str) -> (Alphabet, ConstraintSet, Regex) {
        let mut ab = Alphabet::new();
        let set = ConstraintSet::parse(&mut ab, lines.iter().copied()).unwrap();
        let q = parse_regex(&mut ab, query).unwrap();
        (ab, set, q)
    }

    #[test]
    fn example2_optimizes_to_nonrecursive() {
        let (ab, set, q) = setup(&["l.l = l"], "l*");
        let opt = optimize(&set, &q, &ab);
        assert!(opt.improved());
        assert!(!opt.after.recursive);
        let mut ab2 = ab.clone();
        let expect = parse_regex(&mut ab2, "l + ()").unwrap();
        assert!(regex_equivalent(&opt.query, &expect));
    }

    #[test]
    fn example3_optimizes_to_cache() {
        let (ab, set, q) = setup(&["l = (a.b)*"], "a.(b.a)*.c");
        let opt = optimize(&set, &q, &ab);
        assert!(opt.improved(), "{opt:?}");
        assert_eq!(
            opt.applied,
            Some(crate::rewrites::RewriteRule::CacheSubstitution)
        );
        assert!(!opt.after.recursive, "cache hit removes recursion");
    }

    #[test]
    fn a_cache_prefixing_the_query_is_found_after_four_that_do_not() {
        // Only the fifth cache prefixes the query: the cap on the caches
        // the view search combines counts caches that have a tail.
        let (ab, set, q) = setup(
            &[
                "l0 = x.y",
                "l1 = y.z",
                "l2 = z.x",
                "l3 = x.x",
                "l4 = (a.b)*",
            ],
            "a.(b.a)*.c",
        );
        let opt = optimize(&set, &q, &ab);
        let mut ab2 = ab.clone();
        let expect = parse_regex(&mut ab2, "l4.a.c").unwrap();
        assert!(
            regex_equivalent(&opt.query, &expect),
            "got {}",
            opt.query.display(&ab)
        );
        assert_eq!(opt.applied, Some(RewriteRule::CacheSubstitution));
    }

    /// An instance with one node and a loop on every label of `ab`.
    fn loops(ab: &Alphabet) -> rpq_graph::Instance {
        let mut inst = rpq_graph::Instance::new();
        let o = inst.add_node();
        for s in ab.symbols() {
            inst.add_edge(o, s, o);
        }
        inst
    }

    #[test]
    fn a_rewritten_plan_proves_its_claim_once_and_builds_each_closure_once() {
        // The view search decides the one claim, by the method
        // certification runs, on the plan's memo, under a word cache and
        // under Example 3's regex cache alike, so certification builds no
        // closure. Under `{l = a.b}` the claim `a.b.c = l.c` is the rule
        // `a.b = l` right-concatenated with `c` each way: one rewrite step,
        // no closure and no inclusion test, in the search and in the
        // certification. `{l = a.b}` is a word equality, so family 1 offers
        // its Theorem 4.10 equivalent too: the same `l.c`, proved the same
        // way, which ties and leaves the view search's candidate, listed
        // first, the winner. Example 3's claim is no such step, so it is
        // decided by the closure test, and its query is infinite, so the
        // search also builds the closures of the two general-boundedness
        // cuts it tries (`a.c`, `a.c + a.b.a.c`) in the same memo.
        for (lines, query, considered, search_builds, certify_inclusions) in [
            (["l = a.b"], "a.b.c", 2, 0, 0),
            (["l = (a.b)*"], "a.(b.a)*.c", 1, 4, 2),
        ] {
            let (ab, set, q) = setup(&lines, query);
            let record = optimize_and_analyze(&set, &q, &ab, loops(&ab).stats()).record;
            assert_eq!(record.considered, considered, "{query}");
            assert_eq!(
                record.applied,
                Some(RewriteRule::CacheSubstitution),
                "{query}"
            );
            assert_eq!(record.claims_proved, 1, "{query}");
            assert_eq!(record.closure_builds, search_builds, "{query}");
            assert_eq!(record.rewrites_certified, 1, "{query}");
            assert_eq!(record.certify_closure_builds, 0, "{query}");
            assert_eq!(record.certify_inclusions, certify_inclusions, "{query}");
        }
        let (mut ab, set, q) = setup(&["l = a.b"], "a.b.c");
        let families = candidates_compiled(&PlanPass::new(&set), &CompiledQuery::new(&q, ab.len()));
        let l_c = parse_regex(&mut ab, "l.c").unwrap();
        assert_eq!(families.len(), 1, "{families:?}");
        assert_eq!(families[0].rule, RewriteRule::Boundedness);
        assert_eq!(families[0].query, l_c);
    }

    #[test]
    fn a_boundedness_winner_is_certified_on_the_closures_its_decision_built() {
        // Family 1 certifies `l* = l + ε` through the plan's closures, so
        // certifying the winner builds none.
        let (ab, set, q) = setup(&["l.l = l"], "l*");
        let record = optimize_and_analyze(&set, &q, &ab, loops(&ab).stats()).record;
        assert_eq!(record.applied, Some(RewriteRule::Boundedness));
        assert_eq!(record.rewrites_certified, 1);
        assert_eq!(record.certify_closure_builds, 0);
    }

    #[test]
    fn no_improvement_returns_input() {
        let (ab, set, q) = setup(&[], "a.b");
        let opt = optimize(&set, &q, &ab);
        assert!(!opt.improved());
        assert_eq!(opt.query, q);
    }

    #[test]
    fn union_arms_are_rewritten_independently() {
        // two caches: l1 = (a.b)*, l2 = (c.d)*; the query is a union of
        // tails of both — each arm substitutes its own cache.
        let (ab, set, q) = setup(&["l1 = (a.b)*", "l2 = (c.d)*"], "a.(b.a)*.x + c.(d.c)*.y");
        let opt = optimize(&set, &q, &ab);
        assert!(opt.improved(), "{opt:?}");
        assert!(!opt.after.recursive, "both arms lose recursion: {opt:?}");
        let mut ab2 = ab.clone();
        let expect = parse_regex(&mut ab2, "l1.a.x + l2.c.y").unwrap();
        assert!(
            regex_equivalent(&opt.query, &expect),
            "got {}",
            opt.query.display(&ab)
        );
    }

    #[test]
    fn stats_aware_ranking_uses_label_frequencies() {
        use rpq_graph::{CsrGraph, InstanceBuilder};
        // the cache label `l` is rare on the data; both rankings should
        // accept the cache substitution, and the stats-aware winner's
        // estimated cost must beat the input's.
        let (ab, set, q) = setup(&["l = (a.b)*"], "a.(b.a)*.c");
        let mut ab2 = ab.clone();
        let mut b = InstanceBuilder::new(&mut ab2);
        for i in 0..20 {
            b.edge(&format!("v{i}"), "a", &format!("w{i}"));
            b.edge(&format!("w{i}"), "b", &format!("v{}", i + 1));
        }
        b.edge("v0", "l", "v5");
        let (inst, _) = b.finish();
        let stats = CsrGraph::from(&inst).stats().clone();
        let opt = optimize_with_stats(&set, &q, &ab, &Budget::default(), &stats);
        assert!(opt.improved(), "{opt:?}");
        assert!(
            estimated_cost(&opt.query, &stats) < estimated_cost(&q, &stats),
            "stats-aware winner must be estimated cheaper"
        );
    }
}
