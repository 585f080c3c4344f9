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
//! Thompson automaton, trimmed form, finiteness, complete DFA, the
//! cache-prefix probe — each lazily, at most once) and that one value is
//! what both cost models, the three candidate families and the view search
//! read. Every candidate is compiled once too, for its score, and the
//! winner's compilation is what the static analysis goes on with, so the
//! planned engine's cold plan certifies, trims and classifies without
//! building the winner's automaton again.
//!
//! One call is also one proof pass (`PlanPass`): every claim `E ⊨ q = c`
//! is decided once, by the two inclusion tests certification runs — the
//! view search takes over the proof of a family candidate with the same
//! regex — and every `RewriteTo` closure those tests build is kept by
//! target, so the planned engine's certification of the winner reads the
//! two closures the decision of the same claim built
//! ([`Optimized::claims_proved`], [`Optimized::closure_builds`] and
//! [`Analysis::certify_closure_builds`] count them).

use rpq_automata::{Alphabet, Regex};
use rpq_constraints::general::Budget;
use rpq_constraints::ConstraintSet;
use rpq_graph::LabelStats;

use crate::analysis::{analyze_compiled, Analysis};
use crate::compiled::{CompiledQuery, PlanPass};
use crate::cost::{estimated_cost_compiled, StaticCost};
use crate::rewrites::{candidates_compiled, Candidate, RewriteRule};
use crate::views::views_compiled;

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
    /// All candidates considered (diagnostics).
    pub considered: usize,
    /// Thompson automata built for the input query by this call — one
    /// serves the cost models, every candidate family and the view search.
    pub thompson_builds: usize,
    /// Subset constructions of the input query run by this call: at most
    /// one, and none when no cache body prefixes a word of the query and
    /// the query is a single word (nothing for the view search or the
    /// simplifier to look at).
    pub determinizations: usize,
    /// Claims `E ⊨ q = c` this call decided by the plan's closure test,
    /// proved or not. A view rewriting equal to a candidate a family proved
    /// reuses that proof and is not counted.
    pub claims_proved: usize,
    /// `RewriteTo` closures this call's decisions built
    /// ([`rpq_constraints::Closures`]): at most one per target regex, two
    /// for a proved claim `q = c`.
    pub closure_builds: usize,
}

impl Optimized {
    /// Did optimization change the query?
    pub fn improved(&self) -> bool {
        self.applied.is_some()
    }
}

/// Optimize `q` under `set`: cheapest validated equivalent by static cost.
///
/// Besides the whole-query candidates of [`crate::candidates`], union queries are
/// also rewritten *arm-wise* — the conclusion's "partial use of cached
/// queries rather than using them to fully answer the given query": each
/// union arm is optimized independently and the recombined union is kept
/// when it wins. Arm rewrites are equivalences under `E`, so their union
/// is too (no extra validation round needed).
pub fn optimize(set: &ConstraintSet, q: &Regex, alphabet: &Alphabet) -> Optimized {
    let input = CompiledQuery::new(q, alphabet.len());
    optimize_scored(&PlanPass::new(set), &input, alphabet, &static_score).0
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
    optimize_scored(&PlanPass::new(set), &input, alphabet, &|c| {
        estimated_cost_compiled(c, stats)
    })
    .0
}

/// The planned engine's cold plan: [`optimize_with_stats`] and
/// [`crate::analyze`] as one pass — the input's compilation serves the
/// rewrite search and then either side of the certification, the winner's
/// serves its score and then the trim and the depth cap, and the closures
/// the search's decisions built serve the certification.
pub fn optimize_and_analyze(
    set: &ConstraintSet,
    q: &Regex,
    alphabet: &Alphabet,
    stats: &LabelStats,
) -> (Optimized, Analysis) {
    let pass = PlanPass::new(set);
    let input = CompiledQuery::new(q, alphabet.len());
    let (optimized, winner) = optimize_scored(&pass, &input, alphabet, &|c| {
        estimated_cost_compiled(c, stats)
    });
    let analysis = analyze_compiled(pass.closures(), &input, winner.as_ref(), stats);
    (optimized, analysis)
}

fn static_score(q: &CompiledQuery<'_>) -> usize {
    StaticCost::of_compiled(q).score()
}

/// The winner of the rewrite search over `input`, and — when a candidate
/// beat the input — that candidate's compilation.
fn optimize_scored(
    pass: &PlanPass<'_>,
    input: &CompiledQuery<'_>,
    alphabet: &Alphabet,
    score: &dyn Fn(&CompiledQuery<'_>) -> usize,
) -> (Optimized, Option<CompiledQuery<'static>>) {
    let q = input.regex();
    let sigma = alphabet.len();
    let before = StaticCost::of_compiled(input);
    let mut cands: Vec<Candidate> = candidates_compiled(pass, input, alphabet);

    // Section 5 view covers (total and partial), verified — or proved
    // already, as one of the candidates above.
    for v in views_compiled(pass, input, &cands) {
        cands.push(Candidate {
            query: v.query,
            rule: RewriteRule::ViewCover,
            proof: v.proof,
        });
    }

    // union-arm decomposition (one level, non-recursive to bound cost)
    if let Regex::Union(arms) = q {
        let mut rewritten = Vec::with_capacity(arms.len());
        let mut any = false;
        for arm in arms {
            let arm = CompiledQuery::new(arm, sigma);
            let arm_cands = candidates_compiled(pass, &arm, alphabet);
            let arm_score = score(&arm);
            let best_arm = arm_cands
                .into_iter()
                .map(|c| (score(&CompiledQuery::new(&c.query, sigma)), c))
                .filter(|(s, _)| *s < arm_score)
                .min_by_key(|(s, _)| *s);
            match best_arm {
                Some((_, c)) => {
                    rewritten.push(c.query);
                    any = true;
                }
                None => rewritten.push(arm.regex().clone()),
            }
        }
        if any {
            cands.push(Candidate {
                query: Regex::union(rewritten),
                rule: RewriteRule::CacheSubstitution,
                proof: "arm-wise (equivalence of arms under E)",
            });
        }
    }

    let considered = cands.len();
    let input_score = score(input);
    let mut best: Option<(usize, RewriteRule, CompiledQuery<'static>)> = None;
    for c in cands {
        let compiled = CompiledQuery::owned(c.query, sigma);
        let s = score(&compiled);
        if s < input_score && best.as_ref().is_none_or(|(b, _, _)| s < *b) {
            best = Some((s, c.rule, compiled));
        }
    }
    let (query, after, applied, winner) = match best {
        Some((_, rule, winner)) => (
            winner.regex().clone(),
            StaticCost::of_compiled(&winner),
            Some(rule),
            Some(winner),
        ),
        None => (q.clone(), before.clone(), None, None),
    };
    let optimized = Optimized {
        query,
        before,
        after,
        applied,
        considered,
        thompson_builds: input.thompson_builds(),
        determinizations: input.determinizations(),
        claims_proved: pass.claims(),
        closure_builds: pass.closures().builds(),
    };
    (optimized, winner)
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
    fn a_rewritten_plan_proves_its_claim_once_and_builds_each_closure_once() {
        // The view search finds the cache family's candidate again and
        // takes over its proof. The claim is decided by the inclusion
        // tests certification runs, on the plan's memo, under a word cache
        // and under Example 3's regex cache alike, so certification builds
        // no closure. Example 3's query is infinite, so the search also
        // builds the closures of the two general-boundedness cuts it tries
        // (`a.c`, `a.c + a.b.a.c`) in the same memo.
        for (lines, query, search_builds, certify_builds) in [
            (["l = a.b"], "a.b.c", 2, 0),
            (["l = (a.b)*"], "a.(b.a)*.c", 4, 0),
        ] {
            let (ab, set, q) = setup(&lines, query);
            let mut inst = rpq_graph::Instance::new();
            let o = inst.add_node();
            for s in ab.symbols() {
                inst.add_edge(o, s, o);
            }
            let (opt, analysis) = optimize_and_analyze(&set, &q, &ab, inst.stats());
            assert_eq!(opt.considered, 2, "{query}: family + view candidate");
            assert_eq!(opt.claims_proved, 1, "{query}");
            assert_eq!(opt.closure_builds, search_builds, "{query}");
            assert_eq!(analysis.facts.rewrites_certified, 1, "{query}");
            assert_eq!(analysis.certify_closure_builds, certify_builds, "{query}");
            assert_eq!(analysis.certify_inclusions, 2, "{query}");
        }
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
