//! Set-valued pair answers: `{(s, t) | t ∈ p(s, I)}` restricted to bound
//! source/target sets — the per-atom machinery conjunctive queries (CRPQs)
//! are joined from.
//!
//! [`crate::pair`] answers the *boolean* pair question for one (source,
//! target). A conjunctive atom `x -[p]-> y` instead needs the *set* of
//! bindings its regex induces between candidate `x` values and candidate
//! `y` values. [`PairSetResult`] carries that binding set, and
//! [`search_pairs`] produces it with one [`crate::search_nodes`] per seed,
//! mirroring the pair module's orientations:
//!
//! * **forward** (seeds are sources): every answer `v` of the search from
//!   source `s` is a binding `(s, v)`. Use when the atom's source variable
//!   is bound and the target variable is free.
//! * **backward** (`opts.reverse_adj`, seeds are targets): the same loop
//!   over the *reversed* automaton and reverse adjacency; answers yield
//!   bindings `(v, target)`. Use when only the target variable is bound.
//! * **both bound** (`bound` given — the semijoin form): each seed's
//!   answers are kept only at the bound nodes.
//!
//! When *neither* variable is bound, [`seed_candidates`] prunes the seed
//! set to nodes that can take at least one step of the query (or every
//! node, when the query accepts ε) before the forward loop runs.
//! [`search_bindings`] picks among the three from the bound sides; it is
//! the one place that choice is made.
//!
//! The seeds share one [`crate::EvalControl`]: one `edges_scanned` budget,
//! per-level cancellation, and the uniform soundness contract — bindings
//! collected before an early termination are true bindings, seeds not
//! reached before exhaustion simply contribute none
//! ([`PairSetResult::termination`] says which case occurred). All working
//! memory comes from the caller's [`EvalScratch`], so warm serving queries
//! stay allocation-free apart from the result vector.

use rpq_automata::{Nfa, Symbol};
use rpq_graph::{GraphView, Oid};

use crate::product::{search_nodes_each, SearchOpts};
use crate::request::Termination;
use crate::scratch::EvalScratch;
use crate::stats::{Direction, EvalStats};

/// Result of a set-valued pair evaluation: the (source, target) bindings a
/// path query induces between the requested endpoint sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairSetResult {
    /// The bindings, sorted lexicographically and deduplicated.
    pub pairs: Vec<(Oid, Oid)>,
    /// Work counters (`answers` counts bindings).
    pub stats: EvalStats,
    /// Exact ([`Termination::Complete`]) or sound-subset termination.
    pub termination: Termination,
}

impl PairSetResult {
    /// An empty binding set with the given counters.
    pub fn empty(stats: EvalStats, termination: Termination) -> PairSetResult {
        PairSetResult {
            pairs: Vec::new(), // alloc-ok: result value
            stats,
            termination,
        }
    }
}

/// Finalize a binding list: lexicographic order, dedup (duplicate seeds
/// are each searched, so their bindings repeat), answer count.
fn finish_pairs(
    mut pairs: Vec<(Oid, Oid)>,
    mut stats: EvalStats,
    termination: Termination,
) -> PairSetResult {
    pairs.sort_unstable();
    pairs.dedup();
    stats.answers = pairs.len();
    PairSetResult {
        pairs,
        stats,
        termination,
    }
}

/// The binding-set answer shape: all `(s, t)` with `t ∈ p(s, I)` where one
/// endpoint ranges over `seeds` and the other is free, or restricted to
/// `bound` when given (sorted or not, duplicates allowed). Forward, seeds
/// are sources; with `opts.reverse_adj` and the *reversed* automaton
/// ([`Nfa::reverse`]), seeds are targets and `bound` restricts sources.
///
/// Each seed runs its own search under `opts.control`, with whatever the
/// shared budget has left, stopping at the first non-complete
/// termination; seeds not yet explored contribute no bindings — still a
/// sound subset. The loop is uncapped: `opts.depth_cap` is not read.
/// Each seed's answers are read where the search left them, in the arena;
/// only the bindings they make are copied.
pub fn search_pairs<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    seeds: &[Oid],
    bound: Option<&[Oid]>,
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> PairSetResult {
    let orient = |seed: Oid, v: Oid| {
        if opts.reverse_adj {
            (v, seed)
        } else {
            (seed, v)
        }
    };
    let sorted_bound = bound.map(|ends| {
        let mut ends = ends.to_vec(); // alloc-ok: sorted probe copy, result-sized
        ends.sort_unstable();
        ends
    });
    let per_seed = SearchOpts {
        depth_cap: None,
        ..*opts
    };
    let mut pairs: Vec<(Oid, Oid)> = Vec::new(); // alloc-ok: result value
    let (stats, term) = search_nodes_each(nfa, graph, seeds, &per_seed, scratch, |i, answers| {
        let kept = answers.iter().filter(|a| {
            sorted_bound
                .as_ref()
                .is_none_or(|ends| ends.binary_search(a).is_ok())
        });
        pairs.extend(kept.map(|&a| orient(seeds[i], a)));
    });
    finish_pairs(pairs, stats, term)
}

/// The one binding-set decision: all `(s, t)` with `t ∈ p(s, I)`, `s` in
/// `sources` and `t` in `targets` where given (`None` = that side is
/// free), and the [`Direction`] it ran. `reversed` is `nfa`'s
/// [`Nfa::reverse`]. Sources bound → forward from them, probing `targets`
/// when they are bound too (`Bidirectional`); only targets bound →
/// backward from them over `reversed` and the reverse adjacency; neither →
/// forward from [`seed_candidates`]. The sets must name objects of
/// `graph`. `opts.reverse_adj` is not read, and neither is
/// `opts.depth_cap` ([`search_pairs`]).
///
/// [`crate::run_request`]'s `Conjunctive` arm calls this, and so does
/// each atom of `rpq-optimizer`'s CRPQ join.
pub fn search_bindings<G: GraphView>(
    nfa: &Nfa,
    reversed: &Nfa,
    graph: &G,
    sources: Option<&[Oid]>,
    targets: Option<&[Oid]>,
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> (PairSetResult, Direction) {
    let dir = match (sources, targets) {
        (Some(_), Some(_)) => Direction::Bidirectional,
        (None, Some(_)) => Direction::Backward,
        _ => Direction::Forward,
    };
    let opts = SearchOpts {
        reverse_adj: dir == Direction::Backward,
        ..*opts
    };
    let res = match (sources, targets) {
        (Some(ss), ts) => search_pairs(nfa, graph, ss, ts, &opts, scratch),
        (None, Some(ts)) => search_pairs(reversed, graph, ts, None, &opts, scratch),
        (None, None) => {
            let seeds = seed_candidates(nfa, graph, scratch);
            search_pairs(nfa, graph, &seeds, None, &opts, scratch)
        }
    };
    (res, dir)
}

/// Candidate seeds for an atom whose source variable is unbound: if the
/// query accepts ε every node is a candidate (it at least binds `(v, v)`);
/// otherwise only nodes with at least one out-edge labeled by a symbol
/// leaving the start state's ε-closure can bind anything, and the rest are
/// pruned before the forward kernel runs.
pub fn seed_candidates<G: GraphView>(nfa: &Nfa, graph: &G, scratch: &mut EvalScratch) -> Vec<Oid> {
    // The symbols leaving the start state's ε-closure, read off the mask
    // tables (no allocation on warm scratches).
    scratch.compile(nfa);
    let masks = &scratch.masks;
    let start = masks.start_closure();
    let accepts_epsilon = start.iter().zip(&masks.accepting).any(|(s, a)| s & a != 0);
    let mut first_syms: Vec<Symbol> = Vec::new(); // alloc-ok: tiny per-query symbol set
    for (word, &states) in start.iter().enumerate() {
        let groups = masks.groups_of(word).iter();
        first_syms.extend(groups.filter(|g| g.sources & states != 0).map(|g| g.sym));
    }
    first_syms.sort_unstable();
    first_syms.dedup();

    let mut out: Vec<Oid> = Vec::new(); // alloc-ok: result value
    for v in (0..graph.num_nodes() as u32).map(Oid) {
        if accepts_epsilon {
            out.push(v);
            continue;
        }
        let mut si = 0usize;
        'node: for (sym, edges) in graph.out_groups(v) {
            while si < first_syms.len() && first_syms[si] < sym {
                si += 1;
            }
            if si == first_syms.len() {
                break;
            }
            if first_syms[si] == sym && !edges.is_empty() {
                out.push(v);
                break 'node;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Query;
    use crate::product::eval_product_csr;
    use crate::request::EvalControl;
    use rpq_automata::Alphabet;
    use rpq_graph::{CsrGraph, InstanceBuilder};
    use std::sync::atomic::AtomicBool;

    fn fig2ish() -> (Alphabet, CsrGraph) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "b", "o2");
        b.edge("o1", "b", "o3");
        b.edge("o3", "a", "o1");
        let (inst, _) = b.finish();
        (ab, CsrGraph::from(&inst))
    }

    fn oracle_pairs(q: &Query, csr: &CsrGraph, sources: &[Oid]) -> Vec<(Oid, Oid)> {
        let mut out: Vec<(Oid, Oid)> = sources
            .iter()
            .flat_map(|&s| {
                eval_product_csr(q.nfa(), csr, s)
                    .answers
                    .into_iter()
                    .map(move |t| (s, t))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn forward_pairs_match_per_source_oracle() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        for qs in ["a.b*", "(a+b)*", "b.b", "()", "[]"] {
            let q = Query::parse(&mut ab, qs).unwrap();
            let res = search_pairs(
                q.nfa(),
                &csr,
                &all,
                None,
                &SearchOpts::default(),
                &mut scratch,
            );
            assert_eq!(res.pairs, oracle_pairs(&q, &csr, &all), "{qs}");
            assert_eq!(res.stats.answers, res.pairs.len());
            assert_eq!(res.termination, Termination::Complete);
        }
    }

    #[test]
    fn backward_pairs_match_forward_pairs() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        for qs in ["a.b*", "(a+b)*", "b.b", "()"] {
            let q = Query::parse(&mut ab, qs).unwrap();
            let fwd = search_pairs(
                q.nfa(),
                &csr,
                &all,
                None,
                &SearchOpts::default(),
                &mut scratch,
            );
            let backward = SearchOpts {
                reverse_adj: true,
                ..SearchOpts::default()
            };
            let bwd = search_pairs(q.reversed(), &csr, &all, None, &backward, &mut scratch);
            assert_eq!(fwd.pairs, bwd.pairs, "{qs}");
        }
    }

    #[test]
    fn bound_pairs_are_the_restricted_relation() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let sources = vec![all[0], all[2]];
        let targets = vec![all[1]];
        let res = search_pairs(
            q.nfa(),
            &csr,
            &sources,
            Some(&targets),
            &SearchOpts::default(),
            &mut scratch,
        );
        let expect: Vec<(Oid, Oid)> = oracle_pairs(&q, &csr, &sources)
            .into_iter()
            .filter(|(_, t)| targets.contains(t))
            .collect();
        assert_eq!(res.pairs, expect);
    }

    #[test]
    fn controlled_pairs_are_a_sound_subset_within_budget() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let full = oracle_pairs(&q, &csr, &all);
        for budget in 0..12 {
            let control = EvalControl {
                budget: Some(budget),
                cancel: None,
            };
            let opts = SearchOpts {
                control,
                ..SearchOpts::default()
            };
            let res = search_pairs(q.nfa(), &csr, &all, None, &opts, &mut scratch);
            assert!(res.stats.edges_scanned <= budget, "budget {budget}");
            for p in &res.pairs {
                assert!(full.contains(p), "unsound binding {p:?}");
            }
            if res.termination.is_complete() {
                assert_eq!(res.pairs, full);
            }
        }
    }

    #[test]
    fn pre_set_cancel_yields_sound_subset() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let flag = AtomicBool::new(true);
        let control = EvalControl {
            budget: None,
            cancel: Some(&flag),
        };
        let opts = SearchOpts {
            control,
            ..SearchOpts::default()
        };
        let res = search_pairs(q.nfa(), &csr, &all, None, &opts, &mut scratch);
        assert_eq!(res.termination, Termination::Cancelled);
        let full = oracle_pairs(&q, &csr, &all);
        for p in &res.pairs {
            assert!(full.contains(p));
        }
    }

    #[test]
    fn seed_candidates_prune_dead_sources() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("x", "b", "t");
        b.edge("dead", "c", "s");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "a.b").unwrap();
        let seeds = seed_candidates(q.nfa(), &csr, &mut scratch);
        assert_eq!(seeds, vec![names["s"]], "only s has an out-edge on 'a'");
        // ε-accepting query: every node is a candidate
        let q = Query::parse(&mut ab, "a*").unwrap();
        let seeds = seed_candidates(q.nfa(), &csr, &mut scratch);
        assert_eq!(seeds.len(), csr.num_nodes());
    }

    #[test]
    fn duplicate_seeds_dedup_in_the_binding_set() {
        let (mut ab, csr) = fig2ish();
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        let dup = vec![Oid(0), Oid(0), Oid(2)];
        let res = search_pairs(
            q.nfa(),
            &csr,
            &dup,
            None,
            &SearchOpts::default(),
            &mut scratch,
        );
        let uniq = search_pairs(
            q.nfa(),
            &csr,
            &[Oid(0), Oid(2)],
            None,
            &SearchOpts::default(),
            &mut scratch,
        );
        assert_eq!(res.pairs, uniq.pairs);
    }
}
