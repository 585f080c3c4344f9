//! The product-automaton evaluation algorithm (Section 2.2).
//!
//! "A more economical approach is to construct the nfsa for p and carry
//! along the set of states of the nfsa corresponding to the path traveled so
//! far (basically, this constructs a portion of the product of the nfsa for
//! p and the instance I). The resulting algorithm has polynomial-time
//! combined data and query complexity and nlogspace data complexity."
//!
//! We carry the state *set*, as the paper says: the search keeps, per graph
//! node, the set of automaton states reached there as a bit mask (one cell
//! per node and per [`crate::scratch`] mask word), and its frontier is a
//! list of `(node, newly reached states)` entries, processed level by
//! level. ε-moves never show up in the search: they are folded into
//! ε-closed successor masks when the automaton's mask tables are compiled
//! (once per request, into retained buffers), so following an edge marks
//! every state it leads to — ε-successors included — with one
//! load/or/store. A node `v` is an answer when the states reached there
//! meet the accepting mask, so the mask table *is* the answer set: the
//! search keeps no other per-node array and runs no answer pass per
//! level, and reads the answers off the table (or off its log of reached
//! entries) once it is over. The pair space is still `O(|Q| · |V|)` — the
//! NLOGSPACE/NC bound's certificate — and every counter keeps counting
//! it: `pairs_visited` is the number of set bits over all answer-checked
//! entries, `edges_scanned` a row's length once per `(state, labeled
//! transition)` that follows it, even where several states of one entry
//! share the one physical walk.
//!
//! [`search_nodes`] is the entry point (and [`eval_product_csr`] its
//! default-options one-liner): it steps entries through the label-indexed
//! snapshot (`graph.out(v, sym)` is a contiguous slice of exactly the
//! matching edges), so per-pair work is proportional to *matching* edges
//! rather than `outdegree × fanout`. [`eval_product`] is a thin
//! compatibility wrapper that snapshots an [`Instance`] first, and
//! [`eval_product_scan`] preserves the original scan-and-filter loop as the
//! measurable baseline (bench `t1_eval_scaling`, skewed workload).
//!
//! # One driver, one thread, one sweep
//!
//! The paper's procedure is *one* algorithm, and so is this module: one
//! level loop and one sweep body, over the one node-major mask table of an
//! [`EvalScratch`]. An automaton wider than a mask word takes several cells
//! per node and several `(word, bits)` runs per successor mask *in the same
//! loop* — there is no second kernel and no width-specialised copy. What a
//! search varies in — direction, depth cap, budget and cancellation — is a
//! field of [`SearchOpts`], not a sibling function: backward search is
//! `reverse_adj` with the reversed automaton, "bounded" is `depth_cap`, and
//! "uncontrolled" is [`EvalControl::UNLIMITED`].
//!
//! Every level runs on the calling thread: on the two vCPUs this system is
//! measured on, two busy threads do not add up to more than one, and a
//! level fanned out across workers lost 28–43 % latency at twice the CPU.
//! Concurrency lives across queries, on the server's executor. So a cell is
//! marked with a plain load and store, and the budget is one counter,
//! checked before every row walk.
//!
//! Every level is expanded the same way, by a *push* sweep: for each
//! frontier entry and each symbol its states move on, resolve the matching
//! adjacency row *once* and walk it — as the slice it is on a CSR row —
//! marking the ε-closed successor mask at every target. A level costs
//! exactly the sum of its frontier's row lengths, and nothing is priced
//! before it runs: a per-level choice of a dense *pull* sweep (Beamer's
//! direction-optimizing BFS) fires only where a level re-scans rows whose
//! targets are nearly all reached, which no served workload does, and
//! pricing every level to find out costs more than it saves. What a level
//! does wait on is memory: the rows of a wide level are out of cache more
//! often than not, so the sweep asks the graph to load the rows of the
//! entries it is about to expand ([`GraphView::prefetch`]).
//!
//! The one contract the loop keeps is the **level invariant**: level `k`
//! holds exactly the pairs first reached by spelling `k` letters. A depth
//! cap relies on it, and so does everything read off the log of reached
//! entries after a search ([`EvalScratch`]'s `reached`, kept in level
//! order with each level's start; the frontier is its tail): the
//! counters, and the answers of a search stopped before its end. All
//! working memory comes from an [`EvalScratch`] arena (generation-stamped
//! cells, the log and its level starts, the answer buffer) so repeated
//! queries allocate nothing after warm-up — see [`crate::scratch`].

use rpq_automata::{Nfa, StateId, Symbol};
use rpq_graph::{CsrGraph, GraphView, Instance, Oid, RowPart, ViewEdges};

use crate::request::{EvalControl, Termination};
use crate::scratch::{Cells, Entry, EvalScratch, LevelOut, MaskTables};
use crate::stats::EvalStats;

/// Result of an evaluation: sorted answers plus work counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalResult {
    /// The set `p(o, I)`, sorted by oid.
    pub answers: Vec<Oid>,
    /// Work counters.
    pub stats: EvalStats,
}

/// Shared finalization for bitmap-based engines (product, both quotient
/// variants): turn the answer bitmap into the sorted oid list and fill the
/// derived counters in one place.
pub(crate) fn finish_eval(
    answer: &[bool],
    classes_materialized: usize,
    mut stats: EvalStats,
) -> EvalResult {
    let answers: Vec<Oid> = answer
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| Oid(i as u32))
        .collect();
    stats.answers = answers.len();
    stats.classes_materialized = classes_materialized;
    EvalResult { answers, stats }
}

/// Every dimension a product search varies in — the parameters of the one
/// level-synchronous driver behind the four answer-shape entry points,
/// [`search_nodes`], [`crate::search_pair`], [`crate::search_pairs`] and
/// [`crate::run_request`]. `SearchOpts::default()` is the paper's plain
/// evaluation: forward, uncapped, [`EvalControl::UNLIMITED`].
///
/// Each entry point documents the fields it does not read.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchOpts<'a> {
    /// Traverse [`GraphView::rev`] instead of [`GraphView::out`]. The
    /// automaton is taken as given, so backward callers pass the
    /// *reversed* NFA ([`Nfa::reverse`]): a path `o →…→ t` spells
    /// `w ∈ L(p)` exactly when the transposed path spells `reverse(w)`.
    pub reverse_adj: bool,
    /// Never expand BFS levels beyond this depth. Level `k` holds exactly
    /// the pairs first reached by spelling `k` letters, so a cap of at
    /// least the automaton's longest accepted word
    /// ([`Nfa::longest_accepted_len`]) loses no answer — the planner's
    /// finite-language fast path.
    pub depth_cap: Option<usize>,
    /// `edges_scanned` budget and cancellation flag.
    pub control: EvalControl<'a>,
}

/// The row a push step from `v` by `sym` walks: `v`'s out-edges, or its
/// in-edges when the search runs over the reverse adjacency.
#[inline]
fn push_row<G: GraphView>(graph: &G, reverse_adj: bool, v: Oid, sym: Symbol) -> ViewEdges<'_> {
    if reverse_adj {
        graph.rev(v, sym)
    } else {
        graph.out(v, sym)
    }
}

/// How many frontier entries ahead of the one being expanded the sweep asks
/// for a row's header ([`RowPart::Header`]): far enough for the load to
/// land before the [`RowPart::Edges`] hint reads it.
const HEADER_AHEAD: usize = 16;

/// How many frontier entries ahead the sweep asks for a row's labels and
/// endpoints ([`RowPart::Edges`]).
const EDGES_AHEAD: usize = 8;

/// What one level sweep did.
#[derive(Default)]
struct LevelWork {
    /// Edges scanned.
    edges: usize,
    /// Row lookups made, per (state, labeled transition).
    rows: usize,
    /// The budget stopped the sweep part-way: the level is partially
    /// expanded.
    tripped: bool,
}

/// Everything one level sweep reads, borrowed for its duration.
struct Level<'a, G> {
    graph: &'a G,
    reverse_adj: bool,
    masks: &'a MaskTables,
    frontier: &'a [Entry],
    /// Edges the budget has left for this level (`None`: unlimited).
    left: Option<usize>,
}

/// *Push* expansion of one level: for each frontier entry and each symbol
/// its states move on, resolve the matching adjacency row once, walk it,
/// and mark the ε-closed successor mask at every target, collecting the
/// newly reached states into `next`. The row counts once per `(state,
/// labeled transition)` following it — the product-graph quantity —
/// however many states share the walk.
///
/// The rows the next entries walk are out of cache more often than not on
/// a large graph, so the sweep asks the graph for them ahead of time
/// ([`GraphView::prefetch`]): the row header [`HEADER_AHEAD`] entries
/// ahead, the labels and endpoints [`EDGES_AHEAD`] entries ahead.
///
/// With a budget, that whole count is checked against what is left
/// *before* the row is walked, so `edges_scanned <= budget` always; a row
/// that does not fit stops the sweep (the level is then partially
/// expanded and the driver abandons the search).
fn push_sweep<G: GraphView>(
    level: &Level<'_, G>,
    cells: &mut Cells<'_>,
    next: &mut LevelOut,
) -> LevelWork {
    let mut out = LevelWork::default();
    let LevelOut { entries, merged } = next;
    let (graph, reverse, frontier) = (level.graph, level.reverse_adj, level.frontier);
    for (i, e) in frontier.iter().enumerate() {
        if let Some(ahead) = frontier.get(i + HEADER_AHEAD) {
            graph.prefetch(ahead.node, reverse, RowPart::Header);
        }
        if let Some(ahead) = frontier.get(i + EDGES_AHEAD) {
            graph.prefetch(ahead.node, reverse, RowPart::Edges);
        }
        for group in level.masks.groups_of(e.word as usize) {
            let hit = e.bits & group.sources;
            if hit == 0 {
                continue;
            }
            let (mult, succ) = level.masks.successors(group, hit, merged);
            let targets = push_row(graph, reverse, e.node, group.sym);
            out.rows += mult;
            let cost = targets.len() * mult;
            if level.left.is_some_and(|left| out.edges + cost > left) {
                out.tripped = true;
                return out;
            }
            out.edges += cost;
            let mut visit = |v2: Oid| {
                for &(word, bits) in succ {
                    let new = cells.mark(v2.index(), word as usize, bits);
                    if new != 0 {
                        entries.push(Entry {
                            node: v2,
                            word,
                            bits: new,
                        });
                    }
                }
            };
            // A CSR row is walked here, as the slice it is.
            match targets {
                ViewEdges::Slice(row) => row.iter().for_each(|&v2| visit(v2)),
                overlay => overlay.for_each(visit),
            }
        }
    }
    out
}

/// **The** level-synchronous product BFS (Section 2.2) — the one loop
/// behind every entry point, generic over any
/// [`GraphView`] (the immutable CSR snapshot or the delta overlay). It runs
/// the automaton the arena compiled last ([`EvalScratch::compile`]).
///
/// Each level runs: cancellation check → with `stop_at`, one look at that
/// node's cells (is it an answer yet? then stop) → depth-cap check → one
/// push sweep → barrier, where the level just produced is appended to the
/// log of reached entries and becomes the frontier. ε-moves consume no
/// edge and no step of this loop: the successor masks the sweep marks are
/// ε-closed.
///
/// A level is *answer-checked* once it passes the cancellation check; the
/// counters and answers are those of the answer-checked log, read off it
/// after the loop ([`read_log`]): `pairs_visited` and `classes_materialized`
/// count its pairs and states, and `frontier_peak` is its largest level. A
/// `stop_at` hit cuts that log at the target's first accepting entry (its
/// level still counts whole for `frontier_peak`). A search that ran to the
/// end marked exactly the pairs of its log, so its answers are read off
/// the table; one that was cancelled, exhausted its budget or stopped at
/// `stop_at` has marked cells no answer check saw, and its answers are the
/// accepting entries of the answer-checked log.
///
/// Cancellation is checked once per level; the budget is enforced before
/// every row walk inside the sweep, so `edges_scanned <= budget`.
/// Answers of an early termination are a sound subset (a node is only
/// reported once an accepting pair is actually reached).
///
/// The answers stay in `scratch.answers`, sorted; the returned counters
/// are the search's, with `answers` their count.
pub(crate) fn product_search<G: GraphView>(
    graph: &G,
    seed: Oid,
    stop_at: Option<Oid>,
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> (EvalStats, bool, Termination) {
    let nv = graph.num_nodes();
    debug_assert!(seed.index() < nv.max(1), "seed must be a graph node");
    let covered = scratch.reset(nv);
    let mut stats = EvalStats {
        scratch_reused: usize::from(covered),
        ..EvalStats::default()
    };
    let (gen, words) = (scratch.generation(), scratch.masks.words);
    let mut termination = Termination::Complete;

    // Level 0: the ε-closure of the start state, at the seed.
    if nv > 0 {
        let mut cells = Cells::new(&mut scratch.table, words, gen);
        for (word, &bits) in scratch.masks.start_closure().iter().enumerate() {
            let new = cells.mark(seed.index(), word, bits);
            if new != 0 {
                scratch.reached.push(Entry {
                    node: seed,
                    word: word as u32,
                    bits: new,
                });
            }
        }
    }

    // The `stop_at` hit: one past the target's first accepting entry.
    let mut hit = None;
    let mut level_start = 0usize;
    let mut depth = 0usize;
    while level_start < scratch.reached.len() {
        if opts.control.cancelled() {
            // The level was never answer-checked: it leaves the log.
            termination = Termination::Cancelled;
            scratch.reached.truncate(level_start);
            break;
        }
        scratch.levels.push(level_start);

        // The levels before were checked without a hit, so if the target
        // is an answer now, its first accepting entry is in this level.
        if let Some(target) = stop_at.filter(|t| t.index() < nv) {
            let accepting = &scratch.masks.accepting[..];
            if Cells::new(&mut scratch.table, words, gen).accepts(target.index(), accepting) {
                let level = &scratch.reached[level_start..];
                let first = level
                    .iter()
                    .position(|e| e.node == target && e.bits & accepting[e.word as usize] != 0);
                debug_assert!(first.is_some(), "an answer has an accepting entry");
                hit = Some(level_start + first.map_or(level.len(), |i| i + 1));
                break;
            }
        }

        // At the cap no longer word can be accepted: the level is
        // answer-checked but never expanded, so graph edges beyond the cap
        // are not even scanned.
        if opts.depth_cap.is_some_and(|cap| depth >= cap) {
            break;
        }
        stats.push_levels += 1;

        // Disjoint field borrows: the sweep reads the frontier and the
        // mask tables while the cells and `next` take the produced level.
        let level = Level {
            graph,
            reverse_adj: opts.reverse_adj,
            masks: &scratch.masks,
            frontier: &scratch.reached[level_start..],
            left: opts
                .control
                .budget
                .map(|b| b.saturating_sub(stats.edges_scanned)),
        };
        let mut cells = Cells::new(&mut scratch.table, words, gen);
        let work = push_sweep(&level, &mut cells, &mut scratch.next);
        stats.edges_scanned += work.edges;
        stats.rows_resolved += work.rows;

        if work.tripped {
            // The level is partially expanded and never enters the log;
            // the rest of the search is abandoned.
            termination = Termination::BudgetExhausted;
            break;
        }

        // Level barrier: the next level is appended to the log and becomes
        // the frontier.
        level_start = scratch.reached.len();
        scratch.reached.append(&mut scratch.next.entries);
        depth += 1;
    }
    scratch.levels.push(scratch.reached.len());

    let checked = hit.unwrap_or(scratch.reached.len());
    let table_is_log = termination.is_complete() && hit.is_none();
    read_log(scratch, checked, table_is_log, &mut stats);
    #[cfg(debug_assertions)]
    check_answers(scratch, checked, table_is_log);
    (stats, hit.is_some(), termination)
}

/// The counters and the answers of a finished search, read off its log of
/// reached entries: the first `checked` of them were answer-checked, in
/// the levels `scratch.levels` delimits. `pairs_visited` and the touched
/// states are those of the checked entries, `frontier_peak` is the largest
/// level among those checked (counted whole), and the answers go to
/// `scratch.answers`, sorted.
///
/// When `table_is_log` — the search ran to the end, so every marked pair
/// is in the log — and the answers lie dense between the smallest and the
/// largest, the answers are read off that span of the mark table, in
/// order; otherwise the checked log's accepting entries are sorted and
/// deduplicated. Never all |V| nodes either way.
fn read_log(scratch: &mut EvalScratch, checked: usize, table_is_log: bool, stats: &mut EvalStats) {
    let accepting = &scratch.masks.accepting[..];
    let (mut accepted, mut lo, mut hi) = (0usize, usize::MAX, 0usize);
    for bounds in scratch.levels.windows(2) {
        let level = &scratch.reached[bounds[0]..bounds[1]];
        let (seen, unseen) = level.split_at(checked.clamp(bounds[0], bounds[1]) - bounds[0]);
        let mut pairs = 0usize;
        for e in seen {
            pairs += e.bits.count_ones() as usize;
            scratch.touched[e.word as usize] |= e.bits;
            if e.bits & accepting[e.word as usize] != 0 {
                accepted += 1;
                lo = lo.min(e.node.index());
                hi = hi.max(e.node.index());
            }
        }
        stats.pairs_visited += pairs;
        pairs += unseen
            .iter()
            .map(|e| e.bits.count_ones() as usize)
            .sum::<usize>();
        stats.frontier_peak = stats.frontier_peak.max(pairs);
    }

    scratch.answers.clear();
    if accepted > 0 && table_is_log && hi - lo < 4 * accepted {
        let gen = scratch.generation();
        let cells = Cells::new(&mut scratch.table, scratch.masks.words, gen);
        let span = (lo..=hi).filter(|&v| cells.accepts(v, accepting));
        scratch.answers.extend(span.map(|v| Oid(v as u32)));
    } else if accepted > 0 {
        let log = scratch.reached[..checked].iter();
        let nodes = log.filter(|e| e.bits & accepting[e.word as usize] != 0);
        scratch.answers.extend(nodes.map(|e| e.node));
        scratch.answers.sort_unstable();
        scratch.answers.dedup();
    }
    stats.answers = scratch.answers.len();
    stats.classes_materialized = scratch
        .touched
        .iter()
        .map(|t| t.count_ones() as usize)
        .sum();
}

/// Debug builds' cross-check of [`read_log`]: the answers are the sorted,
/// deduplicated accepting entries of the checked log, and where the table
/// was the log, a logged node's cells accept exactly when it is one of
/// them (an unlogged node has no marked cell).
#[cfg(debug_assertions)]
fn check_answers(scratch: &mut EvalScratch, checked: usize, table_is_log: bool) {
    let accepting = &scratch.masks.accepting[..];
    let accepts = |e: &&Entry| e.bits & accepting[e.word as usize] != 0;
    let mut from_log: Vec<Oid> = scratch.reached[..checked]
        .iter()
        .filter(accepts)
        .map(|e| e.node)
        .collect();
    from_log.sort_unstable();
    from_log.dedup();
    debug_assert_eq!(scratch.answers, from_log, "answers vs. the checked log");
    if table_is_log {
        let gen = scratch.generation();
        let cells = Cells::new(&mut scratch.table, scratch.masks.words, gen);
        for e in &scratch.reached {
            let answered = from_log.binary_search(&e.node).is_ok();
            let v = e.node.index();
            debug_assert_eq!(cells.accepts(v, accepting), answered, "{v}: table vs. log");
        }
    }
}

/// The node-set answer shape: evaluate `L(nfa)` from `seed` — `p(seed, I)`
/// forward, or `{o | seed ∈ p(o, I)}` with `opts.reverse_adj` and the
/// reversed automaton — by the product BFS, reading every field of
/// `opts`. Returns the (sound, possibly partial) sorted answer set and how
/// the search ended.
///
/// All working memory comes from `scratch`, which is resized/invalidated
/// here and can be reused across calls of any `(|Q|, |V|)` shape; a warm
/// scratch whose capacity covers `|Q|·|V|` makes the whole evaluation
/// allocation-free but for the returned answer set, an exact-size copy of
/// the arena's answer buffer (reported via `stats.scratch_reused`).
/// `stats.edges_scanned` counts only the edges the label index delivered.
pub fn search_nodes<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    seed: Oid,
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
) -> (EvalResult, Termination) {
    scratch.compile(nfa);
    let (stats, _, term) = product_search(graph, seed, None, opts, scratch);
    let answers = scratch.answers.to_vec();
    (EvalResult { answers, stats }, term)
}

/// One search per seed under one shared control — the loop behind every
/// multi-item request arm ([`crate::run_request`]) and
/// [`crate::search_pairs`]. Each seed's search gets
/// whatever `opts.control.budget` has left after the seeds before it; the
/// loop stops at the first non-complete termination, so seeds not yet
/// explored report nothing — still a sound subset. `on_item` receives each
/// explored seed's index and sorted answer set, in order; the set is lent
/// from the arena's answer buffer, so a caller that keeps it copies it and
/// one that only reads it allocates nothing.
pub(crate) fn search_nodes_each<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    seeds: &[Oid],
    opts: &SearchOpts<'_>,
    scratch: &mut EvalScratch,
    mut on_item: impl FnMut(usize, &[Oid]),
) -> (EvalStats, Termination) {
    let mut stats = EvalStats::default();
    scratch.compile(nfa);
    for (i, &seed) in seeds.iter().enumerate() {
        let budget = opts.control.budget;
        let item = SearchOpts {
            control: EvalControl {
                budget: budget.map(|b| b.saturating_sub(stats.edges_scanned)),
                cancel: opts.control.cancel,
            },
            ..*opts
        };
        let (seed_stats, _, term) = product_search(graph, seed, None, &item, scratch);
        stats.merge(&seed_stats);
        on_item(i, &scratch.answers);
        if !term.is_complete() {
            return (stats, term);
        }
    }
    (stats, Termination::Complete)
}

/// `p(source, I)` over a label-indexed snapshot with default
/// [`SearchOpts`] and a fresh arena — the one-line form the paper-example
/// tests spell. Generic over any [`GraphView`]: the `_csr` suffix names
/// the canonical snapshot form, but the same search runs unchanged over a
/// `rpq_graph::DeltaGraph` overlay.
pub fn eval_product_csr<G: GraphView>(nfa: &Nfa, graph: &G, source: Oid) -> EvalResult {
    search_nodes(
        nfa,
        graph,
        source,
        &SearchOpts::default(),
        &mut EvalScratch::new(),
    )
    .0
}

/// Evaluate `L(nfa)` from `source` over `instance`.
///
/// Compatibility wrapper: snapshots the instance into a [`CsrGraph`] and
/// runs [`eval_product_csr`]. Callers evaluating many queries over one
/// graph should build the snapshot once and use the CSR entry point (or the
/// `Engine` trait) directly.
pub fn eval_product(nfa: &Nfa, instance: &Instance, source: Oid) -> EvalResult {
    eval_product_csr(nfa, &CsrGraph::from(instance), source)
}

/// The original scan-and-filter product search, kept as the baseline the
/// label index is measured against: for every pair and every automaton
/// transition it scans the node's *entire* out-edge list and filters by
/// label, so `stats.edges_scanned` grows with `outdegree × fanout`.
pub fn eval_product_scan(nfa: &Nfa, instance: &Instance, source: Oid) -> EvalResult {
    fn push_scan(
        q: StateId,
        v: Oid,
        nv: usize,
        seen: &mut [bool],
        queue: &mut Vec<(StateId, Oid)>,
    ) {
        let idx = q as usize * nv + v.index();
        if !seen[idx] {
            seen[idx] = true;
            queue.push((q, v));
        }
    }

    let nq = nfa.num_states();
    let nv = instance.num_nodes();
    let mut seen = vec![false; nq * nv]; // alloc-ok: scan baseline, measured against — not a hot path
    let mut answer = vec![false; nv]; // alloc-ok: scan baseline
    let mut state_touched = vec![false; nq]; // alloc-ok: scan baseline
    let mut stats = EvalStats::default();

    let mut queue: Vec<(StateId, Oid)> = Vec::new(); // alloc-ok: scan baseline
    push_scan(nfa.start(), source, nv, &mut seen, &mut queue);
    while let Some((q, v)) = queue.pop() {
        stats.pairs_visited += 1;
        state_touched[q as usize] = true;
        if nfa.is_accepting(q) {
            answer[v.index()] = true;
        }
        for &q2 in nfa.eps_transitions(q) {
            push_scan(q2, v, nv, &mut seen, &mut queue);
        }
        for &(sym, q2) in nfa.transitions(q) {
            for &(label, v2) in instance.out_edges(v) {
                stats.edges_scanned += 1;
                if label == sym {
                    push_scan(q2, v2, nv, &mut seen, &mut queue);
                }
            }
        }
    }

    let classes = state_touched.iter().filter(|&&t| t).count();
    finish_eval(&answer, classes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::InstanceBuilder;

    /// `p(seed, I)` (or, `reverse`d, `{o | seed ∈ p(o, I)}` — reversing
    /// the automaton here) with an optional depth cap.
    fn search(
        nfa: &Nfa,
        graph: &CsrGraph,
        seed: Oid,
        reverse: bool,
        cap: Option<usize>,
    ) -> EvalResult {
        let opts = SearchOpts {
            reverse_adj: reverse,
            depth_cap: cap,
            ..SearchOpts::default()
        };
        let auto = if reverse { nfa.reverse() } else { nfa.clone() };
        search_nodes(&auto, graph, seed, &opts, &mut EvalScratch::new()).0
    }

    fn eval(query: &str, edges: &[(&str, &str, &str)], src: &str) -> (Vec<String>, EvalStats) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for &(f, l, t) in edges {
            b.edge(f, l, t);
        }
        let (inst, names) = b.finish();
        let r = parse_regex(&mut ab, query).unwrap();
        let res = eval_product(&Nfa::thompson(&r), &inst, names[src]);
        let scan = eval_product_scan(&Nfa::thompson(&r), &inst, names[src]);
        assert_eq!(res.answers, scan.answers, "csr vs scan baseline on {query}");
        let mut out: Vec<String> = res.answers.iter().map(|&o| inst.node_name(o)).collect();
        out.sort();
        (out, res.stats)
    }

    #[test]
    fn fig2_query_ab_star() {
        let edges = [("o1", "a", "o2"), ("o2", "b", "o3"), ("o3", "b", "o2")];
        let (ans, stats) = eval("a.b*", &edges, "o1");
        assert_eq!(ans, vec!["o2", "o3"]);
        assert_eq!(stats.answers, 2);
    }

    #[test]
    fn epsilon_query_returns_source() {
        let edges = [("s", "a", "x")];
        let (ans, _) = eval("()", &edges, "s");
        assert_eq!(ans, vec!["s"]);
        let (ans, _) = eval("a*", &edges, "s");
        assert_eq!(ans, vec!["s", "x"]);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let edges = [("s", "a", "x")];
        let (ans, _) = eval("[]", &edges, "s");
        assert!(ans.is_empty());
    }

    #[test]
    fn union_and_concat() {
        let edges = [
            ("s", "a", "x"),
            ("s", "b", "y"),
            ("x", "c", "z"),
            ("y", "c", "w"),
        ];
        let (ans, _) = eval("(a+b).c", &edges, "s");
        assert_eq!(ans, vec!["w", "z"]);
    }

    #[test]
    fn cycles_terminate() {
        let edges = [("s", "a", "s")];
        let (ans, stats) = eval("a*", &edges, "s");
        assert_eq!(ans, vec!["s"]);
        // pair space is finite even though the language is infinite
        assert!(stats.pairs_visited < 20);
    }

    #[test]
    fn unreachable_labels_are_ignored() {
        let edges = [("s", "a", "x"), ("q", "b", "r")];
        let (ans, _) = eval("a.b", &edges, "s");
        assert!(ans.is_empty());
        let (ans, _) = eval("a", &edges, "s");
        assert_eq!(ans, vec!["x"]);
    }

    #[test]
    fn diamond_dedups_answers() {
        let edges = [
            ("s", "a", "x"),
            ("s", "a", "y"),
            ("x", "b", "t"),
            ("y", "b", "t"),
        ];
        let (ans, _) = eval("a.b", &edges, "s");
        assert_eq!(ans, vec!["t"]);
    }

    #[test]
    fn nested_stars() {
        let edges = [("s", "a", "x"), ("x", "b", "s"), ("x", "c", "t")];
        let (ans, _) = eval("(a.b)*.a.c", &edges, "s");
        assert_eq!(ans, vec!["t"]);
        let (ans, _) = eval("(a.b)*", &edges, "s");
        assert_eq!(ans, vec!["s"]);
    }

    #[test]
    fn bfs_levels_are_word_lengths() {
        // a chain: the pair (state, n_k) is first reached at level k, so
        // pairs_visited equals the number of distinct reachable pairs and
        // every node is answered despite the single pass per level.
        let edges = [
            ("n0", "a", "n1"),
            ("n1", "a", "n2"),
            ("n2", "a", "n3"),
            ("n3", "a", "n4"),
        ];
        let (ans, _) = eval("a*", &edges, "n0");
        assert_eq!(ans, vec!["n0", "n1", "n2", "n3", "n4"]);
    }

    #[test]
    fn backward_is_the_transpose_of_forward() {
        // t ∈ p(s, I)  ⟺  s ∈ backward(t): check the full relation on a
        // graph with cycles, a diamond, and an ε-accepting query.
        let edges = [
            ("o1", "a", "o2"),
            ("o2", "b", "o3"),
            ("o3", "b", "o2"),
            ("o1", "b", "o3"),
            ("o3", "a", "o1"),
        ];
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for &(f, l, t) in &edges {
            b.edge(f, l, t);
        }
        let (inst, _) = b.finish();
        let csr = CsrGraph::from(&inst);
        for qs in ["a.b*", "(a+b)*", "b.b", "()", "[]", "(a.b)*.a"] {
            let r = parse_regex(&mut ab, qs).unwrap();
            let nfa = Nfa::thompson(&r);
            let forward: Vec<Vec<Oid>> = csr
                .nodes()
                .map(|s| eval_product_csr(&nfa, &csr, s).answers)
                .collect();
            for t in csr.nodes() {
                let backward = search(&nfa, &csr, t, true, None).answers;
                for s in csr.nodes() {
                    assert_eq!(
                        forward[s.index()].contains(&t),
                        backward.contains(&s),
                        "{qs}: {s:?} -> {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn backward_scans_fewer_edges_when_last_label_is_rare() {
        // hub fans out 50 hot edges; exactly one cold edge enters t. The
        // query hot.cold evaluated backward from t starts on the rare label.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..50 {
            b.edge("hub", "hot", &format!("h{i}"));
        }
        b.edge("h0", "cold", "t");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let q = parse_regex(&mut ab, "hot.cold").unwrap();
        let nfa = Nfa::thompson(&q);
        let fwd = eval_product_csr(&nfa, &csr, names["hub"]);
        let bwd = search(&nfa, &csr, names["t"], true, None);
        assert_eq!(fwd.answers, vec![names["t"]]);
        assert_eq!(bwd.answers, vec![names["hub"]]);
        assert!(
            bwd.stats.edges_scanned * 10 < fwd.stats.edges_scanned,
            "backward {} vs forward {}",
            bwd.stats.edges_scanned,
            fwd.stats.edges_scanned
        );
    }

    #[test]
    fn bounded_search_is_exact_at_the_word_length_cap() {
        // cyclic graph, finite query a.a + a.b (longest word: 2). The cap
        // stops the BFS at depth 2 without losing answers, and scans
        // strictly fewer edges than the uncapped search on the cycle.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("x", "a", "s");
        b.edge("x", "b", "t");
        b.edge("t", "a", "s");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let r = parse_regex(&mut ab, "a.a + a.b").unwrap();
        let nfa = Nfa::thompson(&r);
        assert_eq!(nfa.longest_accepted_len(), Some(2));
        let full = eval_product_csr(&nfa, &csr, names["s"]);
        let capped = search(&nfa, &csr, names["s"], false, Some(2));
        assert_eq!(capped.answers, full.answers);
        // a cap below the longest word is allowed but incomplete — the
        // planner never does this; documented here as the contract edge
        let short = search(&nfa, &csr, names["s"], false, Some(1));
        assert!(short.answers.len() <= full.answers.len());
        // backward form agrees with the uncapped backward search
        let bwd_full = search(&nfa, &csr, names["t"], true, None);
        let bwd_capped = search(&nfa, &csr, names["t"], true, Some(2));
        assert_eq!(bwd_capped.answers, bwd_full.answers);
    }

    #[test]
    fn label_index_scans_fewer_edges_on_skew() {
        // one hub with many hot-label edges; the query follows the cold label
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..50 {
            b.edge("hub", "hot", &format!("h{i}"));
        }
        b.edge("hub", "cold", "t");
        let (inst, names) = b.finish();
        let q = parse_regex(&mut ab, "cold").unwrap();
        let nfa = Nfa::thompson(&q);
        let csr = eval_product_csr(&nfa, &CsrGraph::from(&inst), names["hub"]);
        let scan = eval_product_scan(&nfa, &inst, names["hub"]);
        assert_eq!(csr.answers, scan.answers);
        assert!(
            csr.stats.edges_scanned * 10 < scan.stats.edges_scanned,
            "label index {} vs scan {}",
            csr.stats.edges_scanned,
            scan.stats.edges_scanned
        );
    }

    fn web(n: usize) -> (CsrGraph, Oid, Nfa) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..n {
            b.edge(&format!("n{i}"), "a", &format!("n{}", (i * 7 + 1) % n));
            b.edge(&format!("n{i}"), "b", &format!("n{}", (i * 13 + 5) % n));
            if i % 3 == 0 {
                b.edge(&format!("n{i}"), "c", &format!("n{}", (i * 31 + 2) % n));
            }
        }
        let (inst, names) = b.finish();
        let r = parse_regex(&mut ab, "(a+b+c)*").unwrap();
        (CsrGraph::from(&inst), names["n0"], Nfa::thompson(&r))
    }

    #[test]
    fn budget_is_a_sound_subset() {
        let (graph, src, nfa) = web(200);
        let full = eval_product_csr(&nfa, &graph, src);
        for budget in [0usize, 1, 17, 150, 100_000] {
            let opts = SearchOpts {
                control: EvalControl {
                    budget: Some(budget),
                    cancel: None,
                },
                ..SearchOpts::default()
            };
            let (res, term) = search_nodes(&nfa, &graph, src, &opts, &mut EvalScratch::new());
            assert!(res.stats.edges_scanned <= budget, "budget={budget}");
            for o in &res.answers {
                assert!(full.answers.binary_search(o).is_ok(), "unsound answer");
            }
            if term == Termination::Complete {
                assert_eq!(res.answers, full.answers);
            }
        }
    }

    /// The answer buffer stays in the arena: a search hands out an
    /// exact-size copy, and a warm arena's next search does not regrow it.
    #[test]
    fn answers_leave_at_exact_size_and_the_buffer_stays() {
        let (graph, src, nfa) = web(400);
        let mut scratch = EvalScratch::new();
        let first = search_nodes(&nfa, &graph, src, &SearchOpts::default(), &mut scratch).0;
        assert!(first.answers.len() > 100);
        assert_eq!(first.answers.capacity(), first.answers.len());
        let kept = scratch.answers.capacity();
        assert!(kept >= first.answers.len());
        let again = search_nodes(&nfa, &graph, src, &SearchOpts::default(), &mut scratch).0;
        assert_eq!(
            again,
            EvalResult {
                stats: EvalStats {
                    scratch_reused: 1,
                    ..first.stats
                },
                ..first
            }
        );
        assert_eq!(scratch.answers.capacity(), kept);
    }
}
