//! The query-decomposition baseline: ship the query once per site.
//!
//! The paper's related-work section describes the alternative strategy of
//! Suciu \[30\] for UnQL: "queries can be evaluated by shipping the query
//! exactly once to every site, returning the local results to the client
//! site, and assembling the final result at the client site." This module
//! implements that baseline for regular path queries so the agent-style
//! protocol of Section 3.1 can be compared against it (bench
//! `t9_protocol_comparison`):
//!
//! * **Round 1** — the client sends the full query automaton to each of
//!   the `k` sites (`k` messages).
//! * **Local work** — each site computes a *partial-run table*: for every
//!   possible entry pair (border node `n`, automaton state `s`), the set
//!   of cross-site pairs `(n', s')` its internal edges can reach, plus the
//!   local answers produced along the way. Sites cannot know which entry
//!   pairs will actually be demanded, so they compute **all** of them —
//!   the wasted work this baseline trades for its fixed message count.
//! * **Round 2** — each site returns its table (`k` messages); the client
//!   chases pairs across tables from `(source, start state)`.
//!
//! The trade against Section 3.1's agents is exactly the one the paper's
//! distributed scenario motivates: `2k` messages with potentially large,
//! partially wasted payloads versus answers-driven navigation whose
//! message count tracks the *reached* portion of the graph.
//!
//! Objects are grouped into sites by a [`Partition`] (the Section 3.1
//! protocol is the `singletons` special case where every object is its
//! own site).

use std::collections::{HashMap, HashSet, VecDeque};

use rpq_automata::{Nfa, Regex, StateId};
use rpq_graph::{Instance, Oid};

/// An assignment of objects to sites.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `site_of[oid] = site index`.
    pub site_of: Vec<usize>,
    /// Number of sites.
    pub num_sites: usize,
}

impl Partition {
    /// Every object is its own site (the Section 3.1 setting).
    pub fn singletons(instance: &Instance) -> Partition {
        Partition {
            site_of: (0..instance.num_nodes()).collect(),
            num_sites: instance.num_nodes(),
        }
    }

    /// Contiguous blocks of `block_size` object ids per site.
    pub fn blocks(instance: &Instance, block_size: usize) -> Partition {
        let block_size = block_size.max(1);
        let n = instance.num_nodes();
        Partition {
            site_of: (0..n).map(|o| o / block_size).collect(),
            num_sites: n.div_ceil(block_size),
        }
    }

    /// An explicit assignment (checked for contiguity of site indexes).
    pub fn from_map(site_of: Vec<usize>) -> Partition {
        let num_sites = site_of.iter().copied().max().map_or(0, |m| m + 1);
        Partition { site_of, num_sites }
    }

    /// The site of an object.
    pub fn site(&self, o: Oid) -> usize {
        self.site_of[o.0 as usize]
    }
}

/// One site's partial-run table.
#[derive(Clone, Debug, Default)]
struct SiteTable {
    /// `(entry node, state) → cross-site continuations (node, state)`.
    crossings: HashMap<(u32, StateId), Vec<(u32, StateId)>>,
    /// `(entry node, state) → local answers`.
    answers: HashMap<(u32, StateId), Vec<u32>>,
    /// Number of (entry, state) pairs computed (work/size measure).
    entries: usize,
}

/// Result of a decomposition run, with message accounting comparable to
/// [`crate::sim::MessageStats`].
#[derive(Clone, Debug)]
pub struct DecompositionResult {
    /// Sorted answers; equal to the centralized evaluation (asserted by
    /// [`run_decomposition_checked`]).
    pub answers: Vec<Oid>,
    /// Total messages (2 per site: query shipment + table return).
    pub messages: usize,
    /// Estimated bytes on the wire (query encoding per site + 12 bytes per
    /// table row, mirroring the codec's per-field sizes).
    pub bytes: usize,
    /// Total table rows computed across sites (local-work measure).
    pub table_entries: usize,
    /// Table rows the client's assembly actually consumed.
    pub table_entries_used: usize,
    /// Communication rounds (always 2).
    pub rounds: usize,
}

/// Run the decomposition strategy. The query is evaluated exactly; message
/// and byte counts model the two-round protocol described in the module
/// docs.
pub fn run_decomposition(
    instance: &Instance,
    alphabet: &rpq_automata::Alphabet,
    partition: &Partition,
    source: Oid,
    query: &Regex,
) -> DecompositionResult {
    let nfa = Nfa::thompson(query);
    let query_bytes = format!("{}", query.display(alphabet)).len() + 17; // header like codec

    // --- Round 1 + local work: build each site's table. -------------------
    // Entry nodes of a site: nodes with an in-edge from another site, plus
    // the source node (the client enters there).
    let mut entry_nodes: Vec<HashSet<u32>> = vec![HashSet::new(); partition.num_sites];
    entry_nodes[partition.site(source)].insert(source.0);
    for (a, _, b) in instance.edges() {
        if partition.site(a) != partition.site(b) {
            entry_nodes[partition.site(b)].insert(b.0);
        }
    }

    let mut tables: Vec<SiteTable> = vec![SiteTable::default(); partition.num_sites];
    for site in 0..partition.num_sites {
        let table = &mut tables[site];
        for &entry in &entry_nodes[site] {
            // All states are possible entry states — the site cannot know
            // which the run will demand; this is the baseline's waste.
            for state in 0..nfa.num_states() as StateId {
                let key = (entry, state);
                table.entries += 1;
                // BFS over (node, state-set) within the site.
                let start_set = nfa.eps_closure(&[state]);
                let mut seen: HashSet<(u32, Vec<StateId>)> = HashSet::new();
                let mut queue: VecDeque<(u32, Vec<StateId>)> = VecDeque::new();
                seen.insert((entry, start_set.clone()));
                queue.push_back((entry, start_set));
                let mut crossings: Vec<(u32, StateId)> = Vec::new();
                let mut answers: Vec<u32> = Vec::new();
                while let Some((node, set)) = queue.pop_front() {
                    if nfa.set_accepts(&set) && !answers.contains(&node) {
                        answers.push(node);
                    }
                    for &(label, target) in instance.out_edges(Oid(node)) {
                        let stepped = nfa.step(&set, label);
                        if stepped.is_empty() {
                            continue;
                        }
                        if partition.site(target) == site {
                            let item = (target.0, stepped);
                            if !seen.contains(&item) {
                                seen.insert(item.clone());
                                queue.push_back(item);
                            }
                        } else {
                            for &s in &stepped {
                                if !crossings.contains(&(target.0, s)) {
                                    crossings.push((target.0, s));
                                }
                            }
                        }
                    }
                }
                if !crossings.is_empty() {
                    table.crossings.insert(key, crossings);
                }
                if !answers.is_empty() {
                    table.answers.insert(key, answers);
                }
            }
        }
    }

    // --- Round 2: client assembly. ----------------------------------------
    // Chase (node, state) pairs across site tables. The NFA's start is an
    // ε-closed *set*; tables are keyed per single state, so expand.
    let mut answers: HashSet<u32> = HashSet::new();
    let mut used: HashSet<(u32, StateId)> = HashSet::new();
    let mut queue: VecDeque<(u32, StateId)> = VecDeque::new();
    for s in nfa.start_set() {
        // per-state closure is applied inside the site computation
        if used.insert((source.0, s)) {
            queue.push_back((source.0, s));
        }
    }
    while let Some((node, state)) = queue.pop_front() {
        let table = &tables[partition.site(Oid(node))];
        if let Some(local) = table.answers.get(&(node, state)) {
            answers.extend(local.iter().copied());
        }
        if let Some(crossings) = table.crossings.get(&(node, state)) {
            for &(n, s) in crossings {
                if used.insert((n, s)) {
                    queue.push_back((n, s));
                }
            }
        }
    }

    let table_entries: usize = tables.iter().map(|t| t.entries).sum();
    let table_rows: usize = tables
        .iter()
        .map(|t| {
            t.crossings.values().map(Vec::len).sum::<usize>()
                + t.answers.values().map(Vec::len).sum::<usize>()
        })
        .sum();
    let mut sorted: Vec<Oid> = answers.into_iter().map(Oid).collect();
    sorted.sort();
    DecompositionResult {
        answers: sorted,
        messages: 2 * partition.num_sites,
        bytes: partition.num_sites * query_bytes + table_rows * 12,
        table_entries,
        table_entries_used: used.len(),
        rounds: 2,
    }
}

/// [`run_decomposition`] plus the correctness assertion against the
/// centralized product-automaton engine.
pub fn run_decomposition_checked(
    instance: &Instance,
    alphabet: &rpq_automata::Alphabet,
    partition: &Partition,
    source: Oid,
    query: &Regex,
) -> DecompositionResult {
    let result = run_decomposition(instance, alphabet, partition, source, query);
    let centralized = rpq_core::eval_product(&Nfa::thompson(query), instance, source).answers;
    assert_eq!(
        result.answers, centralized,
        "decomposition answers differ from centralized evaluation"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_and_check, Delivery};
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::InstanceBuilder;
    use rpq_testkit::generators::fig2_graph;

    #[test]
    fn fig2_all_partitions_agree() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        for block in [1, 2, 3, 10] {
            let part = Partition::blocks(&inst, block);
            let res = run_decomposition_checked(&inst, &ab, &part, o1, &q);
            assert_eq!(res.answers.len(), 2, "block size {block}");
            assert_eq!(res.rounds, 2);
            assert_eq!(res.messages, 2 * part.num_sites);
        }
    }

    #[test]
    fn chain_with_cycles_and_unions() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("u", "a", "v");
        b.edge("v", "b", "w");
        b.edge("w", "b", "v");
        b.edge("v", "c", "x");
        b.edge("x", "a", "u");
        let (inst, names) = b.finish();
        let u = names["u"];
        for query in ["a.b*", "(a+b)*", "a.(b.b)*.c", "c"] {
            let q = parse_regex(&mut ab, query).unwrap();
            for block in [1, 2, 5] {
                let part = Partition::blocks(&inst, block);
                run_decomposition_checked(&inst, &ab, &part, u, &q);
            }
        }
    }

    #[test]
    fn message_count_is_fixed_by_partition_not_by_reach() {
        // A long backbone: the agent protocol's messages grow with depth,
        // decomposition's stay 2k.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..30 {
            b.edge(&format!("n{i}"), "a", &format!("n{}", i + 1));
        }
        let (inst, names) = b.finish();
        let n0 = names["n0"];
        let q = parse_regex(&mut ab, "a*").unwrap();

        let part = Partition::blocks(&inst, 8);
        let dec = run_decomposition_checked(&inst, &ab, &part, n0, &q);
        assert_eq!(dec.messages, 2 * part.num_sites);

        let agent = run_and_check(&inst, &ab, n0, &q, Delivery::Fifo);
        assert!(
            agent.stats.total() > dec.messages,
            "agents: {}, decomposition: {}",
            agent.stats.total(),
            dec.messages
        );
    }

    #[test]
    fn wasted_work_is_visible() {
        // Two components; the query only reaches one. Decomposition still
        // computes tables for both — entries ≫ entries_used.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..6 {
            b.edge(&format!("x{i}"), "a", &format!("x{}", i + 1));
            b.edge(&format!("y{i}"), "a", &format!("y{}", i + 1));
        }
        b.edge("x6", "b", "x0");
        b.edge("y6", "b", "y0");
        let (inst, names) = b.finish();
        let q = parse_regex(&mut ab, "a.a").unwrap();
        let part = Partition::blocks(&inst, 2);
        let res = run_decomposition_checked(&inst, &ab, &part, names["x0"], &q);
        assert!(
            res.table_entries > res.table_entries_used,
            "entries {} used {}",
            res.table_entries,
            res.table_entries_used
        );
    }

    #[test]
    fn singleton_partition_matches_agent_answers() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let part = Partition::singletons(&inst);
        let dec = run_decomposition_checked(&inst, &ab, &part, o1, &q);
        let agent = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);
        assert_eq!(dec.answers, agent.answers);
    }

    #[test]
    fn empty_language_and_epsilon_queries() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let part = Partition::blocks(&inst, 2);
        let eps = parse_regex(&mut ab, "()").unwrap();
        let res = run_decomposition_checked(&inst, &ab, &part, o1, &eps);
        assert_eq!(res.answers, vec![o1]);
        let dead = parse_regex(&mut ab, "z.z").unwrap();
        let res = run_decomposition_checked(&inst, &ab, &part, o1, &dead);
        assert!(res.answers.is_empty());
    }
}
