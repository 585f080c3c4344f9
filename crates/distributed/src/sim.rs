//! Deterministic event-driven network simulator.
//!
//! One event loop drives every run of the Section 3.1 protocol: a single
//! query ([`Simulator::run`]), many queries over one network
//! ([`run_concurrent`]), and a run under a fault plan
//! ([`crate::run_with_faults`]). It delivers messages between [`Site`]s
//! with configurable (seeded) latency, records a full trace (regenerating
//! the Figure 3 run), accounts messages and bytes, passes every subquery
//! through the rewrite hook, and checks the two correctness properties the
//! paper claims: the distributed answers equal the centralized `p(o, I)`,
//! and the protocol *detects its own termination* — the initiator's
//! `done(m₀)` arrives exactly when the network quiesces.

use std::collections::BinaryHeap;

use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq_automata::{Alphabet, Regex};
use rpq_graph::{CsrGraph, EdgeDelta, GraphView, Instance, Oid};

use crate::faults::FaultPlan;
use crate::message::{codec, Message, MessageKind, SiteId};
use crate::site::{no_rewrite, Site};

/// Message delivery policy.
#[derive(Clone, Debug)]
pub enum Delivery {
    /// FIFO: deliver in send order (latency 1 per hop).
    Fifo,
    /// Random per-message latency in `1..=max_latency`, seeded.
    Random {
        /// RNG seed.
        seed: u64,
        /// Maximum latency.
        max_latency: u64,
    },
}

/// Per-kind message and byte accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// `subquery` count.
    pub subqueries: usize,
    /// `answer` count.
    pub answers: usize,
    /// `done` count.
    pub dones: usize,
    /// `akn` count.
    pub acks: usize,
    /// Total encoded bytes on the wire.
    pub bytes: usize,
}

impl MessageStats {
    /// Total messages.
    pub fn total(&self) -> usize {
        self.subqueries + self.answers + self.dones + self.acks
    }

    fn record(&mut self, kind: MessageKind, bytes: usize) {
        match kind {
            MessageKind::Subquery => self.subqueries += 1,
            MessageKind::Answer => self.answers += 1,
            MessageKind::Done => self.dones += 1,
            MessageKind::Ack => self.acks += 1,
        }
        self.bytes += bytes;
    }
}

/// One delivered message, with its virtual delivery time.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual delivery time.
    pub time: u64,
    /// The message as delivered.
    pub message: Message,
}

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Sorted answer oids (as reported to the initiator).
    pub answers: Vec<Oid>,
    /// Did the initiator's root `done` arrive?
    pub termination_detected: bool,
    /// Accounting.
    pub stats: MessageStats,
    /// Full delivery trace.
    pub trace: Vec<TraceEvent>,
    /// Number of subquery tasks registered across all object sites.
    pub tasks_registered: usize,
}

#[derive(PartialEq, Eq)]
struct QueueEntry {
    time: u64,
    seq: u64,
    message_idx: usize,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap: reverse on (time, seq)
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulator: object sites from an [`Instance`] plus one client site.
pub struct Simulator<'a> {
    alphabet: &'a Alphabet,
    sites: Vec<Site>,
    /// The client site id (== `instance.num_nodes()`).
    pub client: SiteId,
    delivery: Delivery,
    /// Optional per-site subquery rewriting (Section 3.2 hook).
    rewrite: RewriteHook<'a>,
}

/// A per-site subquery rewriting hook (Section 3.2): given the receiving
/// site and the incoming subquery, return the query to actually run.
pub type RewriteHook<'a> = Box<dyn Fn(SiteId, &Regex) -> Regex + 'a>;

impl<'a> Simulator<'a> {
    /// Build a simulator over `instance`; one site per object plus a client.
    /// Compatibility wrapper over [`Simulator::from_csr`] (snapshots the
    /// instance first).
    pub fn new(instance: &Instance, alphabet: &'a Alphabet, delivery: Delivery) -> Simulator<'a> {
        Simulator::from_csr(&CsrGraph::from(instance), alphabet, delivery)
    }

    /// Build a simulator over a label-indexed snapshot: each object site
    /// holds its CSR shard (its sorted out-row), plus one client site.
    pub fn from_csr(graph: &CsrGraph, alphabet: &'a Alphabet, delivery: Delivery) -> Simulator<'a> {
        Simulator::from_view(graph, alphabet, delivery)
    }

    /// Build a simulator over **any** [`GraphView`] snapshot (e.g. a
    /// `rpq_graph::DeltaGraph` absorbing writes): each object site holds
    /// its shard of the view's current state, plus one client site.
    pub fn from_view<G: GraphView>(
        graph: &G,
        alphabet: &'a Alphabet,
        delivery: Delivery,
    ) -> Simulator<'a> {
        let n = graph.num_nodes();
        let mut sites: Vec<Site> = (0..n as u32)
            .map(|o| Site::from_view(graph, Oid(o)))
            .collect();
        let client = n as SiteId;
        sites.push(Site::new(client, Vec::new()));
        Simulator {
            alphabet,
            sites,
            client,
            delivery,
            rewrite: Box::new(no_rewrite),
        }
    }

    /// Absorb an edge batch **without a full reshard**: each mutation is a
    /// sorted-row insert/remove on exactly its source's shard, and every
    /// site's protocol state is reset (the subquery dedup tables refer to
    /// the pre-delta graph). Endpoints must be existing object sites — a
    /// batch introducing new nodes requires rebuilding the network.
    /// Returns the number of mutations that took effect.
    pub fn apply_delta(&mut self, delta: &EdgeDelta) -> usize {
        let known = |o: Oid| o.0 < self.client;
        let mut applied = 0;
        for &(s, l, t) in &delta.dels {
            assert!(known(s) && known(t), "unknown site");
            applied += self.sites[s.index()].apply_delta(&[], &[(l, t.0)]);
        }
        for &(s, l, t) in &delta.adds {
            assert!(known(s) && known(t), "unknown site");
            applied += self.sites[s.index()].apply_delta(&[(l, t.0)], &[]);
        }
        for site in &mut self.sites {
            site.reset_protocol();
        }
        applied
    }

    /// Install a per-site subquery rewriting hook (constraint optimization).
    pub fn with_rewrite<F>(mut self, f: F) -> Simulator<'a>
    where
        F: Fn(SiteId, &Regex) -> Regex + 'a,
    {
        self.rewrite = Box::new(f);
        self
    }

    /// Run `query` from `source`, asked by the client site. Panics if the
    /// protocol fails to detect termination by quiescence (a protocol bug).
    pub fn run(&mut self, source: Oid, query: &Regex) -> RunResult {
        let traffic = self.run_to_quiescence(source, query, None);
        let (answers, termination_detected) = self.outcome(self.client);
        assert!(
            termination_detected,
            "protocol failed to detect termination at quiescence"
        );
        let tasks_registered = self
            .sites
            .iter()
            .filter(|s| s.id != self.client)
            .map(Site::task_count)
            .sum();
        RunResult {
            answers,
            termination_detected,
            stats: traffic.stats,
            trace: traffic.trace,
            tasks_registered,
        }
    }

    /// The client initiates `query` at `source`, and the network runs
    /// until no message is in flight. Nothing is asserted: under a fault
    /// plan a hung or premature run is the observation.
    pub(crate) fn run_to_quiescence(
        &mut self,
        source: Oid,
        query: &Regex,
        faults: Option<&FaultPlan>,
    ) -> Traffic {
        let initial = self.sites[self.client as usize].initiate(source.0, query.clone());
        self.deliver(vec![initial], faults)
    }

    /// A client site's sorted answers and whether its root `done` arrived.
    pub(crate) fn outcome(&self, client: SiteId) -> (Vec<Oid>, bool) {
        let site = &self.sites[client as usize];
        let mut answers: Vec<Oid> = site.answers.iter().map(|&s| Oid(s)).collect();
        answers.sort();
        (answers, site.root_done)
    }

    /// The event loop every run of the Section 3.1 protocol goes through:
    /// send `initial` at time 0, then deliver the earliest pending message
    /// to its receiver (through the rewrite hook) and send what it
    /// produces, until nothing is in flight.
    fn deliver(&mut self, initial: Vec<Message>, faults: Option<&FaultPlan>) -> Traffic {
        let mut wire = Wire {
            alphabet: self.alphabet,
            latency: match self.delivery {
                Delivery::Fifo => None,
                Delivery::Random { seed, max_latency } => {
                    Some((StdRng::seed_from_u64(seed), max_latency))
                }
            },
            faults: faults.map(|plan| (plan, StdRng::seed_from_u64(plan.seed))),
            heap: BinaryHeap::new(),
            messages: Vec::new(),
            seq: 0,
            traffic: Traffic::default(),
        };
        for msg in initial {
            wire.send(msg, 0);
        }
        while let Some(QueueEntry {
            time, message_idx, ..
        }) = wire.heap.pop()
        {
            let msg = wire.messages[message_idx].clone();
            wire.traffic.trace.push(TraceEvent {
                time,
                message: msg.clone(),
            });
            let receiver = msg.receiver() as usize;
            for m in self.sites[receiver].handle(msg, &self.rewrite) {
                wire.send(m, time);
            }
        }
        wire.traffic
    }
}

/// What one pass of the event loop delivered.
#[derive(Default)]
pub(crate) struct Traffic {
    /// Accounting of every delivered message (each copy of a duplicate).
    pub(crate) stats: MessageStats,
    /// Every delivery, in delivery order.
    pub(crate) trace: Vec<TraceEvent>,
    /// Messages the fault plan dropped.
    pub(crate) dropped: usize,
    /// Messages the fault plan delivered twice.
    pub(crate) duplicated: usize,
}

/// The in-flight half of the event loop: the min-heap of pending
/// deliveries and everything a send draws from or counts into.
struct Wire<'a, 'p> {
    alphabet: &'a Alphabet,
    /// `Delivery::Random`'s generator and maximum latency.
    latency: Option<(StdRng, u64)>,
    faults: Option<(&'p FaultPlan, StdRng)>,
    heap: BinaryHeap<QueueEntry>,
    messages: Vec<Message>,
    seq: u64,
    traffic: Traffic,
}

impl Wire<'_, '_> {
    /// Send `msg` at time `now`. Its latency is drawn first; then, under a
    /// fault plan and for the kinds it affects, whether to drop it and,
    /// if not, whether to deliver a second copy one tick after the first.
    fn send(&mut self, msg: Message, now: u64) {
        let latency = match &mut self.latency {
            Some((rng, max_latency)) => rng.random_range(1..=*max_latency),
            None => 1,
        };
        if let Some((plan, rng)) = &mut self.faults {
            if plan.only_kind.is_none_or(|k| msg.kind() == k) {
                if rng.random_range(0..100) < plan.drop_percent {
                    self.traffic.dropped += 1;
                    return;
                }
                if rng.random_range(0..100) < plan.duplicate_percent {
                    self.traffic.duplicated += 1;
                    self.enqueue(msg.clone(), now + latency);
                    self.enqueue(msg, now + latency + 1);
                    return;
                }
            }
        }
        self.enqueue(msg, now + latency);
    }

    fn enqueue(&mut self, msg: Message, time: u64) {
        let bytes = codec::encode(&msg, self.alphabet).len();
        self.traffic.stats.record(msg.kind(), bytes);
        self.seq += 1;
        self.messages.push(msg);
        self.heap.push(QueueEntry {
            time,
            seq: self.seq,
            message_idx: self.messages.len() - 1,
        });
    }
}

/// Per-query outcome of a concurrent run (see [`run_concurrent`]).
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Sorted answers delivered to this query's client.
    pub answers: Vec<Oid>,
    /// This query's root `done` arrived.
    pub termination_detected: bool,
}

/// Result of a concurrent multi-query run.
#[derive(Clone, Debug)]
pub struct ConcurrentRunResult {
    /// One outcome per input query, in order.
    pub outcomes: Vec<QueryOutcome>,
    /// Aggregate message accounting across all queries.
    pub stats: MessageStats,
}

/// Evaluate several queries **concurrently** over one network.
///
/// Section 3.1: "We also assume that a single query is evaluated at a
/// time. (Many queries may be treated by appending a global query
/// identifier to all messages.)" The identifier is realized here by the
/// `destination` field every message already carries: each query gets its
/// own client site, so the per-site dedup key `(destination, subquery)`
/// never collides across queries. The flip side — measured by the tests —
/// is that identical queries from different clients do *not* share work;
/// sharing would need dedup on the subquery alone plus per-task
/// destination lists, which the paper does not specify.
pub fn run_concurrent(
    instance: &Instance,
    alphabet: &Alphabet,
    queries: &[(Oid, Regex)],
    delivery: Delivery,
) -> ConcurrentRunResult {
    let mut sim = Simulator::new(instance, alphabet, delivery);
    let first_client = sim.client;
    let clients: Vec<SiteId> = (0..queries.len() as SiteId)
        .map(|i| first_client + i)
        .collect();
    for &client in clients.iter().skip(1) {
        sim.sites.push(Site::new(client, Vec::new()));
    }
    let initial = clients
        .iter()
        .zip(queries)
        .map(|(&client, (source, query))| {
            sim.sites[client as usize].initiate(source.0, query.clone())
        })
        .collect();
    let traffic = sim.deliver(initial, None);
    let outcomes = clients
        .iter()
        .map(|&client| {
            let (answers, termination_detected) = sim.outcome(client);
            QueryOutcome {
                answers,
                termination_detected,
            }
        })
        .collect();
    ConcurrentRunResult {
        outcomes,
        stats: traffic.stats,
    }
}

/// Render a trace in the style of Figure 3.
pub fn render_trace(
    trace: &[TraceEvent],
    alphabet: &Alphabet,
    instance: &Instance,
    client: SiteId,
) -> String {
    let name = |s: SiteId| -> String {
        if s == client {
            "d".to_owned()
        } else {
            instance.node_name(Oid(s))
        }
    };
    let mut out = String::new();
    for ev in trace {
        out.push_str(&format!(
            "t={:<4} {}\n",
            ev.time,
            ev.message.render(alphabet, &name)
        ));
    }
    out
}

/// Convenience: evaluate distributedly and compare against the centralized
/// product-automaton engine; returns the run result after asserting
/// equality. Used by the integration tests and the correctness property in
/// the benches.
pub fn run_and_check(
    instance: &Instance,
    alphabet: &Alphabet,
    source: Oid,
    query: &Regex,
    delivery: Delivery,
) -> RunResult {
    let mut sim = Simulator::new(instance, alphabet, delivery);
    let result = sim.run(source, query);
    let centralized =
        rpq_core::eval_product(&rpq_automata::Nfa::thompson(query), instance, source).answers;
    assert_eq!(
        result.answers, centralized,
        "distributed answers differ from centralized evaluation"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::parse_regex;
    use rpq_graph::InstanceBuilder;
    use rpq_testkit::generators::fig2_graph;

    #[test]
    fn fig3_run_on_fig2_graph() {
        let mut ab = Alphabet::new();
        let (inst, _d, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let res = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);
        // answers = {o2, o3}
        assert_eq!(res.answers.len(), 2);
        assert!(res.termination_detected);
        // the trace starts with the client's subquery(ab*) to o1
        let first = &res.trace[0].message;
        assert!(matches!(first, Message::Subquery { .. }));
        // o2 receives b* twice (from o1's quotient and from o3's cycle) but
        // registers it once: dedup produced an immediate done
        assert!(res.tasks_registered <= 4);
        // message accounting is self-consistent
        assert_eq!(
            res.stats.total(),
            res.trace.len(),
            "every sent message is delivered exactly once"
        );
        // every answer was acknowledged
        assert_eq!(res.stats.answers, res.stats.acks);
    }

    #[test]
    fn random_delivery_same_answers() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let fifo = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);
        for seed in 0..10 {
            let rnd = run_and_check(
                &inst,
                &ab,
                o1,
                &q,
                Delivery::Random {
                    seed,
                    max_latency: 7,
                },
            );
            assert_eq!(rnd.answers, fifo.answers, "seed {seed}");
            assert!(rnd.termination_detected);
        }
    }

    #[test]
    fn empty_answer_set_still_terminates() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "c.c").unwrap();
        let res = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);
        assert!(res.answers.is_empty());
        assert!(res.termination_detected);
        assert_eq!(res.stats.answers, 0);
    }

    #[test]
    fn epsilon_query_answers_source() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "()").unwrap();
        let res = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);
        assert_eq!(res.answers, vec![o1]);
    }

    #[test]
    fn cyclic_graph_star_query_terminates() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("x", "a", "y");
        b.edge("y", "a", "z");
        b.edge("z", "a", "x");
        let (inst, names) = b.finish();
        let q = parse_regex(&mut ab, "a*").unwrap();
        let res = run_and_check(&inst, &ab, names["x"], &q, Delivery::Fifo);
        assert_eq!(res.answers.len(), 3);
    }

    #[test]
    fn trace_renders_like_fig3() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo);
        let client = sim.client;
        let res = sim.run(o1, &q);
        let rendered = render_trace(&res.trace, &ab, &inst, client);
        assert!(rendered.contains("subquery("));
        assert!(rendered.contains("answer("));
        assert!(rendered.contains("done("));
        assert!(rendered.contains("akn("));
        assert!(rendered.contains("d, o1, d"));
    }

    #[test]
    fn rewrite_hook_reduces_messages() {
        // a site-local cache: the query (a.b)* is materialized as l-edges
        // from o1; the hook rewrites (a.b)* → l + () at o1 only.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "a", "o4");
        b.edge("o4", "b", "o5");
        // cache edges for (a.b)* at o1: answers are o1 (ε), o3, o5
        b.edge("o1", "l", "o3");
        b.edge("o1", "l", "o5");
        let (inst, names) = b.finish();
        let o1 = names["o1"];
        let q = parse_regex(&mut ab, "(a.b)*").unwrap();
        let rewritten = parse_regex(&mut ab, "l + ()").unwrap();

        let plain = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);

        let q2 = q.clone();
        let hook = move |site: SiteId, incoming: &Regex| -> Regex {
            if site == o1.0 && incoming == &q2 {
                rewritten.clone()
            } else {
                incoming.clone()
            }
        };
        let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo).with_rewrite(hook);
        let optimized = sim.run(o1, &q);
        assert_eq!(optimized.answers, plain.answers);
        assert!(
            optimized.stats.total() < plain.stats.total(),
            "optimized {} vs plain {}",
            optimized.stats.total(),
            plain.stats.total()
        );
    }
    #[test]
    fn apply_delta_absorbs_a_batch_without_resharding() {
        use rpq_graph::DeltaGraph;

        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let a = ab.get("a").unwrap();
        let b = ab.get("b").unwrap();

        // mirror the mutation in a DeltaGraph so the expected answers come
        // from the centralized view of the *same* post-delta graph
        let mut dg = DeltaGraph::from_instance(&inst);
        let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo);
        let before = sim.run(o1, &q);

        let o2 = inst.node_by_name("o2").unwrap();
        let o3 = inst.node_by_name("o3").unwrap();
        let mut delta = rpq_graph::EdgeDelta::new();
        delta.del(o2, b, o3).add(o3, a, o1);
        let applied_sim = sim.apply_delta(&delta);
        let applied_dg = dg.apply_delta(&delta);
        assert_eq!(applied_sim, applied_dg);

        let after = sim.run(o1, &q);
        let expected = rpq_core::eval_product_csr(&rpq_automata::Nfa::thompson(&q), &dg, o1);
        assert_eq!(after.answers, expected.answers);
        assert!(after.termination_detected);
        // the delta genuinely changed the answer set (o1 lost its a-edge)
        assert_ne!(after.answers, before.answers);
    }

    #[test]
    fn concurrent_queries_do_not_interfere() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q1 = parse_regex(&mut ab, "a.b*").unwrap();
        let q2 = parse_regex(&mut ab, "a").unwrap();
        let q3 = parse_regex(&mut ab, "b*").unwrap();
        let queries = vec![(o1, q1.clone()), (o1, q2.clone()), (o1, q3.clone())];
        let res = run_concurrent(&inst, &ab, &queries, Delivery::Fifo);
        assert_eq!(res.outcomes.len(), 3);
        for ((src, q), outcome) in queries.iter().zip(&res.outcomes) {
            assert!(outcome.termination_detected);
            let solo = rpq_core::eval_product(&rpq_automata::Nfa::thompson(q), &inst, *src);
            assert_eq!(outcome.answers, solo.answers, "{}", q.display(&ab));
        }
    }

    #[test]
    fn concurrent_identical_queries_duplicate_work() {
        // The destination field is the paper's "global query identifier":
        // two clients asking the same query are fully isolated, so the
        // aggregate message count equals the sum of solo runs.
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let solo = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);
        let both = run_concurrent(
            &inst,
            &ab,
            &[(o1, q.clone()), (o1, q.clone())],
            Delivery::Fifo,
        );
        assert_eq!(both.outcomes[0].answers, both.outcomes[1].answers);
        assert_eq!(both.stats.total(), 2 * solo.stats.total());
    }

    #[test]
    fn concurrent_under_random_delivery() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q1 = parse_regex(&mut ab, "a.b*").unwrap();
        let q2 = parse_regex(&mut ab, "(a+b)*").unwrap();
        for seed in 0..5 {
            let res = run_concurrent(
                &inst,
                &ab,
                &[(o1, q1.clone()), (o1, q2.clone())],
                Delivery::Random {
                    seed,
                    max_latency: 5,
                },
            );
            for outcome in &res.outcomes {
                assert!(outcome.termination_detected, "seed {seed}");
            }
            assert_eq!(res.outcomes[0].answers.len(), 2);
        }
    }
    #[test]
    fn simplify_hook_preserves_answers_and_shrinks_payloads() {
        // The unconditional algebraic simplifier is a valid per-site
        // rewrite hook (sound without any constraints); payload bytes can
        // only shrink because simplify never grows the expression.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..6 {
            b.edge(&format!("n{i}"), "a", &format!("n{}", i + 1));
            b.edge(&format!("n{i}"), "b", &format!("n{}", i + 1));
        }
        let (inst, names) = b.finish();
        let n0 = names["n0"];
        // a deliberately redundant query: (ε + a·a*)·(a+b)* = a*·(a+b)*…
        let q = parse_regex(&mut ab, "(() + a.a*).(a+b)*").unwrap();
        let plain = run_and_check(&inst, &ab, n0, &q, Delivery::Fifo);
        let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo)
            .with_rewrite(|_site, incoming| rpq_automata::simplify::simplify(incoming));
        let simplified = sim.run(n0, &q);
        assert_eq!(plain.answers, simplified.answers);
        assert!(
            simplified.stats.bytes <= plain.stats.bytes,
            "simplified {} vs plain {}",
            simplified.stats.bytes,
            plain.stats.bytes
        );
    }
}
