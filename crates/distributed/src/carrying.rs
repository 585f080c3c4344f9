//! Agents that carry accumulated traversal knowledge — a Section 5 variant.
//!
//! The paper's conclusion lists "allowing software agents to carry along
//! information accumulated during their traversal of the graph" among the
//! problems its techniques should help with. This module implements the
//! natural version of that idea on top of the Section 3.1 protocol:
//! every `subquery` message additionally carries the set of
//! `(site, destination, subquery)` registrations its sender knows about.
//! A site merges the carried knowledge into its own, and — the payoff —
//! **skips spawning** a subquery whose target registration is already
//! known, instead of spawning it and letting the target's dedup answer
//! `done`.
//!
//! Every skipped spawn saves two messages (the `subquery` and its
//! immediate `done`) at the price of larger subquery payloads: the classic
//! messages-versus-bytes trade, quantified by bench
//! `t9_protocol_comparison`. Correctness is unaffected: a registration is
//! carried only after the corresponding subquery was actually spawned
//! somewhere, the destination site receives every answer exactly as in the
//! base protocol, and the done/ack bookkeeping is untouched (skipped
//! spawns are simply never awaited). The tests check answers and
//! termination against the base protocol on the same graphs, and that the
//! message count never increases.

use std::collections::{HashMap, HashSet};

use rpq_automata::{Alphabet, Regex};
use rpq_graph::{Instance, Oid};
use rpq_paper::derivative::derivative;

use crate::message::{codec, Message, MessageKind, Mid, SiteId};
use crate::sim::MessageStats;

/// A registration the agent knows about: this `(site, destination, query)`
/// triple has been asked already.
pub type Registration = (SiteId, SiteId, Regex);

/// One carried message: the base protocol message plus (for subqueries)
/// the knowledge set.
#[derive(Clone, Debug)]
struct CarriedMessage {
    message: Message,
    carried: Vec<Registration>,
}

/// Result of a run of the carrying protocol.
#[derive(Clone, Debug)]
pub struct CarryingRunResult {
    /// Sorted answers at the initiator.
    pub answers: Vec<Oid>,
    /// Message accounting: `bytes` includes the carried payloads
    /// (12 bytes per registration plus the rendered query, mirroring the
    /// codec's field sizes).
    pub stats: MessageStats,
    /// Spawns skipped thanks to carried knowledge (each saves a
    /// subquery + done pair versus the base protocol).
    pub skipped_spawns: usize,
    /// Largest carried set on any message (payload growth measure).
    pub max_carried: usize,
}

struct CarrySite {
    id: SiteId,
    edges: Vec<(rpq_automata::Symbol, SiteId)>,
    /// Local registrations (same dedup as the base protocol).
    tasks: HashMap<(SiteId, Regex), Task>,
    waiting_index: HashMap<Mid, (SiteId, Regex)>,
    /// Everything this site knows to be registered somewhere.
    known: HashSet<Registration>,
    counter: u32,
    answers: Vec<SiteId>,
    root_done: bool,
    root_mid: Option<Mid>,
}

struct Task {
    parent: Option<(Mid, SiteId)>,
    waiting: Vec<Mid>,
    finished: bool,
}

impl CarrySite {
    fn new(id: SiteId, edges: Vec<(rpq_automata::Symbol, SiteId)>) -> CarrySite {
        CarrySite {
            id,
            edges,
            tasks: HashMap::new(),
            waiting_index: HashMap::new(),
            known: HashSet::new(),
            counter: 0,
            answers: Vec::new(),
            root_done: false,
            root_mid: None,
        }
    }

    fn fresh_mid(&mut self) -> Mid {
        self.counter += 1;
        Mid(self.id, self.counter)
    }

    fn handle(&mut self, msg: CarriedMessage, skipped: &mut usize) -> Vec<CarriedMessage> {
        match msg.message {
            Message::Subquery {
                mid,
                sender,
                destination,
                query,
                ..
            } => {
                self.known.extend(msg.carried.iter().cloned());
                self.on_subquery(mid, sender, destination, query, skipped)
            }
            Message::Answer { mid, sender, .. } => {
                if !self.answers.contains(&sender) {
                    self.answers.push(sender);
                }
                vec![CarriedMessage {
                    message: Message::Ack {
                        mid,
                        sender: self.id,
                        receiver: sender,
                    },
                    carried: Vec::new(),
                }]
            }
            Message::Done { mid, .. } => {
                if self.root_mid == Some(mid) {
                    self.root_done = true;
                    return Vec::new();
                }
                self.resolve(mid)
            }
            Message::Ack { mid, .. } => self.resolve(mid),
        }
    }

    fn on_subquery(
        &mut self,
        mid: Mid,
        sender: SiteId,
        destination: SiteId,
        query: Regex,
        skipped: &mut usize,
    ) -> Vec<CarriedMessage> {
        let key = (destination, query.clone());
        self.known.insert((self.id, destination, query.clone()));
        if self.tasks.contains_key(&key) {
            return vec![CarriedMessage {
                message: Message::Done {
                    mid,
                    sender: self.id,
                    receiver: sender,
                },
                carried: Vec::new(),
            }];
        }

        let mut out = Vec::new();
        let mut waiting = Vec::new();

        if query.nullable() {
            let amid = self.fresh_mid();
            out.push(CarriedMessage {
                message: Message::Answer {
                    mid: amid,
                    sender: self.id,
                    receiver: destination,
                },
                carried: Vec::new(),
            });
            waiting.push(amid);
            self.waiting_index.insert(amid, key.clone());
        }

        for (label, neighbor) in self.edges.clone() {
            let quotient = derivative(&query, label);
            if quotient == Regex::Empty {
                continue;
            }
            let registration = (neighbor, destination, quotient.clone());
            if self.known.contains(&registration) {
                // The payoff: the target already has (or will get) this
                // registration — its reply would be an immediate done.
                *skipped += 1;
                continue;
            }
            self.known.insert(registration);
            let smid = self.fresh_mid();
            let carried: Vec<Registration> = self.known.iter().cloned().collect();
            out.push(CarriedMessage {
                message: Message::Subquery {
                    mid: smid,
                    sender: self.id,
                    receiver: neighbor,
                    destination,
                    query: quotient,
                },
                carried,
            });
            waiting.push(smid);
            self.waiting_index.insert(smid, key.clone());
        }

        if waiting.is_empty() {
            self.tasks.insert(
                key,
                Task {
                    parent: None,
                    waiting,
                    finished: true,
                },
            );
            out.push(CarriedMessage {
                message: Message::Done {
                    mid,
                    sender: self.id,
                    receiver: sender,
                },
                carried: Vec::new(),
            });
        } else {
            self.tasks.insert(
                key,
                Task {
                    parent: Some((mid, sender)),
                    waiting,
                    finished: false,
                },
            );
        }
        out
    }

    fn resolve(&mut self, mid: Mid) -> Vec<CarriedMessage> {
        let Some(key) = self.waiting_index.remove(&mid) else {
            return Vec::new();
        };
        let Some(task) = self.tasks.get_mut(&key) else {
            return Vec::new();
        };
        task.waiting.retain(|&m| m != mid);
        if task.waiting.is_empty() && !task.finished {
            task.finished = true;
            if let Some((pmid, parent)) = task.parent {
                return vec![CarriedMessage {
                    message: Message::Done {
                        mid: pmid,
                        sender: self.id,
                        receiver: parent,
                    },
                    carried: Vec::new(),
                }];
            }
        }
        Vec::new()
    }
}

/// Run the carrying protocol (FIFO delivery), asserting answers against
/// the centralized evaluation and termination at quiescence.
pub fn run_carrying(
    instance: &Instance,
    alphabet: &Alphabet,
    source: Oid,
    query: &Regex,
) -> CarryingRunResult {
    let mut sites: Vec<CarrySite> = instance
        .nodes()
        .map(|o| {
            CarrySite::new(
                o.0,
                instance
                    .out_edges(o)
                    .iter()
                    .map(|&(l, t)| (l, t.0))
                    .collect(),
            )
        })
        .collect();
    let client = instance.num_nodes() as SiteId;
    sites.push(CarrySite::new(client, Vec::new()));

    let mid = {
        let c = &mut sites[client as usize];
        let m = c.fresh_mid();
        c.root_mid = Some(m);
        m
    };
    let initial = CarriedMessage {
        message: Message::Subquery {
            mid,
            sender: client,
            receiver: source.0,
            destination: client,
            query: query.clone(),
        },
        carried: vec![(source.0, client, query.clone())],
    };

    let mut stats = MessageStats::default();
    let mut skipped = 0usize;
    let mut max_carried = 0usize;
    let mut queue: std::collections::VecDeque<CarriedMessage> = std::collections::VecDeque::new();
    let account = |m: &CarriedMessage, stats: &mut MessageStats, max_carried: &mut usize| {
        let base = codec::encode(&m.message, alphabet).len();
        let carried_bytes: usize = m
            .carried
            .iter()
            .map(|(_, _, q)| 12 + format!("{}", q.display(alphabet)).len())
            .sum();
        *max_carried = (*max_carried).max(m.carried.len());
        // record() is private to sim; mirror its bookkeeping here
        match m.message.kind() {
            MessageKind::Subquery => stats.subqueries += 1,
            MessageKind::Answer => stats.answers += 1,
            MessageKind::Done => stats.dones += 1,
            MessageKind::Ack => stats.acks += 1,
        }
        stats.bytes += base + carried_bytes;
    };
    account(&initial, &mut stats, &mut max_carried);
    queue.push_back(initial);

    while let Some(msg) = queue.pop_front() {
        let receiver = msg.message.receiver() as usize;
        for m in sites[receiver].handle(msg, &mut skipped) {
            account(&m, &mut stats, &mut max_carried);
            queue.push_back(m);
        }
    }

    let client_site = &sites[client as usize];
    assert!(
        client_site.root_done,
        "carrying protocol failed to detect termination"
    );
    let mut answers: Vec<Oid> = client_site.answers.iter().map(|&s| Oid(s)).collect();
    answers.sort();
    let centralized =
        rpq_core::eval_product(&rpq_automata::Nfa::thompson(query), instance, source).answers;
    assert_eq!(
        answers, centralized,
        "carrying protocol answers differ from centralized evaluation"
    );
    CarryingRunResult {
        answers,
        stats,
        skipped_spawns: skipped,
        max_carried,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_and_check, Delivery};
    use rpq_automata::parse_regex;
    use rpq_graph::InstanceBuilder;
    use rpq_testkit::generators::fig2_graph;

    #[test]
    fn fig2_answers_match_base_protocol() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let base = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);
        let carrying = run_carrying(&inst, &ab, o1, &q);
        assert_eq!(carrying.answers, base.answers);
    }

    #[test]
    fn skips_save_messages_on_cycles() {
        // Figure 2's b-cycle: the base protocol sends o3 → o2 a duplicate
        // b* subquery answered by an immediate done; carrying skips it.
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let base = run_and_check(&inst, &ab, o1, &q, Delivery::Fifo);
        let carrying = run_carrying(&inst, &ab, o1, &q);
        assert!(carrying.skipped_spawns >= 1);
        assert!(
            carrying.stats.total() < base.stats.total(),
            "carrying {} vs base {}",
            carrying.stats.total(),
            base.stats.total()
        );
    }

    #[test]
    fn message_count_never_increases() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        // dense-ish graph with shared suffixes
        for i in 0..8 {
            b.edge(&format!("n{i}"), "a", &format!("n{}", (i + 1) % 8));
            b.edge(&format!("n{i}"), "b", &format!("n{}", (i + 3) % 8));
        }
        let (inst, names) = b.finish();
        let n0 = names["n0"];
        for query in ["(a+b)*", "a.b*", "a*.b"] {
            let q = parse_regex(&mut ab, query).unwrap();
            let base = run_and_check(&inst, &ab, n0, &q, Delivery::Fifo);
            let carrying = run_carrying(&inst, &ab, n0, &q);
            assert_eq!(carrying.answers, base.answers, "{query}");
            assert!(
                carrying.stats.total() <= base.stats.total(),
                "{query}: carrying {} vs base {}",
                carrying.stats.total(),
                base.stats.total()
            );
        }
    }

    #[test]
    fn bytes_grow_with_carried_knowledge() {
        // On a cycle-heavy run the payloads grow even as message count
        // shrinks — the documented trade.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..6 {
            b.edge(&format!("c{i}"), "a", &format!("c{}", (i + 1) % 6));
        }
        let (inst, names) = b.finish();
        let q = parse_regex(&mut ab, "a*").unwrap();
        let carrying = run_carrying(&inst, &ab, names["c0"], &q);
        assert!(carrying.max_carried >= 2);
        assert!(carrying.stats.bytes > 0);
    }

    #[test]
    fn terminates_with_empty_answers() {
        let mut ab = Alphabet::new();
        let (inst, _, o1) = fig2_graph(&mut ab);
        let q = parse_regex(&mut ab, "z.z").unwrap();
        let res = run_carrying(&inst, &ab, o1, &q);
        assert!(res.answers.is_empty());
    }
}
