//! Per-site protocol state machine (Section 3.1).
//!
//! Each site keeps "a list of the subqueries it has been asked to perform".
//! On `subquery(m, s, r, d, q)`:
//!
//! * if `(d, q)` is already being processed or was processed, reply
//!   `done(m)` immediately (the dedup that guarantees termination);
//! * otherwise: if `ε ∈ L(q)`, send `answer` to `d` (awaiting its `akn`);
//!   for every outgoing edge `(r, l, r')` with a non-empty quotient `q/l`,
//!   spawn `subquery(q/l)` at `r'` (awaiting its `done`); when everything
//!   awaited has arrived, reply `done(m)` to `s`.
//!
//! Subqueries are deduplicated *structurally*: quotients are Brzozowski
//! derivatives of the normalized query regex, so equal subqueries compare
//! equal across different senders — exactly why `o2` can instantly answer
//! `o3`'s duplicate `b*` request in Figure 3.
//!
//! Each site holds its shard of the label-indexed [`rpq_graph::CsrGraph`]:
//! its out-row, sorted by `(Symbol, SiteId)`. Subquery fan-out walks the
//! row by *label group*, computing the quotient `q/l` once per distinct
//! label instead of once per edge — the site-local analogue of the
//! centralized engines' label-indexed step.

use std::collections::HashMap;

use rpq_automata::{Regex, Symbol};
use rpq_graph::{GraphView, Oid};
use rpq_paper::derivative::derivative;

use crate::message::{Message, Mid, SiteId};

/// A site's view of one registered subquery task.
#[derive(Clone, Debug)]
struct Task {
    /// Who asked first (we owe them a `done`), unless this is the root task.
    parent: Option<(Mid, SiteId)>,
    /// Message ids we are still awaiting (`done`s of spawned subqueries and
    /// `akn`s of our answers).
    waiting: Vec<Mid>,
    /// Completed (the `done` has been sent)?
    finished: bool,
}

/// The state machine of a single site.
#[derive(Debug)]
pub struct Site {
    /// This site's id.
    pub id: SiteId,
    /// Outgoing labeled edges (the site's page description) — this site's
    /// CSR shard, kept sorted by `(Symbol, SiteId)` so label groups are
    /// contiguous.
    pub edges: Vec<(Symbol, SiteId)>,
    /// Registered tasks keyed by (destination, subquery).
    tasks: HashMap<(SiteId, Regex), Task>,
    /// Which task each awaited mid belongs to.
    waiting_index: HashMap<Mid, (SiteId, Regex)>,
    /// Per-site message id counter.
    counter: u32,
    /// Answers received (meaningful on destination sites).
    pub answers: Vec<SiteId>,
    /// Set when the root task's `done` arrives (initiator only).
    pub root_done: bool,
    /// Root mid, when this site initiated a query.
    root_mid: Option<Mid>,
}

impl Site {
    /// A site with the given outgoing edges (sorted into label groups).
    pub fn new(id: SiteId, mut edges: Vec<(Symbol, SiteId)>) -> Site {
        edges.sort_unstable();
        Site {
            id,
            edges,
            tasks: HashMap::new(),
            waiting_index: HashMap::new(),
            counter: 0,
            answers: Vec::new(),
            root_done: false,
            root_mid: None,
        }
    }

    /// A site holding node `o`'s shard of **any** [`GraphView`] snapshot —
    /// e.g. a `rpq_graph::DeltaGraph` overlay, so a network can be stood up
    /// without first compacting to a CSR. Groups arrive label-ascending
    /// with ascending targets, so the shard is born sorted.
    pub fn from_view<G: GraphView>(graph: &G, o: Oid) -> Site {
        let edges = graph
            .out_groups(o)
            .flat_map(|(l, ts)| ts.map(move |t| (l, t.0)))
            .collect();
        Site::new(o.0, edges)
    }

    /// Absorb an edge batch into this site's shard **in place** — the
    /// site-local half of `Simulator::apply_delta` (no resharding, no
    /// row rebuild: sorted-row inserts and removals only). Returns the
    /// number of mutations that took effect.
    ///
    /// Protocol state (registered tasks, answers) refers to the *old*
    /// graph; callers that reuse the network for further queries should
    /// also call [`Site::reset_protocol`], as `Simulator::apply_delta`
    /// does.
    pub fn apply_delta(&mut self, adds: &[(Symbol, SiteId)], dels: &[(Symbol, SiteId)]) -> usize {
        let mut applied = 0;
        for &(l, t) in dels {
            if let Ok(pos) = self.edges.binary_search(&(l, t)) {
                self.edges.remove(pos);
                applied += 1;
            }
        }
        for &(l, t) in adds {
            if let Err(pos) = self.edges.binary_search(&(l, t)) {
                self.edges.insert(pos, (l, t));
                applied += 1;
            }
        }
        applied
    }

    /// Forget all protocol state (registered tasks, pending waits, answers,
    /// root bookkeeping) while keeping the edge shard: the dedup table keys
    /// `(destination, subquery)` against the graph the tasks ran over, so
    /// it must be dropped when the shard mutates or when a network is
    /// reused for a fresh run.
    pub fn reset_protocol(&mut self) {
        self.tasks.clear();
        self.waiting_index.clear();
        self.answers.clear();
        self.root_done = false;
        self.root_mid = None;
    }

    fn fresh_mid(&mut self) -> Mid {
        self.counter += 1;
        Mid(self.id, self.counter)
    }

    /// Initiate the evaluation of `query` at `target`, answers to self.
    /// Returns the message to send.
    pub fn initiate(&mut self, target: SiteId, query: Regex) -> Message {
        let mid = self.fresh_mid();
        self.root_mid = Some(mid);
        Message::Subquery {
            mid,
            sender: self.id,
            receiver: target,
            destination: self.id,
            query,
        }
    }

    /// Handle an incoming message, producing outgoing messages.
    pub fn handle(
        &mut self,
        msg: Message,
        rewrite: &dyn Fn(SiteId, &Regex) -> Regex,
    ) -> Vec<Message> {
        match msg {
            Message::Subquery {
                mid,
                sender,
                destination,
                query,
                ..
            } => self.on_subquery(mid, sender, destination, query, rewrite),
            Message::Answer { mid, sender, .. } => {
                // record and acknowledge
                if !self.answers.contains(&sender) {
                    self.answers.push(sender);
                }
                vec![Message::Ack {
                    mid,
                    sender: self.id,
                    receiver: sender,
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
        rewrite: &dyn Fn(SiteId, &Regex) -> Regex,
    ) -> Vec<Message> {
        // Local optimization hook (Section 3.2): replace the subquery by an
        // equivalent one using constraints that hold at this site.
        let query = rewrite(self.id, &query);
        let key = (destination, query.clone());
        if self.tasks.contains_key(&key) {
            // already processing or processed: immediate done
            return vec![Message::Done {
                mid,
                sender: self.id,
                receiver: sender,
            }];
        }

        let mut out = Vec::new();
        let mut waiting = Vec::new();

        if query.nullable() {
            let amid = self.fresh_mid();
            out.push(Message::Answer {
                mid: amid,
                sender: self.id,
                receiver: destination,
            });
            waiting.push(amid);
            self.waiting_index.insert(amid, key.clone());
        }

        // spawn quotient subqueries along distinct (label, neighbor) pairs;
        // the row is sorted, so each label group pays for one derivative.
        // Groups are walked by index — `fresh_mid` and the waiting-index
        // inserts mutate `self`, so a borrowed iterator over `self.edges`
        // would force a per-message clone of the shard.
        let mut lo = 0;
        while lo < self.edges.len() {
            let sym = self.edges[lo].0;
            let mut hi = lo + 1;
            while hi < self.edges.len() && self.edges[hi].0 == sym {
                hi += 1;
            }
            let quotient = derivative(&query, sym);
            if quotient != Regex::Empty {
                for idx in lo..hi {
                    let neighbor = self.edges[idx].1;
                    let smid = self.fresh_mid();
                    out.push(Message::Subquery {
                        mid: smid,
                        sender: self.id,
                        receiver: neighbor,
                        destination,
                        query: quotient.clone(),
                    });
                    waiting.push(smid);
                    self.waiting_index.insert(smid, key.clone());
                }
            }
            lo = hi;
        }

        if waiting.is_empty() {
            // nothing to do: immediately done
            self.tasks.insert(
                key,
                Task {
                    parent: None,
                    waiting,
                    finished: true,
                },
            );
            out.push(Message::Done {
                mid,
                sender: self.id,
                receiver: sender,
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

    /// A `done` or `akn` for `mid` arrived: clear it and complete the task
    /// if nothing else is awaited.
    fn resolve(&mut self, mid: Mid) -> Vec<Message> {
        let Some(key) = self.waiting_index.remove(&mid) else {
            return Vec::new(); // duplicate/stray
        };
        let Some(task) = self.tasks.get_mut(&key) else {
            return Vec::new();
        };
        task.waiting.retain(|&m| m != mid);
        if task.waiting.is_empty() && !task.finished {
            task.finished = true;
            if let Some((pmid, parent)) = task.parent {
                return vec![Message::Done {
                    mid: pmid,
                    sender: self.id,
                    receiver: parent,
                }];
            }
        }
        Vec::new()
    }

    /// Number of registered tasks (dedup effectiveness metric).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Are all registered tasks finished?
    pub fn all_finished(&self) -> bool {
        self.tasks.values().all(|t| t.finished)
    }
}

/// The identity rewrite hook (no local optimization).
pub fn no_rewrite(_site: SiteId, q: &Regex) -> Regex {
    q.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};

    #[test]
    fn duplicate_subquery_gets_immediate_done() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "b*").unwrap();
        let b = ab.get("b").unwrap();
        let mut site = Site::new(2, vec![(b, 3)]);
        let m1 = Message::Subquery {
            mid: Mid(1, 1),
            sender: 1,
            receiver: 2,
            destination: 0,
            query: q.clone(),
        };
        let out1 = site.handle(m1, &no_rewrite);
        // spawns an answer (b* is nullable) and a subquery to 3
        assert_eq!(out1.len(), 2);
        let m2 = Message::Subquery {
            mid: Mid(3, 9),
            sender: 3,
            receiver: 2,
            destination: 0,
            query: q,
        };
        let out2 = site.handle(m2, &no_rewrite);
        assert_eq!(out2.len(), 1);
        assert!(matches!(out2[0], Message::Done { mid: Mid(3, 9), .. }));
    }

    #[test]
    fn done_flows_up_after_all_children() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "b*").unwrap();
        let b = ab.get("b").unwrap();
        let mut site = Site::new(2, vec![(b, 3)]);
        let out = site.handle(
            Message::Subquery {
                mid: Mid(1, 1),
                sender: 1,
                receiver: 2,
                destination: 0,
                query: q,
            },
            &no_rewrite,
        );
        let amid = out
            .iter()
            .find_map(|m| match m {
                Message::Answer { mid, .. } => Some(*mid),
                _ => None,
            })
            .unwrap();
        let smid = out
            .iter()
            .find_map(|m| match m {
                Message::Subquery { mid, .. } => Some(*mid),
                _ => None,
            })
            .unwrap();
        // ack alone is not enough
        let o1 = site.handle(
            Message::Ack {
                mid: amid,
                sender: 0,
                receiver: 2,
            },
            &no_rewrite,
        );
        assert!(o1.is_empty());
        // child done completes the task
        let o2 = site.handle(
            Message::Done {
                mid: smid,
                sender: 3,
                receiver: 2,
            },
            &no_rewrite,
        );
        assert_eq!(o2.len(), 1);
        assert!(matches!(
            o2[0],
            Message::Done {
                mid: Mid(1, 1),
                receiver: 1,
                ..
            }
        ));
        assert!(site.all_finished());
    }

    #[test]
    fn dead_query_is_done_immediately() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "z").unwrap(); // no z edges anywhere
        let b = ab.intern("b");
        let mut site = Site::new(2, vec![(b, 3)]);
        let out = site.handle(
            Message::Subquery {
                mid: Mid(1, 4),
                sender: 1,
                receiver: 2,
                destination: 0,
                query: q,
            },
            &no_rewrite,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Message::Done { mid: Mid(1, 4), .. }));
    }

    #[test]
    fn answers_are_acked_and_deduped() {
        let mut site = Site::new(0, vec![]);
        let out = site.handle(
            Message::Answer {
                mid: Mid(5, 1),
                sender: 5,
                receiver: 0,
            },
            &no_rewrite,
        );
        assert!(matches!(
            out[0],
            Message::Ack {
                mid: Mid(5, 1),
                receiver: 5,
                ..
            }
        ));
        site.handle(
            Message::Answer {
                mid: Mid(5, 2),
                sender: 5,
                receiver: 0,
            },
            &no_rewrite,
        );
        assert_eq!(site.answers, vec![5]);
    }

    #[test]
    fn apply_delta_patches_the_shard_in_place() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let mut site = Site::new(1, vec![(a, 2), (b, 3)]);
        let applied = site.apply_delta(&[(a, 9), (a, 2)], &[(b, 3), (b, 7)]);
        assert_eq!(applied, 2, "duplicate add and missing del are no-ops");
        assert_eq!(site.edges, vec![(a, 2), (a, 9)]);
        assert!(site.edges.is_sorted());
    }

    #[test]
    fn reset_protocol_clears_dedup_but_keeps_the_shard() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "b*").unwrap();
        let b = ab.get("b").unwrap();
        let mut site = Site::new(2, vec![(b, 3)]);
        let msg = Message::Subquery {
            mid: Mid(1, 1),
            sender: 1,
            receiver: 2,
            destination: 0,
            query: q.clone(),
        };
        site.handle(msg.clone(), &no_rewrite);
        assert_eq!(site.task_count(), 1);
        site.reset_protocol();
        assert_eq!(site.task_count(), 0);
        assert_eq!(site.edges, vec![(b, 3)]);
        // the same subquery is processed afresh, not answered from dedup
        let out = site.handle(msg, &no_rewrite);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn rewrite_hook_is_applied() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a.a").unwrap();
        let simpler = parse_regex(&mut ab, "b").unwrap();
        let b = ab.get("b").unwrap();
        let mut site = Site::new(1, vec![(b, 2)]);
        let hook = move |_s: SiteId, incoming: &Regex| -> Regex {
            let _ = incoming;
            simpler.clone()
        };
        let out = site.handle(
            Message::Subquery {
                mid: Mid(0, 1),
                sender: 0,
                receiver: 1,
                destination: 0,
                query: q,
            },
            &hook,
        );
        // rewritten to `b`, which matches the b-edge: one subquery spawned
        assert!(out
            .iter()
            .any(|m| matches!(m, Message::Subquery { query, .. } if query == &Regex::Epsilon)));
    }
}
