//! Protocol messages (Section 3.1) and their wire encoding.
//!
//! "Communications between nodes consist in messages of the form:
//! `subquery(mid, sender, receiver, destination, q)`, `done(mid, sender,
//! receiver)`, `answer(mid, sender, receiver)`, `akn(mid, sender,
//! receiver)`." Message ids are unique per issuing site; subqueries carry
//! the *quotient* of the original query still left to evaluate, as a
//! normalized regular expression (so that sites can deduplicate subqueries
//! structurally). The [`codec`] gives a compact byte encoding used only for
//! realistic message-size accounting in the benches.

use rpq_automata::{Alphabet, Regex};

/// Site identity (the client site and every object are sites).
pub type SiteId = u32;

/// A globally unique message id: (issuing site, per-site counter).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mid(pub SiteId, pub u32);

impl std::fmt::Display for Mid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "*{}_{}", self.0, self.1)
    }
}

/// A protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Evaluate `query` at `receiver`; report answers to `destination`;
    /// send `done(mid)` back to `sender` when complete.
    Subquery {
        /// Unique id of this task.
        mid: Mid,
        /// The spawning site.
        sender: SiteId,
        /// The site asked to evaluate.
        receiver: SiteId,
        /// Where answers must be sent.
        destination: SiteId,
        /// The subquery still left to evaluate (a quotient of the original).
        query: Regex,
    },
    /// `sender` reports itself as an answer to `receiver` (the destination).
    Answer {
        /// Id to be acknowledged.
        mid: Mid,
        /// The answering site.
        sender: SiteId,
        /// The destination site.
        receiver: SiteId,
    },
    /// Subquery `mid` has been completed.
    Done {
        /// The id of the completed subquery.
        mid: Mid,
        /// The completing site.
        sender: SiteId,
        /// The site that spawned the subquery.
        receiver: SiteId,
    },
    /// Acknowledgment of answer `mid` (the paper's `akn`).
    Ack {
        /// The id of the acknowledged answer.
        mid: Mid,
        /// The acknowledging destination.
        sender: SiteId,
        /// The site that sent the answer.
        receiver: SiteId,
    },
}

impl Message {
    /// The site this message must be delivered to.
    pub fn receiver(&self) -> SiteId {
        match self {
            Message::Subquery { receiver, .. }
            | Message::Answer { receiver, .. }
            | Message::Done { receiver, .. }
            | Message::Ack { receiver, .. } => *receiver,
        }
    }

    /// Message kind as a short tag (for stats and traces).
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Subquery { .. } => MessageKind::Subquery,
            Message::Answer { .. } => MessageKind::Answer,
            Message::Done { .. } => MessageKind::Done,
            Message::Ack { .. } => MessageKind::Ack,
        }
    }

    /// Render like the paper's traces (Figure 3).
    pub fn render(&self, alphabet: &Alphabet, site_name: &dyn Fn(SiteId) -> String) -> String {
        match self {
            Message::Subquery {
                mid,
                sender,
                receiver,
                destination,
                query,
            } => format!(
                "subquery({mid}, {}, {}, {}, {})",
                site_name(*sender),
                site_name(*receiver),
                site_name(*destination),
                query.display(alphabet)
            ),
            Message::Answer {
                mid,
                sender,
                receiver,
            } => format!(
                "answer({mid}, {}, {})",
                site_name(*sender),
                site_name(*receiver)
            ),
            Message::Done {
                mid,
                sender,
                receiver,
            } => format!(
                "done({mid}, {}, {})",
                site_name(*sender),
                site_name(*receiver)
            ),
            Message::Ack {
                mid,
                sender,
                receiver,
            } => format!(
                "akn({mid}, {}, {})",
                site_name(*sender),
                site_name(*receiver)
            ),
        }
    }
}

/// Message kinds, for accounting.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// `subquery(…)`.
    Subquery,
    /// `answer(…)`.
    Answer,
    /// `done(…)`.
    Done,
    /// `akn(…)`.
    Ack,
}

/// Wire encoding (byte accounting for the benches; lossless round trip).
pub mod codec {
    use super::*;
    use bytes::{Buf, BufMut, Bytes, BytesMut};

    fn put_mid(buf: &mut BytesMut, mid: Mid) {
        buf.put_u32(mid.0);
        buf.put_u32(mid.1);
    }

    fn get_mid(buf: &mut Bytes) -> Mid {
        Mid(buf.get_u32(), buf.get_u32())
    }

    /// Encode a message; the regex payload is carried as its normalized
    /// rendering against `alphabet`.
    pub fn encode(msg: &Message, alphabet: &Alphabet) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        match msg {
            Message::Subquery {
                mid,
                sender,
                receiver,
                destination,
                query,
            } => {
                buf.put_u8(0);
                put_mid(&mut buf, *mid);
                buf.put_u32(*sender);
                buf.put_u32(*receiver);
                buf.put_u32(*destination);
                let q = format!("{}", query.display(alphabet));
                buf.put_u32(q.len() as u32);
                buf.put_slice(q.as_bytes());
            }
            Message::Answer {
                mid,
                sender,
                receiver,
            } => {
                buf.put_u8(1);
                put_mid(&mut buf, *mid);
                buf.put_u32(*sender);
                buf.put_u32(*receiver);
            }
            Message::Done {
                mid,
                sender,
                receiver,
            } => {
                buf.put_u8(2);
                put_mid(&mut buf, *mid);
                buf.put_u32(*sender);
                buf.put_u32(*receiver);
            }
            Message::Ack {
                mid,
                sender,
                receiver,
            } => {
                buf.put_u8(3);
                put_mid(&mut buf, *mid);
                buf.put_u32(*sender);
                buf.put_u32(*receiver);
            }
        }
        buf.freeze()
    }

    /// Decode a message (the regex is re-parsed against `alphabet`).
    pub fn decode(mut bytes: Bytes, alphabet: &mut Alphabet) -> Option<Message> {
        if bytes.remaining() < 1 {
            return None;
        }
        let tag = bytes.get_u8();
        let mid = get_mid(&mut bytes);
        let sender = bytes.get_u32();
        let receiver = bytes.get_u32();
        Some(match tag {
            0 => {
                let destination = bytes.get_u32();
                let len = bytes.get_u32() as usize;
                let q = std::str::from_utf8(&bytes.chunk()[..len]).ok()?.to_owned();
                let query = rpq_automata::parse_regex(alphabet, &q).ok()?;
                Message::Subquery {
                    mid,
                    sender,
                    receiver,
                    destination,
                    query,
                }
            }
            1 => Message::Answer {
                mid,
                sender,
                receiver,
            },
            2 => Message::Done {
                mid,
                sender,
                receiver,
            },
            3 => Message::Ack {
                mid,
                sender,
                receiver,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::parse_regex;

    #[test]
    fn codec_round_trips() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a.b* + c").unwrap();
        let msgs = vec![
            Message::Subquery {
                mid: Mid(3, 7),
                sender: 3,
                receiver: 5,
                destination: 0,
                query: q,
            },
            Message::Answer {
                mid: Mid(5, 1),
                sender: 5,
                receiver: 0,
            },
            Message::Done {
                mid: Mid(3, 7),
                sender: 5,
                receiver: 3,
            },
            Message::Ack {
                mid: Mid(5, 1),
                sender: 0,
                receiver: 5,
            },
        ];
        for m in msgs {
            let b = codec::encode(&m, &ab);
            let back = codec::decode(b, &mut ab).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn render_matches_paper_shape() {
        let mut ab = Alphabet::new();
        let q = parse_regex(&mut ab, "a.b*").unwrap();
        let m = Message::Subquery {
            mid: Mid(0, 1),
            sender: 0,
            receiver: 1,
            destination: 0,
            query: q,
        };
        let name = |s: SiteId| if s == 0 { "d".into() } else { format!("o{s}") };
        let r = m.render(&ab, &name);
        assert!(r.starts_with("subquery("));
        assert!(r.contains("d, o1, d"));
        assert!(r.contains("a.b*"));
    }

    #[test]
    fn kinds_and_receivers() {
        let m = Message::Done {
            mid: Mid(1, 1),
            sender: 2,
            receiver: 9,
        };
        assert_eq!(m.kind(), MessageKind::Done);
        assert_eq!(m.receiver(), 9);
    }
}
