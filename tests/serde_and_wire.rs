//! Wire round trips: the distributed simulator's hand-written `bytes`
//! codec for messages, checked by structural equality on re-decoded
//! values, and the alphabet's index rebuild. No serde: the vendored
//! `serde` is a no-op, and no type of the workspace derives its traits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{Alphabet, Symbol};
use rpq::distributed::message::{codec, Message, Mid};
use rpq_testkit::random::{random_regex, RegexGenConfig};

#[test]
fn message_codec_round_trips_random_queries() {
    let ab0 = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab0.symbols().collect();
    let cfg = RegexGenConfig::new(syms);
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_regex(&mut rng, &cfg);
        let msg = Message::Subquery {
            mid: Mid(seed as u32, 1),
            sender: 1,
            receiver: 2,
            destination: 0,
            query: q.clone(),
        };
        let bytes = codec::encode(&msg, &ab0);
        let mut ab = ab0.clone();
        let back = codec::decode(bytes, &mut ab).expect("decodes");
        assert_eq!(msg, back, "seed {seed}");
    }
}

#[test]
fn codec_byte_sizes_track_query_size() {
    let mut ab = Alphabet::new();
    let small = rpq::automata::parse_regex(&mut ab, "a").unwrap();
    let big = rpq::automata::parse_regex(&mut ab, "(a.b.c.d.e)*.(f+g+h)*").unwrap();
    let m = |q| Message::Subquery {
        mid: Mid(0, 1),
        sender: 0,
        receiver: 1,
        destination: 0,
        query: q,
    };
    let s1 = codec::encode(&m(small), &ab).len();
    let s2 = codec::encode(&m(big), &ab).len();
    assert!(s2 > s1, "bigger queries cost more bytes on the wire");
}

#[test]
fn control_messages_have_fixed_size() {
    let ab = Alphabet::new();
    let done = Message::Done {
        mid: Mid(7, 9),
        sender: 1,
        receiver: 2,
    };
    let ack = Message::Ack {
        mid: Mid(7, 9),
        sender: 1,
        receiver: 2,
    };
    let ans = Message::Answer {
        mid: Mid(7, 9),
        sender: 1,
        receiver: 2,
    };
    let sd = codec::encode(&done, &ab).len();
    let sa = codec::encode(&ack, &ab).len();
    let sn = codec::encode(&ans, &ab).len();
    assert_eq!(sd, sa);
    assert_eq!(sd, sn);
    assert!(sd <= 20, "control messages stay tiny: {sd} bytes");
}

#[test]
fn instance_survives_alphabet_index_rebuild() {
    // rebuild_index recomputes the reverse index from the names.
    let mut ab = Alphabet::from_names(["x", "y"]);
    let before = ab.get("y");
    ab.rebuild_index();
    assert_eq!(ab.get("y"), before);
}
