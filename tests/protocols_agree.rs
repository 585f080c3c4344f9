//! Cross-protocol agreement: the Section 3.1 agent protocol, the Section 5
//! knowledge-carrying variant, and the related-work decomposition baseline
//! ([30]) all compute the same `p(o, I)` as the centralized engine — and
//! their message accounting satisfies the relations each design promises
//! (carrying never sends more messages than the base protocol;
//! decomposition always sends exactly two messages per site).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{Alphabet, Nfa, Symbol};
use rpq::core::eval_product;
use rpq::distributed::{
    run_and_check, run_carrying, run_decomposition_checked, Delivery, Partition,
};
use rpq_testkit::draw::random_setup;
use rpq_testkit::generators::random_graph;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_protocols_compute_the_same_answers(seed in 0u64..10_000) {
        let (ab, inst, src, q) = random_setup(seed, 7, 14, 3);
        let centralized = eval_product(&Nfa::thompson(&q), &inst, src).answers;

        let base = run_and_check(&inst, &ab, src, &q, Delivery::Fifo);
        prop_assert_eq!(&base.answers, &centralized);

        let carrying = run_carrying(&inst, &ab, src, &q);
        prop_assert_eq!(&carrying.answers, &centralized);
        prop_assert!(
            carrying.stats.total() <= base.stats.total(),
            "carrying must not send more messages: {} vs {}",
            carrying.stats.total(),
            base.stats.total()
        );

        for block in [1usize, 3] {
            let part = Partition::blocks(&inst, block);
            let dec = run_decomposition_checked(&inst, &ab, &part, src, &q);
            prop_assert_eq!(&dec.answers, &centralized);
            prop_assert_eq!(dec.messages, 2 * part.num_sites);
        }
    }

    #[test]
    fn concurrent_queries_match_solo_runs(seed in 0u64..5_000) {
        // Section 3.1's multi-query remark: per-query answers are exactly
        // the solo answers, and the aggregate message count is the sum
        // (the destination field isolates queries completely).
        let (ab, inst, src, q1) = random_setup(seed, 6, 12, 3);
        let (_, _, _, q2) = random_setup(seed.wrapping_add(1), 6, 12, 3);
        let solo1 = run_and_check(&inst, &ab, src, &q1, Delivery::Fifo);
        let solo2 = run_and_check(&inst, &ab, src, &q2, Delivery::Fifo);
        let both = rpq::distributed::run_concurrent(
            &inst,
            &ab,
            &[(src, q1.clone()), (src, q2.clone())],
            Delivery::Fifo,
        );
        prop_assert!(both.outcomes.iter().all(|o| o.termination_detected));
        prop_assert_eq!(&both.outcomes[0].answers, &solo1.answers);
        prop_assert_eq!(&both.outcomes[1].answers, &solo2.answers);
        prop_assert_eq!(
            both.stats.total(),
            solo1.stats.total() + solo2.stats.total()
        );
    }

    #[test]
    fn carrying_under_random_delivery_order_is_order_independent(seed in 0u64..2_000) {
        // The carrying protocol's skip decisions depend on message order,
        // but its *answers* must not.
        let (ab, inst, src, q) = random_setup(seed, 6, 12, 3);
        let centralized = eval_product(&Nfa::thompson(&q), &inst, src).answers;
        let res = run_carrying(&inst, &ab, src, &q);
        prop_assert_eq!(&res.answers, &centralized);
    }
}

#[test]
fn decomposition_partition_granularity_tradeoff() {
    // Finer partitions mean more messages but less wasted per-site work;
    // the extremes must bracket each other on a two-component graph.
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(77);
    let (inst, src) = random_graph(&mut rng, 24, 60, &syms);
    let mut ab = ab;
    let q = rpq::automata::parse_regex(&mut ab, "a.(b+c)*").unwrap();

    let fine = Partition::singletons(&inst);
    let coarse = Partition::blocks(&inst, 12);
    let rf = run_decomposition_checked(&inst, &ab, &fine, src, &q);
    let rc = run_decomposition_checked(&inst, &ab, &coarse, src, &q);
    assert_eq!(rf.answers, rc.answers);
    assert!(rf.messages > rc.messages);
}

#[test]
fn carrying_saves_on_cycle_heavy_graphs() {
    // Dense cyclic graphs maximize duplicate subqueries — the carrying
    // protocol's skip opportunity.
    let mut ab = Alphabet::new();
    let mut b = rpq::graph::InstanceBuilder::new(&mut ab);
    let n = 10usize;
    for i in 0..n {
        b.edge(&format!("v{i}"), "a", &format!("v{}", (i + 1) % n));
        b.edge(&format!("v{i}"), "a", &format!("v{}", (i + 2) % n));
    }
    let (inst, names) = b.finish();
    let src = names["v0"];
    let q = rpq::automata::parse_regex(&mut ab, "a*").unwrap();
    let base = run_and_check(&inst, &ab, src, &q, Delivery::Fifo);
    let carrying = run_carrying(&inst, &ab, src, &q);
    assert_eq!(base.answers, carrying.answers);
    assert!(carrying.skipped_spawns > 0);
    assert!(carrying.stats.total() < base.stats.total());
}
