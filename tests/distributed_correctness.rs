//! Distributed protocol correctness (Section 3.1): on arbitrary graphs and
//! queries, the protocol computes exactly `p(o, I)`, detects termination,
//! and maintains the message-accounting invariants (every answer acked,
//! every subquery eventually done).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{Alphabet, Nfa, Symbol};
use rpq::core::eval_product;
use rpq::distributed::{Delivery, Simulator};
use rpq_testkit::generators::random_graph;
use rpq_testkit::random::{random_regex, RegexGenConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn simulator_computes_p_o_i(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, src) = random_graph(&mut rng, 7, 14, &syms);
        let cfg = RegexGenConfig::new(syms);
        let q = random_regex(&mut rng, &cfg);
        let expected = eval_product(&Nfa::thompson(&q), &inst, src).answers;

        for delivery in [
            Delivery::Fifo,
            Delivery::Random { seed, max_latency: 5 },
        ] {
            let mut sim = Simulator::new(&inst, &ab, delivery);
            let res = sim.run(src, &q);
            prop_assert_eq!(&res.answers, &expected);
            prop_assert!(res.termination_detected);
            // invariants: answers acked 1:1; done per registered task's
            // parent + one per duplicate subquery = subqueries total
            prop_assert_eq!(res.stats.answers, res.stats.acks);
            prop_assert_eq!(res.stats.subqueries, res.stats.dones);
        }
    }

    #[test]
    fn dedup_bounds_tasks_by_quotients_times_sites(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, src) = random_graph(&mut rng, 6, 12, &syms);
        let cfg = RegexGenConfig::new(syms.clone());
        let q = random_regex(&mut rng, &cfg);
        let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo);
        let res = sim.run(src, &q);
        // the registered tasks are (site, quotient) pairs; quotients are
        // bounded by the derivative closure
        let closure = rpq::paper::DerivativeClosure::compute(&q, &syms, 4096).unwrap();
        prop_assert!(res.tasks_registered <= closure.len() * inst.num_nodes());
    }
}

#[test]
fn message_counts_deterministic_for_fixed_seed() {
    let mut ab = Alphabet::new();
    let (inst, _, o1) = rpq_testkit::generators::fig2_graph(&mut ab);
    let q = rpq::automata::parse_regex(&mut ab, "a.b*").unwrap();
    let run1 = Simulator::new(
        &inst,
        &ab,
        Delivery::Random {
            seed: 5,
            max_latency: 4,
        },
    )
    .run(o1, &q);
    let run2 = Simulator::new(
        &inst,
        &ab,
        Delivery::Random {
            seed: 5,
            max_latency: 4,
        },
    )
    .run(o1, &q);
    assert_eq!(run1.stats, run2.stats);
    assert_eq!(run1.trace.len(), run2.trace.len());
}

#[test]
fn rewrite_hook_preserves_answers_on_random_sites() {
    // install a hook that rewrites with a *sound* simplification everywhere:
    // the minimal-DFA regex (language-preserving, so valid at every site)
    use rpq::automata::{nfa_to_regex, Dfa, Regex};
    let ab = Alphabet::from_names(["a", "b"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let sigma = ab.len();
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, src) = random_graph(&mut rng, 6, 12, &syms);
        let cfg = RegexGenConfig::new(syms.clone());
        let q = random_regex(&mut rng, &cfg);
        let hook = move |_site, incoming: &Regex| -> Regex {
            let min = Dfa::from_nfa(&Nfa::thompson(incoming), sigma).minimize();
            let r = nfa_to_regex(&min.to_nfa());
            if r.size() < incoming.size() {
                r
            } else {
                incoming.clone()
            }
        };
        let plain = Simulator::new(&inst, &ab, Delivery::Fifo).run(src, &q);
        let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo).with_rewrite(hook);
        let rewritten = sim.run(src, &q);
        assert_eq!(plain.answers, rewritten.answers, "seed {seed}");
    }
}
