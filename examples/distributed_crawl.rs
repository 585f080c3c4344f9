//! The distributed evaluation scenario of Section 3.1, reproducing the
//! Figure 2 graph and a Figure-3-style message trace, then scaling up to a
//! synthetic web graph checked against the centralized evaluation.
//!
//! ```sh
//! cargo run --example distributed_crawl
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rpq::automata::{parse_regex, Alphabet};
use rpq::distributed::{render_trace, run_and_check, Delivery, Simulator};
use rpq_testkit::generators::{fig2_graph, web_graph};

fn main() {
    // --- Figures 2 & 3 ----------------------------------------------------
    let mut ab = Alphabet::new();
    let (inst, _d, o1) = fig2_graph(&mut ab);
    let q = parse_regex(&mut ab, "a.b*").unwrap();

    println!("== Figure 2 graph, query ab* asked by d at o1 ==");
    let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo);
    let client = sim.client;
    let res = sim.run(o1, &q);
    print!("{}", render_trace(&res.trace, &ab, &inst, client));
    println!(
        "answers: {:?}",
        res.answers
            .iter()
            .map(|&o| inst.node_name(o))
            .collect::<Vec<_>>()
    );
    println!(
        "messages: {} total ({} subquery / {} answer / {} done / {} akn), {} bytes",
        res.stats.total(),
        res.stats.subqueries,
        res.stats.answers,
        res.stats.dones,
        res.stats.acks,
        res.stats.bytes
    );
    println!(
        "termination detected by the protocol itself: {}\n",
        res.termination_detected
    );

    // --- asynchrony does not change the answer ----------------------------
    println!("== same run under random message latencies ==");
    for seed in [1, 2, 3] {
        let r = run_and_check(
            &inst,
            &ab,
            o1,
            &q,
            Delivery::Random {
                seed,
                max_latency: 9,
            },
        );
        println!(
            "seed {seed}: {} messages, answers {:?}",
            r.stats.total(),
            r.answers
                .iter()
                .map(|&o| inst.node_name(o))
                .collect::<Vec<_>>()
        );
    }

    // --- a larger crawl ----------------------------------------------------
    println!("\n== synthetic web, 200 sites, query l0.(l1+l2)* ==");
    let mut ab2 = Alphabet::new();
    let labels: Vec<_> = (0..3).map(|i| ab2.intern(&format!("l{i}"))).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let (web, src) = web_graph(&mut rng, 200, 2, &labels);
    let q2 = parse_regex(&mut ab2, "l0.(l1+l2)*").unwrap();
    let r = run_and_check(&web, &ab2, src, &q2, Delivery::Fifo);
    println!(
        "answers: {}   messages: {}   registered subquery tasks: {}",
        r.answers.len(),
        r.stats.total(),
        r.tasks_registered
    );
}
