//! Section 3.2 end-to-end: caching a recursive query as a single label and
//! letting the optimizer substitute it — the paper's Example 3 — with the
//! message savings measured on the distributed simulator.
//!
//! ```sh
//! cargo run --example cached_site
//! ```

use rpq::automata::{parse_regex, Alphabet, Nfa};
use rpq::constraints::general::Budget;
use rpq::constraints::ConstraintSet;
use rpq::core::ProductEngine;
use rpq::distributed::{Delivery, Simulator};
use rpq::graph::{CsrGraph, Instance};
use rpq::optimizer::{optimize, PlannedEngine};

fn main() {
    let mut ab = Alphabet::new();
    let a = ab.intern("a");
    let b = ab.intern("b");
    let cache_label = ab.intern("l");

    // A deep site: an alternating a/b backbone v0 -a→ v1 -b→ v2 -a→ …,
    // with an `a`-labeled dead-end branch at every even node (realistic
    // noise the recursive query must visit and abandon).
    let depth = 20usize; // backbone has 2·depth edges
    let mut inst = Instance::new();
    let v0 = inst.add_named_node("v0");
    let mut prev = v0;
    let mut evens = vec![v0];
    for i in 1..=2 * depth {
        let v = inst.add_named_node(&format!("v{i}"));
        inst.add_edge(prev, if i % 2 == 1 { a } else { b }, v);
        if i % 2 == 0 {
            evens.push(v);
            let trap = inst.add_node();
            inst.add_edge(v, a, trap);
        }
        prev = v;
    }
    // Materialize the cache: the answers of (a.b)* at v0 are exactly the
    // even backbone nodes, each given a direct l-edge. The path equality
    // l = (a.b)* then genuinely holds at v0.
    for &e in &evens {
        inst.add_edge(v0, cache_label, e);
    }
    let src = v0;
    let cached_query = parse_regex(&mut ab, "(a.b)*").unwrap();
    {
        // sanity: the constraint holds in the data
        let direct = rpq::core::eval_product(&Nfa::thompson(&cached_query), &inst, src).answers;
        let via_l = inst.word_targets(src, &[cache_label]);
        assert_eq!(direct, via_l);
    }
    println!(
        "site: {} nodes, {} edges; cache constraint l = (a.b)* holds at the source",
        inst.num_nodes(),
        inst.num_edges()
    );

    // --- the optimizer derives the paper's rewrites ------------------------
    let e = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
    // Example 3's shape: a(ba)*b = (ab)⁺ = (ab)*·(ab) → l.a.b
    let q3 = parse_regex(&mut ab, "a.(b.a)*.b").unwrap();
    let opt3 = optimize(&e, &q3, &ab, &Budget::default());
    println!(
        "query {} optimized to {} (rule {:?})",
        q3.display(&ab),
        opt3.query.display(&ab),
        opt3.applied
    );
    assert!(opt3.improved());

    // The full cache hit: the cached query itself becomes a single hop.
    let q = parse_regex(&mut ab, "(a.b)*").unwrap();
    let opt = optimize(&e, &q, &ab, &Budget::default());
    println!(
        "query {} optimized to {} (rule {:?})",
        q.display(&ab),
        opt.query.display(&ab),
        opt.applied
    );
    assert!(opt.improved());

    // --- distributed evaluation with and without the rewrite hook ----------
    let mut plain = Simulator::new(&inst, &ab, Delivery::Fifo);
    let before = plain.run(src, &q);

    let planned = PlannedEngine::new(ProductEngine, e.clone(), ab.clone());
    let graph = CsrGraph::from(&inst);
    let src_site = src.0;
    let hook = |site, incoming: &rpq::automata::Regex| {
        // the constraint holds at the source site only
        if site == src_site {
            planned.rewrite(incoming, &graph)
        } else {
            incoming.clone()
        }
    };
    let mut optimized = Simulator::new(&inst, &ab, Delivery::Fifo).with_rewrite(hook);
    let after = optimized.run(src, &q);

    assert_eq!(
        before.answers, after.answers,
        "rewrites must preserve answers"
    );
    println!(
        "distributed run: {} answers;  messages without rewrite: {} ({} bytes)",
        before.answers.len(),
        before.stats.total(),
        before.stats.bytes
    );
    println!(
        "                              messages with    rewrite: {} ({} bytes)",
        after.stats.total(),
        after.stats.bytes
    );
    let saved = before.stats.total() as f64 - after.stats.total() as f64;
    println!(
        "savings: {:.1}% of messages",
        100.0 * saved / before.stats.total() as f64
    );
    assert!(after.stats.total() < before.stats.total());
}
