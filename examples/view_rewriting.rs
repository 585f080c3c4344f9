//! Answering path queries from cached views (Section 5's combination
//! search), end to end: extract caches, search total and partial covers,
//! verify them, and measure the distributed payoff.
//!
//! ```sh
//! cargo run --example view_rewriting
//! ```

use rpq::automata::{parse_regex, Alphabet, Regex};
use rpq::constraints::ConstraintSet;
use rpq::distributed::{run_and_check, Delivery, Simulator};
use rpq::optimizer::{rewrite_with_views, ViewKind};

fn main() {
    // Two caches at the source site: l1 materializes (a.b)*, l2 does (c.d)*.
    let mut ab = Alphabet::new();
    let set = ConstraintSet::parse(&mut ab, ["l1 = (a.b)*", "l2 = (c.d)*"]).unwrap();
    println!("caches found:");
    for d in set.caches() {
        println!("  {} = {}", ab.name(d.label), d.body.display(&ab));
    }

    // --- a total cover: both arms come from caches -------------------------
    let q = parse_regex(&mut ab, "a.(b.a)*.x + c.(d.c)*.y").unwrap();
    println!("\ntarget: {}", q.display(&ab));
    for r in rewrite_with_views(&set, &q, &ab) {
        println!(
            "  candidate: {:<24} kind={:?} uses={:?} proof={} score={}",
            format!("{}", r.query.display(&ab)),
            r.kind,
            r.uses.iter().map(|&s| ab.name(s)).collect::<Vec<_>>(),
            r.proof,
            r.cost.score()
        );
    }

    // --- a partial cover: one arm stays cache-free -------------------------
    let q2 = parse_regex(&mut ab, "a.(b.a)*.x + z.z").unwrap();
    println!("\ntarget: {}  (the z.z arm has no cache)", q2.display(&ab));
    let rs = rewrite_with_views(&set, &q2, &ab);
    let best = rs.first().expect("a partial cover");
    assert_eq!(best.kind, ViewKind::Partial);
    println!("  best: {}  (partial cover)", best.query.display(&ab));

    // --- the distributed payoff -------------------------------------------
    // Build a site where l1 really is the cache of (a.b)*: backbone plus
    // l1-edges to every (a.b)*-reachable node, then x-tails.
    let a = ab.get("a").unwrap();
    let b = ab.get("b").unwrap();
    let l1 = ab.get("l1").unwrap();
    let x = ab.get("x").unwrap();
    let mut inst = rpq::graph::Instance::new();
    let v0 = inst.add_named_node("v0");
    let mut prev = v0;
    let mut evens = vec![v0];
    for i in 1..=16 {
        let v = inst.add_named_node(&format!("v{i}"));
        inst.add_edge(prev, if i % 2 == 1 { a } else { b }, v);
        if i % 2 == 0 {
            evens.push(v);
        }
        prev = v;
    }
    for &e in &evens {
        inst.add_edge(v0, l1, e);
        let t = inst.add_node();
        inst.add_edge(e, x, t);
    }
    let site_set = ConstraintSet::parse(&mut ab, ["l1 = (a.b)*"]).unwrap();
    assert!(site_set.holds_at(&inst, v0), "cache constraint must hold");

    let q3 = parse_regex(&mut ab, "(a.b)*.x").unwrap();
    let rewriting = rewrite_with_views(&site_set, &q3, &ab)
        .into_iter()
        .next()
        .expect("view rewriting for (a.b)*.x");
    println!(
        "\ndistributed run of {}   vs   rewritten {}:",
        q3.display(&ab),
        rewriting.query.display(&ab)
    );

    let plain = run_and_check(&inst, &ab, v0, &q3, Delivery::Fifo);
    let src = v0.0;
    let q3c = q3.clone();
    let rq = rewriting.query.clone();
    let hook = move |site: u32, incoming: &Regex| -> Regex {
        if site == src && incoming == &q3c {
            rq.clone()
        } else {
            incoming.clone()
        }
    };
    let mut sim = Simulator::new(&inst, &ab, Delivery::Fifo).with_rewrite(hook);
    let optimized = sim.run(v0, &q3);
    assert_eq!(optimized.answers, plain.answers);
    println!(
        "  plain:     {:>4} messages / {:>6} bytes",
        plain.stats.total(),
        plain.stats.bytes
    );
    println!(
        "  optimized: {:>4} messages / {:>6} bytes   ({}% fewer messages)",
        optimized.stats.total(),
        optimized.stats.bytes,
        100 * (plain.stats.total() - optimized.stats.total()) / plain.stats.total()
    );
}
