//! Optimizer end-to-end: every rewrite the planner selects preserves
//! answers on data where the constraints actually hold, and reduces
//! distributed message counts on cache workloads.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rpq::automata::{parse_regex, Alphabet, Nfa};
use rpq::constraints::ConstraintSet;
use rpq::core::{eval_product, ProductEngine};
use rpq::distributed::{Delivery, Simulator};
use rpq::graph::{CsrGraph, Instance, Oid};
use rpq::optimizer::{optimize, PlannedEngine};
use rpq_testkit::generators::web_graph;
use rpq_testkit::satisfy::{chase, Scope};

/// A web graph over `a`, `b` with the view `l = (a.b)*` added at its
/// source, and that set.
fn cached_instance(seed: u64, n: usize) -> (Alphabet, ConstraintSet, Instance, Oid) {
    let mut ab = Alphabet::new();
    let a = ab.intern("a");
    let b = ab.intern("b");
    let set = ConstraintSet::parse(&mut ab, ["l = (a.b)*"]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut inst, src) = web_graph(&mut rng, n, 2, &[a, b]);
    chase(&mut inst, &set, &Scope::Source(src), 1_000).unwrap();
    (ab, set, inst, src)
}

#[test]
fn cache_constraint_holds_on_generated_sites() {
    for seed in 0..8u64 {
        let (_, set, inst, src) = cached_instance(seed, 40);
        assert!(set.holds_at(&inst, src), "seed {seed}");
    }
}

#[test]
fn optimized_queries_agree_on_cached_sites() {
    let queries = ["(a.b)*", "a.(b.a)*.b", "(a.b)*.a"];
    for seed in 0..6u64 {
        let (mut ab, set, inst, src) = cached_instance(seed, 40);
        for qs in queries {
            let q = parse_regex(&mut ab, qs).unwrap();
            let opt = optimize(&set, &q, &ab);
            let before = eval_product(&Nfa::thompson(&q), &inst, src).answers;
            let after = eval_product(&Nfa::thompson(&opt.query), &inst, src).answers;
            assert_eq!(before, after, "seed {seed} query {qs} → {:?}", opt.applied);
        }
    }
}

#[test]
fn boundedness_rewrites_agree_on_conforming_data() {
    // data where cites.cites = cites holds: cites is transitively closed
    let mut ab = Alphabet::new();
    let cites = ab.intern("cites");
    let mut inst = Instance::new();
    let nodes: Vec<Oid> = (0..5).map(|_| inst.add_node()).collect();
    // a transitively closed citation graph: i cites j for all i < j, and
    // every cited paper "cites itself" (a mirror page), which makes
    // cites² = cites hold at the source: every 1-hop target is a 2-hop
    // target through its self-loop, and transitivity gives the converse.
    for i in 0..5 {
        for j in (i + 1)..5 {
            inst.add_edge(nodes[i], cites, nodes[j]);
        }
    }
    for &n in &nodes[1..] {
        inst.add_edge(n, cites, n);
    }
    let eq_set = ConstraintSet::parse(&mut ab, ["cites.cites = cites"]).unwrap();
    assert!(eq_set.holds_at(&inst, nodes[0]));
    let q = parse_regex(&mut ab, "cites*").unwrap();
    let opt = optimize(&eq_set, &q, &ab);
    assert!(opt.improved());
    let before = eval_product(&Nfa::thompson(&q), &inst, nodes[0]).answers;
    let after = eval_product(&Nfa::thompson(&opt.query), &inst, nodes[0]).answers;
    assert_eq!(before, after);
}

#[test]
fn distributed_cache_rewrite_saves_messages() {
    let (mut ab, set, inst, src) = cached_instance(3, 60);
    let q = parse_regex(&mut ab, "(a.b)*").unwrap();

    let plain = Simulator::new(&inst, &ab, Delivery::Fifo).run(src, &q);

    let planned = PlannedEngine::new(ProductEngine, set, ab.clone());
    let graph = CsrGraph::from(&inst);
    let src_id = src.0;
    let hook = |site, incoming: &rpq::automata::Regex| {
        if site == src_id {
            planned.rewrite(incoming, &graph)
        } else {
            incoming.clone()
        }
    };
    let optimized = Simulator::new(&inst, &ab, Delivery::Fifo)
        .with_rewrite(hook)
        .run(src, &q);

    assert_eq!(plain.answers, optimized.answers);
    assert!(
        optimized.stats.total() <= plain.stats.total(),
        "optimized {} vs plain {}",
        optimized.stats.total(),
        plain.stats.total()
    );
}
