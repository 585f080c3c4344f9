//! T9 — distributed protocol comparison: the Section 3.1 agent protocol,
//! the Section 5 knowledge-carrying variant, and the ship-query-once
//! decomposition baseline of the related work ([30]).
//!
//! Expected shapes: agent messages grow with the *reached* subgraph;
//! carrying sends strictly fewer messages on cyclic graphs (paying in
//! bytes); decomposition sends exactly `2·#sites` messages regardless of
//! reach but pays table-computation work for unreached regions. All three
//! produce identical answers (asserted every run).

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpq_automata::{parse_regex, Alphabet, Symbol};
use rpq_distributed::{
    run_and_check, run_carrying, run_decomposition_checked, Delivery, Partition, Simulator,
};
use rpq_graph::{Instance, Oid};
use rpq_testkit::generators::web_graph;

struct Workload {
    alphabet: Alphabet,
    instance: Instance,
    source: Oid,
    query: rpq_automata::Regex,
}

fn workload(nodes: usize) -> Workload {
    let mut alphabet = Alphabet::new();
    let labels: Vec<Symbol> = (0..2).map(|i| alphabet.intern(&format!("l{i}"))).collect();
    let mut rng = StdRng::seed_from_u64(0x79);
    let (instance, source) = web_graph(&mut rng, nodes, 3, &labels);
    let query = parse_regex(&mut alphabet, "l0.(l0+l1)*").unwrap();
    Workload {
        alphabet,
        instance,
        source,
        query,
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("t9_protocol_comparison");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(150));

    for &nodes in &[30usize, 120, 480] {
        let w = workload(nodes);
        let part = Partition::blocks(&w.instance, 8);

        // answers agree + series print (once per size)
        {
            let agent = run_and_check(&w.instance, &w.alphabet, w.source, &w.query, Delivery::Fifo);
            let carrying = run_carrying(&w.instance, &w.alphabet, w.source, &w.query);
            let dec =
                run_decomposition_checked(&w.instance, &w.alphabet, &part, w.source, &w.query);
            assert_eq!(agent.answers, carrying.answers);
            assert_eq!(agent.answers, dec.answers);
            eprintln!(
                "t9 nodes={nodes}: agent {} msgs/{} B | carrying {} msgs/{} B (skip {}) | decomposition {} msgs/{} B ({} entries)",
                agent.stats.total(),
                agent.stats.bytes,
                carrying.stats.total(),
                carrying.stats.bytes,
                carrying.skipped_spawns,
                dec.messages,
                dec.bytes,
                dec.table_entries
            );
        }

        group.bench_with_input(BenchmarkId::new("agent", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut sim = Simulator::new(&w.instance, &w.alphabet, Delivery::Fifo);
                black_box(sim.run(w.source, &w.query).stats.total())
            })
        });
        group.bench_with_input(BenchmarkId::new("carrying", nodes), &nodes, |b, _| {
            b.iter(|| {
                black_box(
                    run_carrying(&w.instance, &w.alphabet, w.source, &w.query)
                        .stats
                        .total(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("decomposition", nodes), &nodes, |b, _| {
            b.iter(|| {
                black_box(
                    rpq_distributed::run_decomposition(
                        &w.instance,
                        &w.alphabet,
                        &part,
                        w.source,
                        &w.query,
                    )
                    .messages,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
