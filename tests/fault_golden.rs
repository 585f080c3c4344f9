//! Golden fault reports: what `run_with_faults` observes, pinned per seed.
//!
//! One line per `(graph, drop %, duplicate %, affected kind, seed)`: every
//! field of the `FaultReport` the injector produced. Two graphs — Figure 2
//! under `a.b*` and a 12-node ring with chords under `a*.b.a*` — each
//! with `drop_percent` and `duplicate_percent` in {0, 10, 30}, the faults
//! restricted to no kind or to one `MessageKind`, and seeds 0..8. The
//! injector's draws (drop first, then duplicate, only for affected
//! kinds; the copy one tick later) decide every line, so a network loop
//! that reorders them fails here.
//!
//! Regenerate (only when a report is *meant* to move) with
//! `FAULT_GOLDEN_BLESS=1 cargo test --test fault_golden`.

use std::fmt::Write as _;

use rpq::automata::{parse_regex, Alphabet, Regex};
use rpq::distributed::{run_with_faults, Delivery, FaultPlan, MessageKind, Simulator};
use rpq::graph::{Instance, InstanceBuilder, Oid};
use rpq_testkit::generators::fig2_graph;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/fault_golden.txt"
);

const PERCENTS: [u32; 3] = [0, 10, 30];
const KINDS: [Option<MessageKind>; 5] = [
    None,
    Some(MessageKind::Subquery),
    Some(MessageKind::Answer),
    Some(MessageKind::Done),
    Some(MessageKind::Ack),
];

/// The two graphs of the sweep, each with its source and query.
fn graphs(ab: &mut Alphabet) -> Vec<(&'static str, Instance, Oid, Regex)> {
    let (fig2, _, o1) = fig2_graph(ab);
    let fig2_query = parse_regex(ab, "a.b*").unwrap();
    let mut b = InstanceBuilder::new(ab);
    for i in 0..12 {
        b.edge(&format!("n{i}"), "a", &format!("n{}", (i + 1) % 12));
        if i % 3 == 0 {
            b.edge(&format!("n{i}"), "b", &format!("n{}", (i + 5) % 12));
        }
    }
    let (ring, names) = b.finish();
    let ring_query = parse_regex(ab, "a*.b.a*").unwrap();
    vec![
        ("fig2", fig2, o1, fig2_query),
        ("ring12", ring, names["n0"], ring_query),
    ]
}

fn generate() -> String {
    let mut ab = Alphabet::new();
    let mut out = String::new();
    for (name, inst, source, query) in graphs(&mut ab) {
        for drop_percent in PERCENTS {
            for duplicate_percent in PERCENTS {
                for only_kind in KINDS {
                    for seed in 0..8 {
                        let plan = FaultPlan {
                            duplicate_percent,
                            drop_percent,
                            only_kind,
                            seed,
                        };
                        let r = run_with_faults(&inst, &ab, source, &query, &plan);
                        let answers: Vec<u32> = r.answers.iter().map(|o| o.0).collect();
                        writeln!(
                            out,
                            "{name} drop={drop_percent} dup={duplicate_percent} kind={only_kind:?} \
                             seed={seed} | answers={answers:?} complete={} terminated={} \
                             root_done={:?} last_answer={:?} premature={} dropped={} duplicated={}",
                            r.answers_complete,
                            r.terminated,
                            r.root_done_time,
                            r.last_answer_time,
                            r.premature_termination,
                            r.dropped,
                            r.duplicated,
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn fault_reports_match_the_golden_fixture() {
    let got = generate();
    if std::env::var_os("FAULT_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("tests/fixtures/fault_golden.txt");
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let diffs: Vec<String> = got_lines
        .iter()
        .zip(&want_lines)
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("line {}:\n  want {w}\n  got  {g}", i + 1))
        .collect();
    assert!(
        diffs.is_empty() && got_lines.len() == want_lines.len(),
        "{} of {} golden lines differ (got {} lines); first few:\n{}",
        diffs.len(),
        want_lines.len(),
        got_lines.len(),
        diffs[..diffs.len().min(8)].join("\n")
    );
}

/// An empty fault plan is the plain FIFO run: the same messages delivered
/// at the same times in the same order.
#[test]
fn no_fault_plan_delivers_the_fifo_trace() {
    let mut ab = Alphabet::new();
    for (name, inst, source, query) in graphs(&mut ab) {
        let faulty = run_with_faults(&inst, &ab, source, &query, &FaultPlan::default());
        let fifo = Simulator::new(&inst, &ab, Delivery::Fifo).run(source, &query);
        assert!(!faulty.trace.is_empty(), "{name}");
        assert_eq!(faulty.trace, fifo.trace, "{name}");
    }
}
