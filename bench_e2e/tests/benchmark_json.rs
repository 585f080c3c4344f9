//! `BENCHMARK.json` and the binary must name the same things: the binary
//! prints metrics from `names.rs`, the driver reads them by the names in
//! `BENCHMARK.json`, and a name that drifts is a metric silently lost.

use bench_e2e::names::{class_latency_name, Metric, END_TO_END, PER_LAYER};
use bench_e2e::sched::{Class, Workload};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The text of the array stored under top-level key `key`.
fn array_of<'a>(doc: &'a str, key: &str) -> &'a str {
    let start = doc
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} array in BENCHMARK.json"));
    let body = &doc[start..];
    let end = body
        .find("\n  ]")
        .expect("array closes at top-level indent");
    &body[..end]
}

/// Every string value stored under `field` in `text`, in order.
fn strings_of(text: &str, field: &str) -> Vec<String> {
    let key = format!("\"{field}\": \"");
    text.match_indices(&key)
        .map(|(at, _)| {
            let rest = &text[at + key.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn numbers_of(text: &str, field: &str) -> Vec<f64> {
    let key = format!("\"{field}\": ");
    text.match_indices(&key)
        .map(|(at, _)| {
            let rest = &text[at + key.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .expect("number ends");
            rest[..end].parse().expect("a number")
        })
        .collect()
}

fn declared(metrics: &[Metric]) -> (Vec<&str>, Vec<&str>, Vec<&str>) {
    (
        metrics.iter().map(|m| m.name).collect(),
        metrics.iter().map(|m| m.unit).collect(),
        metrics.iter().map(|m| m.better).collect(),
    )
}

#[test]
fn names_units_and_bounds_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads = strings_of(array_of(&doc, "workloads"), "name");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for (key, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let section = array_of(&doc, key);
        let (names, units, better) = declared(metrics);
        assert_eq!(strings_of(section, "name"), names, "{key} names");
        assert_eq!(strings_of(section, "unit"), units, "{key} units");
        assert_eq!(strings_of(section, "better"), better, "{key} better");
    }
    let bounds: Vec<f64> = END_TO_END.iter().map(|m| m.bound).collect();
    assert_eq!(numbers_of(array_of(&doc, "end_to_end"), "bound"), bounds);
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let mut seen = std::collections::BTreeSet::new();
    let workloads = Workload::ALL.iter().map(|w| w.name());
    let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name);
    for name in workloads.chain(metrics) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}",
            m.unit
        );
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
}

#[test]
fn every_class_has_a_declared_latency_metric() {
    for class in Class::ALL {
        let name = class_latency_name(class);
        assert!(name.ends_with(class.name()));
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
    }
}

#[test]
fn every_traced_span_reports_into_a_declared_metric() {
    use bench_e2e::names::{SPAN_SELF_METRIC, SPAN_TOTAL_METRIC};
    for (_, metric) in SPAN_SELF_METRIC.iter().chain(&SPAN_TOTAL_METRIC) {
        assert!(PER_LAYER.iter().any(|m| m.name == *metric), "{metric}");
    }
}
