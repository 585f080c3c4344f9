//! `bench_e2e` — the end-to-end serving benchmark of the rpq workspace.
//!
//! A standalone package (its own empty `[workspace]`): it drives
//! `rpq-server` from outside, through public functions only, and changes no
//! crate source. See `README.md` for what is measured and why.

pub mod aa;
pub mod clock;
pub mod gen;
pub mod harness;
pub mod names;
pub mod quiet;
pub mod replay;
pub mod sched;
pub mod stats;
pub mod trace;

use harness::Outcome;

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`; every metric by name with its
/// unit, values with all their digits.
pub fn result_line(outcome: &Outcome, declared: &[names::Metric]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|m| {
            let (_, value) = outcome
                .metrics
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    assert_eq!(
        metrics.len(),
        outcome.metrics.len(),
        "measured metrics and declared metrics differ"
    );
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
