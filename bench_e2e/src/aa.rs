//! `--aa N`: the A/A self-check. Runs every workload as two interleaved
//! sets of N child processes (A B A B …) of this same binary and asks
//! whether the benchmark agrees with itself: per workload × end-to-end
//! metric, the gap between the two sets' medians and each set's spread
//! (IQR ÷ median, with Python's `statistics.quantiles` quartiles) must
//! stay within the metric's bound. A_i and B_i share a seed, so their
//! counts must be *identical*; the N runs of a set use N different seeds,
//! so the spread includes what the seed changes.

use std::process::{Child, Command, Stdio};

use crate::names::END_TO_END;
use crate::sched::Workload;
use crate::stats::{iqr_frac, median};

/// The value of metric `name` in a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn run_child(workload: Workload, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    if !line.contains("\"correct\": true") {
        return Err(format!("child reported a failed run: {line}"));
    }
    Ok(line.to_string())
}

/// Burn one core until killed (the competitor of `--aa N --contended`).
pub fn spin() -> ! {
    let mut x = 0u64;
    loop {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
}

fn spawn_competitor() -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Command::new(exe)
        .arg("--spin")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| e.to_string())
}

/// Run the self-check and print its table; `Ok(true)` if every gap and
/// every spread is within its bound and same-seed counts are identical.
pub fn run(n: usize, seconds: u64, seed_base: u64, contended: bool) -> Result<bool, String> {
    let mut competitor = if contended {
        Some(spawn_competitor()?)
    } else {
        None
    };
    let collected = collect(n, seconds, seed_base);
    if let Some(child) = competitor.as_mut() {
        // The competitor never exits on its own: stop it and wait for it.
        child.kill().map_err(|e| e.to_string())?;
        child.wait().map_err(|e| e.to_string())?;
    }
    let sets = collected?;

    println!(
        "A/A self-check: {n} runs per set, {seconds} s windows, seeds {}..={}, {}",
        seed_base + 1,
        seed_base + n as u64,
        if contended {
            "beside a busy-loop competitor"
        } else {
            "quiet machine"
        }
    );
    println!(
        "| workload | metric | median A | median B | gap | IQR/med A | IQR/med B | bound | ok |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_ok = true;
    for (workload, a_lines, b_lines) in &sets {
        for m in &END_TO_END {
            let get = |lines: &[String]| -> Result<Vec<f64>, String> {
                lines
                    .iter()
                    .map(|l| {
                        metric_value(l, m.name).ok_or(format!("no {} in a result line", m.name))
                    })
                    .collect()
            };
            let (a, b) = (get(a_lines)?, get(b_lines)?);
            let (ma, mb) = (median(&a), median(&b));
            let gap = (mb - ma).abs() / ma.abs();
            let (sa, sb) = (iqr_frac(&a), iqr_frac(&b));
            // setup_s is exempt from the spread rule (its bound covers the
            // gap between medians only), as in the acceptance check.
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let identical = m.name != "edges_per_op" || a == b;
            let ok = gap <= m.bound && spread_ok && identical;
            all_ok &= ok;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.2} | {} |",
                workload.name(),
                m.name,
                ma,
                mb,
                gap,
                sa,
                sb,
                m.bound,
                if !identical {
                    "COUNTS DIFFER"
                } else if ok {
                    "yes"
                } else {
                    "NO"
                }
            );
        }
    }
    Ok(all_ok)
}

type Sets = Vec<(Workload, Vec<String>, Vec<String>)>;

fn collect(n: usize, seconds: u64, seed_base: u64) -> Result<Sets, String> {
    let mut sets: Sets = Workload::ALL
        .into_iter()
        .map(|w| (w, Vec::new(), Vec::new()))
        .collect();
    for i in 0..n {
        let seed = seed_base + 1 + i as u64;
        for (workload, a, b) in sets.iter_mut() {
            a.push(run_child(*workload, seed, seconds)?);
            b.push(run_child(*workload, seed, seconds)?);
            eprintln!("aa: {} seed {seed} done", workload.name());
        }
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_value_reads_our_own_result_line() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.1523, "unit": "s"}, "qps": {"value": 43210.5, "unit": "1/s"}}}"#;
        assert_eq!(metric_value(line, "setup_s"), Some(0.1523));
        assert_eq!(metric_value(line, "qps"), Some(43210.5));
        assert_eq!(metric_value(line, "lat_p50_us"), None);
    }
}
