//! Command line of the benchmark. The driver's contract is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; `--smoke`
//! and `--aa N` are for people.

use std::path::PathBuf;
use std::process::ExitCode;

use bench_e2e::harness::{prepare, run_untraced, Env, Outcome, Window};
use bench_e2e::names::{END_TO_END, PER_LAYER};
use bench_e2e::replay::run_traced;
use bench_e2e::sched::Workload;
use bench_e2e::{aa, result_line};

const USAGE: &str = "usage:
  bench_e2e --workload <nav-point|kernel-scan|plan-cold|churn-mixed> --seed <n> --seconds <s> --trace <0|1>
  bench_e2e --smoke [--seed <n>]
  bench_e2e --aa <N> [--seconds <s>] [--seed <base>] [--contended]
options:
  --trace-dir <dir>   where a traced run writes <workload>.json (default bench_e2e/target/trace)";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    contended: bool,
    spin: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: 22,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => args.smoke = true,
            "--aa" => {
                args.aa = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            "--contended" => args.contended = true,
            "--spin" => args.spin = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn report(outcome: &Outcome) {
    for note in &outcome.notes {
        eprintln!("{note}");
    }
}

fn trace_file(args: &Args, workload: Workload) -> PathBuf {
    args.trace_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("bench_e2e/target/trace"))
        .join(format!("{}.json", workload.name()))
}

/// All workloads, a few passes each, oracle checks on, both the untraced
/// and the traced path: a cheap end-to-end exercise of the harness.
fn smoke(args: &Args) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        let env = Env::new(workload, args.seed);
        let prepared = prepare(&env, Window::Passes(3));
        let plain = run_untraced(&env, &prepared, Window::Passes(3));
        let traced = run_traced(
            &env,
            &prepared,
            Window::Passes(1),
            &trace_file(args, workload),
        );
        for outcome in [&plain, &traced] {
            report(outcome);
            ok &= outcome.correct;
        }
        println!("{}", result_line(&plain, &END_TO_END));
        println!("{}", result_line(&traced, &PER_LAYER));
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.spin {
        aa::spin();
    }
    if args.smoke {
        return if smoke(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if let Some(n) = args.aa {
        if n < 2 {
            eprintln!("--aa needs at least 2 runs per set");
            return ExitCode::from(2);
        }
        return match aa::run(n, args.seconds, args.seed, args.contended) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("aa: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.as_deref().and_then(Workload::parse) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let env = Env::new(workload, args.seed);
    let window = Window::Seconds(args.seconds as f64);
    let prepared = prepare(&env, window);
    let (outcome, declared) = if args.trace {
        (
            run_traced(&env, &prepared, window, &trace_file(&args, workload)),
            &PER_LAYER[..],
        )
    } else {
        (run_untraced(&env, &prepared, window), &END_TO_END[..])
    };
    report(&outcome);
    println!("schedule_hash {:016x}", outcome.schedule_hash);
    println!("{}", result_line(&outcome, declared));
    // A run whose outputs were wrong still prints its result line (with
    // the failures counted), and says so with its exit code.
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
