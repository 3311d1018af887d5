//! `kbench`: one end-to-end CATS benchmark over loopback TCP, the in-process
//! network and the deterministic simulation, with a per-layer budget. See
//! `benchmark/README.md` and the repository's `BENCHMARK.json`.
//!
//! ```text
//! kbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! kbench run    [--seed <n>] [--seconds <s>]    every workload, end-to-end metrics
//! kbench trace  [--seed <n>] [--seconds <s>]    every workload, per-layer metrics and budgets
//! kbench repeat [--seed <n>] [--seconds <s>]    `run` twice, compared against the bounds
//! kbench manifest                               prints BENCHMARK.json
//! ```

mod api;
mod load;
mod metrics;
mod probes;
mod proc;
mod request;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use metrics::{parse_result, Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

#[global_allocator]
static ALLOCATOR: proc::CountingAllocator = proc::CountingAllocator;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(1.0..=60.0).contains(&parsed.seconds) {
                    return Err(bad("between 1 and 60"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// One run of one workload in this process.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let request = |w| {
        if trace {
            request::trace(w, seed, seconds)
        } else {
            request::run(w, seed, seconds)
        }
    };
    Ok(match workload {
        "tcp_small" => request(&request::TCP_SMALL),
        "tcp_large" => request(&request::TCP_LARGE),
        "local_small" => request(&request::LOCAL_SMALL),
        "sim_churn" if trace => sim::trace(seed),
        "sim_churn" => sim::run(seed, seconds),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn environment() {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    eprintln!(
        "environment: {threads} hardware threads; kernel {}; {rustc}; loopback only",
        read("/proc/sys/kernel/osrelease").trim(),
    );
}

/// Runs one workload in a child process, so that its peak memory is its own,
/// and returns its metrics.
fn child(workload: &str, args: &Args, trace: bool) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let (correct, _, _, metrics) = parse_result(line).ok_or(format!(
        "{workload}: no result line (exit {})",
        output.status
    ))?;
    if !correct || !output.status.success() {
        return Err(format!("{workload}: the run did not verify"));
    }
    Ok(metrics)
}

/// Every workload once; returns workload → metric → value.
fn suite(
    args: &Args,
    trace: bool,
) -> Result<BTreeMap<&'static str, BTreeMap<String, f64>>, String> {
    environment();
    eprintln!(
        "seed {}; {} s measured per workload",
        args.seed, args.seconds
    );
    let mut all = BTreeMap::new();
    for w in &WORKLOADS {
        all.insert(w.name, child(w.name, args, trace)?);
    }
    Ok(all)
}

fn summary_json(all: &BTreeMap<&'static str, BTreeMap<String, f64>>, args: &Args) -> String {
    let mut s = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{",
        args.seed, args.seconds
    );
    for (i, (w, metrics)) in all.iter().enumerate() {
        s.push_str(if i == 0 { "" } else { ", " });
        s.push_str(&format!("\"{w}\": {{"));
        for (j, (name, value)) in metrics.iter().enumerate() {
            s.push_str(if j == 0 { "" } else { ", " });
            s.push_str(&format!("\"{name}\": {value}"));
        }
        s.push('}');
    }
    // This benchmark measures; it claims no gain.
    s.push_str("}, \"claim\": null}");
    s
}

/// `run` twice on the same code and seed; every pair of medians must agree
/// within the metric's bound.
fn repeat(args: &Args) -> Result<bool, String> {
    let first = suite(args, false)?;
    let second = suite(args, false)?;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    let mut agree = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (first[w.name][m.name], second[w.name][m.name]);
            // Positive when the second run is worse than the first.
            let worse = if m.higher_is_better { a - b } else { b - a } / a;
            let ok = worse.abs() <= m.bound;
            agree &= ok;
            println!(
                "{:<12} {:<16} {:>14.3} {:>14.3} {:>+9.2} {:>7.0}  {}",
                w.name,
                m.name,
                a,
                b,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "repeat" | "manifest")) => (c, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    if command == "manifest" {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        "one" => {
            let Some(workload) = &args.workload else {
                eprintln!("kbench: --workload is required (or: run | trace | repeat | manifest)");
                return ExitCode::from(2);
            };
            run_one(workload, args.seed, args.seconds, args.trace).map(|out| {
                let defs: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
                out.print(workload, defs);
                println!("{}", out.to_json(defs));
                out.correct()
            })
        }
        "repeat" => repeat(&args),
        _ => suite(&args, command == "trace").map(|all| {
            println!("{}", summary_json(&all, &args));
            true
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("kbench: {e}");
            ExitCode::FAILURE
        }
    }
}
