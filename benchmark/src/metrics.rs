//! The benchmark's vocabulary: workloads, end-to-end and per-layer metric
//! definitions, the result of one run, and the JSON forms of both. The
//! tables here are the single source of `BENCHMARK.json` (`kbench manifest`
//! prints it; a unit test keeps the committed file equal to it).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::load::Totals;

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 25;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "tcp_small",
        why: "3 CATS nodes over loopback TCP, 95% get, 1 KiB values, 4096 zipf keys: per-message costs (dispatch, codec calls, syscalls, wake-ups) dominate",
    },
    WorkloadDef {
        name: "tcp_large",
        why: "same cluster, 50% put, 16 KiB values, 256 uniform keys: per-byte costs (copies, RLE attempt, vectored-write budget) dominate",
    },
    WorkloadDef {
        name: "local_small",
        why: "tcp_small's operation stream over the in-process network: no codec, no sockets, so only kompics-core and the CATS handlers are timed",
    },
    WorkloadDef {
        name: "sim_churn",
        why: "256 simulated peers under churn on the sequential scheduler (paper Table 1): DES, emulator and simulated timers do all the work",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` if a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    e2e(name, unit, higher, 0.0)
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("lat_p50_us", "us", false, 0.25),
    e2e("lat_tail_us", "us", false, 0.25),
    e2e("tput_ops_per_s", "ops/s", true, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.25),
];

/// One layer each. A metric that does not apply to a workload reads 0 there
/// (for example every `tcp.*` metric on `local_small`).
pub const PER_LAYER: [MetricDef; 64] = [
    // run validity and totals
    layer("run.fail_share", "ratio", false),
    layer("run.peak_rss_mib", "MiB", false),
    layer("lat_p99_us", "us", false),
    layer("loadgen.lateness_p99_us", "us", false),
    layer("loadgen.max_in_flight", "count", false),
    layer("closed.ops_per_s", "ops/s", true),
    // process
    layer("proc.cpu_us_per_op", "us", false),
    layer("proc.ctxsw_per_op", "count", false),
    layer("alloc.count_per_op", "count", false),
    layer("alloc.bytes_per_op", "B", false),
    // kompics-core
    layer("core.dispatch_ns", "ns", false),
    layer("core.pingpong_hop_ns", "ns", false),
    layer("sched.parks_per_op", "count", false),
    layer("sched.steal_hit_ratio", "ratio", true),
    layer("sched.handoffs_per_op", "count", false),
    layer("sched.overflows_per_op", "count", false),
    layer("sched.migrations_per_op", "count", false),
    // kompics-codec + kompics-network::registry
    layer("codec.encode_ns_per_op", "ns", false),
    layer("codec.decode_ns_per_op", "ns", false),
    layer("codec.wire_bytes_per_op", "B", false),
    // kompics-network::tcp
    layer("tcp.echo_rtt_p50_us", "us", false),
    layer("tcp.echo_rtt_p99_us", "us", false),
    layer("tcp.echo_msgs_per_s", "1/s", true),
    layer("tcp.connect_first_msg_ms", "ms", false),
    layer("tcp.msgs_per_op", "count", false),
    layer("tcp.bytes_per_op", "B", false),
    layer("tcp.syscalls_per_op", "count", false),
    layer("tcp.frames_per_syscall", "count", true),
    layer("tcp.borrowed_decode_ratio", "ratio", true),
    layer("tcp.outbound_dropped", "count", false),
    layer("tcp.read_pauses", "count", false),
    // kompics-network::local
    layer("localnet.hop_ns", "ns", false),
    // kompics-timer
    layer("timer.lateness_p50_us", "us", false),
    layer("timer.lateness_p99_us", "us", false),
    layer("timer.arm_cancel_ns", "ns", false),
    // cats
    layer("cats.get_p50_us", "us", false),
    layer("cats.get_p99_us", "us", false),
    layer("cats.put_p50_us", "us", false),
    layer("cats.put_p99_us", "us", false),
    layer("cats.converge_s", "s", false),
    layer("cats.preload_s", "s", false),
    // the stage budget of one operation at a time, from port taps
    layer("trace.ops", "count", true),
    layer("trace.e2e_us", "us", false),
    layer("trace.abd_coord_us", "us", false),
    layer("trace.abd_replica_us", "us", false),
    layer("trace.net_hop_us", "us", false),
    layer("trace.client_deliver_us", "us", false),
    layer("trace.residual_us", "us", false),
    layer("trace.overhead_pct", "%", false),
    // kompics-simulation
    layer("sim_compression", "sim-s/wall-s", true),
    layer("des.event_ns", "ns", false),
    layer("emulator.msg_ns", "ns", false),
    layer("simtimer.arm_fire_ns", "ns", false),
    layer("des.events_total", "count", false),
    layer("des.events_per_sim_s", "1/s", false),
    layer("des.events_per_s", "1/s", true),
    layer("sim.ops_issued", "count", true),
    layer("sim.ops_completed", "count", true),
    layer("sim.ops_orphaned", "count", false),
    layer("sim.boot_s", "s", false),
    layer("sim.history_hash", "count", false),
    layer("sim.repeat_identical", "count", true),
    layer("sim.joins", "count", true),
    layer("sim.fails", "count", true),
];

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run does not count, if it does not.
    pub faults: Vec<String>,
    /// Why the run's numbers deserve suspicion although its outputs verify.
    pub warnings: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&mut self, totals: Totals) {
        self.attempted += totals.attempted;
        self.failed += totals.failed + totals.wrong;
        if totals.wrong > 0 {
            self.invalid(format!("{} values failed verification", totals.wrong));
        }
    }

    /// Marks the run as not counting (a failed verification, a window too
    /// small for its percentile).
    pub fn invalid(&mut self, why: String) {
        self.faults.push(why);
    }

    /// Marks the measurement, not the program, as suspect (a generator that
    /// fell behind its schedule). The driver wants a result from every run,
    /// so the numbers are still reported; people see the mark on stderr.
    pub fn suspect(&mut self, why: String) {
        self.warnings.push(why);
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Verified, valid, and at most one operation in a thousand failed.
    pub fn correct(&self) -> bool {
        self.faults.is_empty() && self.attempted > 0 && self.fail_share() <= 0.001
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of `defs` (0 where the
    /// run did not produce one).
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(self.get(d.name)),
                d.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// A table for people, on stderr.
    pub fn print(&self, workload: &str, defs: &[MetricDef]) {
        eprintln!("── {workload} ──");
        for d in defs {
            eprintln!(
                "  {:<28} {:>16} {}",
                d.name,
                human(self.get(d.name)),
                d.unit
            );
        }
        eprintln!(
            "  attempted {}  failed {}  fail_share {:.6}",
            self.attempted,
            self.failed,
            self.fail_share()
        );
        for f in &self.faults {
            eprintln!("  INVALID: {f}");
        }
        for w in &self.warnings {
            eprintln!("  SUSPECT MEASUREMENT: {w}");
        }
    }
}

/// All digits of a finite value; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn human(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Reads back a result line written by [`Outcome::to_json`]: the three
/// totals and each metric's value. Only that shape is understood.
pub fn parse_result(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let after = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
    };
    let correct = after("correct")? == "true";
    let attempted = after("attempted")?.parse().ok()?;
    let failed = after("failed")?.parse().ok()?;
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let name_end = q + 1 + rest[q + 1..].find('"')?;
        let name = &rest[q + 1..name_end];
        let marker = "\"value\": ";
        let v_at = name_end + rest[name_end..].find(marker)? + marker.len();
        let v_end = v_at + rest[v_at..].find(',')?;
        metrics.insert(name.to_string(), rest[v_at..v_end].parse().ok()?);
        let close = v_end + rest[v_end..].find('}')? + 1;
        rest = &rest[close..];
    }
    Some((correct, attempted, failed, metrics))
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn better(m: &MetricDef) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} of {}",
                m.unit,
                m.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `kbench manifest`");
    }

    #[test]
    fn result_line_round_trips() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.8127);
        out.set("lat_p50_us", 412.25);
        out.set("tput_ops_per_s", 12345.678901);
        out.count(Totals {
            attempted: 1000,
            failed: 0,
            wrong: 0,
        });
        let line = out.to_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        let (correct, attempted, failed, metrics) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 0));
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["lat_p50_us"], 412.25);
        assert_eq!(metrics["tput_ops_per_s"], 12345.678901);
        assert_eq!(metrics["peak_rss_mib"], 0.0);
        out.invalid("late".into());
        assert!(out.to_json(&END_TO_END).starts_with("{\"correct\": false"));
    }
}
