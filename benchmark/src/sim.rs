//! `sim_churn`: the paper's Table 1 as a workload. 256 CATS peers boot inside
//! one deterministic simulation, then serve 10 operations per simulated
//! second while one peer joins and one fails every 30 simulated seconds.
//! Only the discrete-event core, the network emulator, the simulated timers
//! and the sequential scheduler run; what is measured is how much simulated
//! time one wall-clock second buys.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::api::{
    check_linearizable, CatsExperiment, CatsOp, CatsSimulator, Component, EmulatorConfig,
    ExperimentOp, OpRecord, PortRef, RegisterOp, RingKey, Simulation,
};
use crate::metrics::Outcome;
use crate::stats::{median, quantile, tail_mean_us, Rng};
use crate::trace::{write_span_file, Span};
use crate::{api, probes, proc};

const PEERS: usize = 256;
const SEC: u64 = 1_000_000_000;
/// Peers join evenly over this much simulated time.
const BOOT: u64 = 120 * SEC;
/// One operation every 100 simulated ms.
const OP_EVERY: u64 = SEC / 10;
/// One join and, half a period later, one failure per period.
const CHURN_EVERY: u64 = 30 * SEC;
const GET_SHARE: f64 = 0.80;
const VALUE_BYTES: usize = 64;
const KEY_BITS: u32 = 14;
/// A peer serves clients once it has been up this long, and is not chosen to
/// fail before.
const SETTLED: u64 = 30 * SEC;
/// The steady phase advances in slices of this much simulated time; the wall
/// time of a slice is the workload's latency sample.
const SLICE: u64 = SEC / 40;
/// After the last operation the simulation runs on this long, so that every
/// operation can finish (ABD gives up after 3.75 s).
const DRAIN: u64 = 5 * SEC;
/// Simulations per end-to-end run; `setup_s` is the median of their boots.
const INSTANCES: usize = 3;
/// Slices per window; a metric is the median over all windows of all
/// simulations.
const WINDOW_SLICES: usize = 500;
/// The traced run's slice of steady state, executed twice.
const TRACED_SLICE: u64 = 60 * SEC;

/// One simulated cluster and the seeded streams that drive it.
struct Harness {
    sim: Simulation,
    simulator: Component<CatsSimulator>,
    port: PortRef<CatsExperiment>,
    rng: Rng,
    /// Peer id → simulated time it joined; the benchmark's own membership
    /// list, so that it never sends a client to a peer it is about to fail.
    alive: BTreeMap<u64, u64>,
    /// Next instants at which an operation, a join and a failure are due.
    next_op: u64,
    next_join: u64,
    next_fail: u64,
    writes: u64,
    issued: u64,
}

impl Harness {
    /// Boots [`PEERS`] peers and runs until every ring join has completed.
    fn boot(seed: u64) -> Harness {
        let sim = Simulation::new(seed);
        let (des, rng) = (sim.des().clone(), sim.rng().clone());
        let simulator = sim.system().create(move || {
            CatsSimulator::new(des, rng, EmulatorConfig::default(), api::cats_config())
        });
        sim.system().start(&simulator);
        let port = simulator
            .provided_ref::<CatsExperiment>()
            .expect("simulator provides CatsExperiment");
        let mut h = Harness {
            sim,
            simulator,
            port,
            rng: Rng::new(seed).fork(3),
            alive: BTreeMap::new(),
            next_op: 0,
            next_join: 0,
            next_fail: 0,
            writes: 0,
            issued: 0,
        };
        for i in 0..PEERS as u64 {
            h.join_at(i * (BOOT / PEERS as u64));
        }
        h.sim.run_until(BOOT);
        while !h.all_joined() {
            let now = h.now();
            assert!(now < 10 * BOOT, "peers did not all join");
            h.sim.run_until(now + SEC);
        }
        let start = h.now().div_ceil(SEC) * SEC;
        h.next_op = start;
        h.next_join = start;
        h.next_fail = start + CHURN_EVERY / 2;
        h
    }

    fn now(&self) -> u64 {
        self.sim.now().as_nanos() as u64
    }

    fn all_joined(&self) -> bool {
        self.simulator
            .on_definition(|s| s.node_count() == self.alive.len() && s.all_joined())
            .expect("simulator alive")
    }

    fn at(&self, when: u64, op: CatsOp) {
        let port = self.port.clone();
        self.sim.des().schedule_at(when, move || {
            port.trigger(ExperimentOp(op))
                .expect("experiment port accepts ops");
        });
    }

    fn join_at(&mut self, when: u64) {
        let id = loop {
            let id = self.rng.next_u64() >> 16;
            if !self.alive.contains_key(&id) {
                break id;
            }
        };
        self.alive.insert(id, when);
        self.at(when, CatsOp::Join(id));
    }

    /// A settled peer, by rank among the settled ones.
    fn settled(&mut self, when: u64) -> Option<u64> {
        let settled: Vec<u64> = self
            .alive
            .iter()
            .filter(|(_, &joined)| joined + SETTLED <= when)
            .map(|(&id, _)| id)
            .collect();
        if settled.is_empty() {
            return None;
        }
        Some(settled[self.rng.below(settled.len() as u64) as usize])
    }

    /// Schedules everything due before `until`: operations, joins, failures.
    fn schedule_until(&mut self, until: u64) {
        while self.next_join < until {
            let when = self.next_join;
            self.join_at(when);
            self.next_join += CHURN_EVERY;
        }
        while self.next_fail < until {
            let when = self.next_fail;
            if let Some(victim) = self.settled(when) {
                self.alive.remove(&victim);
                self.at(when, CatsOp::Fail(victim));
            }
            self.next_fail += CHURN_EVERY;
        }
        while self.next_op < until {
            let when = self.next_op;
            self.next_op += OP_EVERY;
            // A peer due to fail has already left `alive`, so no client is
            // sent to a coordinator that dies under its operation.
            let Some(node) = self.settled(when) else {
                continue;
            };
            let key = RingKey(self.rng.next_u64() >> (64 - KEY_BITS));
            let op = if self.rng.next_f64() < GET_SHARE {
                CatsOp::Get { node, key }
            } else {
                // The simulator tells writes apart by their first 8 bytes.
                self.writes += 1;
                let mut value = vec![0u8; VALUE_BYTES];
                self.rng.fill(&mut value);
                value[..8].copy_from_slice(&self.writes.to_le_bytes());
                CatsOp::Put { node, key, value }
            };
            self.issued += 1;
            self.at(when, op);
        }
    }

    /// Advances the steady phase to `until`, a multiple of [`SLICE`].
    fn advance(&mut self, until: u64) {
        self.schedule_until(until);
        self.sim.run_until(until);
    }

    fn completed(&self) -> u64 {
        self.simulator
            .on_definition(|s| s.stats().completed)
            .expect("simulator alive")
    }

    fn events(&self) -> u64 {
        self.sim.des().executed()
    }

    /// Lets the last operations finish, then checks the recorded history:
    /// every key's operations must be linearizable.
    fn finish(self, out: &mut Outcome) -> Finished {
        let now = self.now();
        self.sim.run_until(now + DRAIN);
        let (per_key, history_hash, joins, fails, ops_completed) = self
            .simulator
            .on_definition(|s| {
                let mut per_key: BTreeMap<u64, Vec<OpRecord>> = BTreeMap::new();
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                let mut mix = |v: u64| hash = (hash ^ v).wrapping_mul(0x0100_0000_01b3);
                for entry in s.history() {
                    per_key.entry(entry.key.0).or_default().push(entry.record);
                    mix(entry.key.0);
                    mix(entry.record.invoke);
                    mix(entry.record.response);
                    mix(match entry.record.op {
                        RegisterOp::Write(v) => v,
                        RegisterOp::Read(v) => v.unwrap_or(u64::MAX) ^ 1,
                    });
                }
                let stats = s.stats();
                (per_key, hash, stats.joins, stats.fails, stats.completed)
            })
            .expect("simulator alive");
        for (key, history) in &per_key {
            if let Err(witness) = check_linearizable(history) {
                out.invalid(format!("key {key}: {witness}"));
            }
        }
        let finished = Finished {
            events_total: self.events(),
            ops_issued: self.issued,
            ops_completed,
            history_hash,
            joins,
            fails,
        };
        self.sim.shutdown();
        finished
    }
}

/// What one simulated run produced, all of it exact: two runs with the same
/// seed and the same length must agree on every field.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Finished {
    events_total: u64,
    ops_issued: u64,
    ops_completed: u64,
    history_hash: u64,
    joins: u64,
    fails: u64,
}

/// The end-to-end run: three simulations of the same seed, each booted from
/// nothing and advanced for a third of `seconds`. They simulate the same
/// events, so their windows differ only by what the machine did meanwhile.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let share = Duration::from_secs_f64(seconds / INSTANCES as f64);
    let (mut boots, mut compression, mut tput) = (vec![], vec![], vec![]);
    let (mut p50s, mut tails) = (vec![], vec![]);
    for _ in 0..INSTANCES {
        let start = Instant::now();
        let mut h = Harness::boot(seed);
        boots.push(start.elapsed().as_secs_f64());
        // (wall nanoseconds, operations completed so far) per slice.
        let mut slices: Vec<(u64, u64)> = Vec::new();
        let start = Instant::now();
        let mut last = start;
        let completed_at_start = h.completed();
        while last - start < share {
            let until = h.now() + SLICE;
            h.advance(until);
            let now = Instant::now();
            slices.push(((now - last).as_nanos() as u64, h.completed()));
            last = now;
        }
        if slices.len() < WINDOW_SLICES {
            out.invalid(format!("an instance advanced only {} slices", slices.len()));
        }
        // Windows of WINDOW_SLICES slices; the last takes the remainder.
        let windows = (slices.len() / WINDOW_SLICES).max(1);
        let mut completed_before = completed_at_start;
        for i in 0..windows {
            let end = if i + 1 == windows {
                slices.len()
            } else {
                (i + 1) * WINDOW_SLICES
            };
            let window = &slices[i * WINDOW_SLICES..end];
            let wall = window.iter().map(|s| s.0).sum::<u64>() as f64 / 1e9;
            let completed = window[window.len() - 1].1;
            compression.push((window.len() as u64 * SLICE) as f64 / SEC as f64 / wall);
            tput.push((completed - completed_before) as f64 / wall);
            completed_before = completed;
            let mut walls: Vec<u64> = window.iter().map(|s| s.0).collect();
            walls.sort_unstable();
            if let Some(tail) = tail_mean_us(&walls) {
                p50s.push(quantile(&walls, 0.50) as f64 / 1e3);
                tails.push(tail);
            }
        }
        let finished = h.finish(&mut out);
        out.attempted += finished.ops_issued;
        out.failed += finished.ops_issued - finished.ops_completed;
    }
    out.set("setup_s", median(&boots));
    out.set("tput_ops_per_s", median(&tput));
    if !p50s.is_empty() {
        out.set("lat_p50_us", median(&p50s));
        out.set("lat_tail_us", median(&tails));
    }
    // Not an end-to-end metric of the contract (see the README), but what
    // the paper's Table 1 reports.
    eprintln!(
        "sim_compression {:.2} simulated s per wall s",
        median(&compression)
    );
    out.set("peak_rss_mib", proc::peak_rss_mib());
    out
}

/// The traced run: the boot phase and a 60-simulated-second slice, executed
/// twice with the same seed, plus the probes of the simulation layers.
pub fn trace(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut exact: Vec<Finished> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    for round in 0..2 {
        let start = Instant::now();
        let mut h = Harness::boot(seed);
        let boot_s = start.elapsed().as_secs_f64();
        // The execution's own span comes first and is closed at the end.
        let execution = spans.len();
        let mut span = |name, parent, start, end| {
            spans.push(Span {
                name,
                parent,
                op: (round, 0),
                start,
                end,
            })
        };
        span("sim.execution", None, start, start);
        span("sim.boot", Some(execution), start, Instant::now());
        let (events_at_boot, sim_start) = (h.events(), h.now());
        proc::count_allocations(round == 1);
        let (cpu, allocs) = (proc::cpu_us(), proc::allocations());
        let sched = h.sim.system().scheduler_stats();
        let start = Instant::now();
        h.advance(sim_start + TRACED_SLICE);
        let wall = start.elapsed().as_secs_f64();
        proc::count_allocations(false);
        let steady_events = h.events() - events_at_boot;
        let ops = h.completed().max(1);
        if round == 1 {
            let sim_s = TRACED_SLICE as f64 / SEC as f64;
            out.set("sim.boot_s", boot_s);
            out.set("sim_compression", sim_s / wall);
            out.set("des.events_per_sim_s", steady_events as f64 / sim_s);
            out.set("des.events_per_s", steady_events as f64 / wall);
            out.set("closed.ops_per_s", ops as f64 / wall);
            out.set(
                "proc.cpu_us_per_op",
                (proc::cpu_us() - cpu) as f64 / ops as f64,
            );
            let now = proc::allocations();
            out.set("alloc.count_per_op", (now.0 - allocs.0) as f64 / ops as f64);
            out.set("alloc.bytes_per_op", (now.1 - allocs.1) as f64 / ops as f64);
            // The sequential scheduler neither parks nor steals.
            let after = h.sim.system().scheduler_stats();
            out.set(
                "sched.parks_per_op",
                (after.parks - sched.parks) as f64 / ops as f64,
            );
            out.set(
                "sched.handoffs_per_op",
                (after.handoffs - sched.handoffs) as f64 / ops as f64,
            );
        }
        let sliced = Instant::now();
        span("sim.slice", Some(execution), start, sliced);
        exact.push(h.finish(&mut out));
        let done = Instant::now();
        span("sim.drain_and_check", Some(execution), sliced, done);
        spans[execution].end = done;
    }
    match write_span_file("sim_churn", &spans) {
        Ok(path) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
    let last = exact[1];
    out.attempted = last.ops_issued;
    out.failed = last.ops_issued - last.ops_completed;
    let identical = exact[0] == exact[1];
    if !identical {
        out.invalid(format!(
            "same seed, different runs: {:?} vs {:?}",
            exact[0], exact[1]
        ));
    }
    out.set("sim.repeat_identical", identical as u64 as f64);
    out.set("des.events_total", last.events_total as f64);
    out.set("sim.ops_issued", last.ops_issued as f64);
    out.set("sim.ops_completed", last.ops_completed as f64);
    out.set("sim.ops_orphaned", out.failed as f64);
    out.set("sim.joins", last.joins as f64);
    out.set("sim.fails", last.fails as f64);
    // 53 bits of the hash survive a JSON number; enough to tell runs apart.
    out.set("sim.history_hash", (last.history_hash >> 11) as f64);
    out.set("run.fail_share", out.fail_share());
    out.set("run.peak_rss_mib", proc::peak_rss_mib());
    let (event_ns, msg_ns, timer_ns) = probes::simulation_layers(seed);
    out.set("des.event_ns", event_ns);
    out.set("emulator.msg_ns", msg_ns);
    out.set("simtimer.arm_fire_ns", timer_ns);
    out
}
