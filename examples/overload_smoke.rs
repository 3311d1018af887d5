//! CI overload-smoke gate: the 10× flood scenario from the robustness PR,
//! run in deterministic simulation and checked hard.
//!
//! A producer bursts ten times the consumer's data-lane capacity in a
//! single synchronous handler, twenty rounds per overload policy, with a
//! control-lane probe enqueued *after* every burst. The gates:
//!
//! 1. **Control-lane P99**: across all rounds, the 99th-percentile number
//!    of data events serviced before the probe must be 0 — strict lane
//!    priority means control never waits behind flooded data.
//! 2. **Shedding accounting**: every arrival is either executed or counted
//!    dropped/coalesced, per policy, exactly.
//! 3. **Flat memory**: lane depth returns to 0 after every round and the
//!    admitted backlog never exceeds capacity.
//! 4. **Determinism**: two same-seed runs produce identical execution
//!    fingerprints and byte-identical Prometheus exports of the
//!    `kompics_mailbox_*` series.
//!
//! Any violation prints a diagnostic and exits non-zero; that is what CI
//! runs (see the overload-smoke job in `.github/workflows/ci.yml`).
//!
//! ```bash
//! cargo run --release --example overload_smoke
//! ```

use std::sync::Arc;

use kompics::core::channel::connect;
use kompics::core::prelude::*;
use kompics::simulation::Simulation;
use parking_lot::Mutex;

const CAP: u64 = 100;
const TOTAL: u64 = 10 * CAP;
const ROUNDS: u64 = 20;

#[derive(Debug, Clone)]
struct Data(u64);
impl_event!(Data);

#[derive(Debug)]
struct Kick {
    base: Init,
}
impl_event!(Kick, extends Init, via base);

#[derive(Debug)]
struct Probe {
    base: Init,
    tag: u64,
}
impl_event!(Probe, extends Init, via base);

port_type! {
    pub struct Flood {
        indication: ;
        request: Data;
    }
}

type Record = Arc<Mutex<Vec<(&'static str, u64)>>>;

struct Producer {
    ctx: ComponentContext,
    out: RequiredPort<Flood>,
}

impl Producer {
    fn new() -> Self {
        let ctx = ComponentContext::new();
        let out: RequiredPort<Flood> = RequiredPort::new();
        ctx.subscribe_control(|this: &mut Producer, _k: &Kick| {
            for i in 0..TOTAL {
                this.out.trigger(Data(i));
            }
        });
        Producer { ctx, out }
    }
}

impl ComponentDefinition for Producer {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Producer"
    }
}

struct Consumer {
    ctx: ComponentContext,
    #[allow(dead_code)]
    port: ProvidedPort<Flood>,
    spec: MailboxSpec,
    record: Record,
}

impl Consumer {
    fn new(spec: MailboxSpec, record: Record) -> Self {
        let ctx = ComponentContext::new();
        let port: ProvidedPort<Flood> = ProvidedPort::new();
        port.subscribe(|this: &mut Consumer, d: &Data| {
            this.record.lock().push(("data", d.0));
        });
        ctx.subscribe_control(|this: &mut Consumer, p: &Probe| {
            this.record.lock().push(("probe", p.tag));
        });
        Consumer {
            ctx,
            port,
            spec,
            record,
        }
    }
}

impl ComponentDefinition for Consumer {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Consumer"
    }
    fn mailbox_spec(&self) -> MailboxSpec {
        self.spec.clone()
    }
}

/// FNV-1a over u64 words: a stable execution fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct RunOutcome {
    /// Per round: data events serviced before the probe.
    control_delays: Vec<u64>,
    data: LaneCounters,
    control: LaneCounters,
    fingerprint: u64,
    max_round_backlog: u64,
    executed_data: u64,
    metrics: String,
}

fn run(seed: u64, policy: OverloadPolicy) -> RunOutcome {
    let sim = Simulation::new(seed);
    let telemetry = sim.install_telemetry();
    let producer = sim.system().create(Producer::new);
    let record: Record = Arc::new(Mutex::new(Vec::new()));
    let consumer = sim.system().create({
        let (r, spec) = (
            record.clone(),
            MailboxSpec::bounded_data(CAP as usize, policy),
        );
        move || Consumer::new(spec, r)
    });
    connect(
        &consumer.provided_ref::<Flood>().unwrap(),
        &producer.required_ref::<Flood>().unwrap(),
    )
    .unwrap();
    sim.start(&producer);
    sim.start(&consumer);
    sim.settle();
    record.lock().clear();

    let mut control_delays = Vec::new();
    let mut fnv = Fnv::new();
    let mut max_round_backlog = 0u64;
    let mut executed_data = 0u64;
    for round in 0..ROUNDS {
        producer.control_ref().trigger(Kick { base: Init }).unwrap();
        consumer
            .control_ref()
            .trigger(Probe {
                base: Init,
                tag: round,
            })
            .unwrap();
        sim.settle();
        let events = std::mem::take(&mut *record.lock());
        let before_probe = events
            .iter()
            .position(|(kind, tag)| *kind == "probe" && *tag == round)
            .expect("probe delivered through the flood") as u64;
        control_delays.push(before_probe);
        max_round_backlog = max_round_backlog.max(events.len() as u64 - 1);
        executed_data += events.len() as u64 - 1;
        for (kind, v) in &events {
            fnv.word(if *kind == "probe" { 1 } else { 0 });
            fnv.word(*v);
        }
    }
    let data = consumer.mailbox_counters(Lane::Data);
    let control = consumer.mailbox_counters(Lane::Control);
    for c in [&data, &control] {
        for w in [
            c.depth as u64,
            c.enqueued,
            c.dropped,
            c.coalesced,
            c.pushback,
        ] {
            fnv.word(w);
        }
    }

    let metrics = kompics::telemetry::prometheus_text(&telemetry.registry);

    RunOutcome {
        control_delays,
        data,
        control,
        fingerprint: fnv.0,
        max_round_backlog,
        executed_data,
        metrics,
    }
}

fn p99(sorted: &mut [u64]) -> u64 {
    sorted.sort_unstable();
    sorted[(sorted.len() * 99).div_ceil(100).saturating_sub(1)]
}

fn main() {
    let mut violations: Vec<String> = Vec::new();
    let policies: [(&str, OverloadPolicy, u64); 3] = [
        // (label, policy, expected dropped per run)
        (
            "drop-oldest",
            OverloadPolicy::DropOldest,
            ROUNDS * (TOTAL - CAP),
        ),
        (
            "drop-newest",
            OverloadPolicy::DropNewest,
            ROUNDS * (TOTAL - CAP),
        ),
        (
            "sample-10",
            OverloadPolicy::Sample(10),
            ROUNDS * (TOTAL - CAP),
        ),
    ];

    println!(
        "overload smoke: {TOTAL} arrivals/round ({}x capacity {CAP}), {ROUNDS} rounds",
        TOTAL / CAP
    );
    for (label, policy, expected_dropped) in policies {
        let a = run(42, policy.clone());
        let b = run(42, policy);

        let mut delays = a.control_delays.clone();
        let ctl_p99 = p99(&mut delays);
        println!(
            "  [{label}] control-lane P99 delay: {ctl_p99} events | data lane: \
             enqueued={} dropped={} depth={} | backlog peak executed/round: {} | fingerprint: {:016x}",
            a.data.enqueued, a.data.dropped, a.data.depth, a.max_round_backlog, a.fingerprint
        );

        if ctl_p99 != 0 {
            violations.push(format!(
                "[{label}] control-lane P99 is {ctl_p99} data events; strict priority requires 0"
            ));
        }
        if a.data.dropped != expected_dropped {
            violations.push(format!(
                "[{label}] dropped {} arrivals, expected exactly {expected_dropped}",
                a.data.dropped
            ));
        }
        // Every arrival is either executed or counted shed (evictions show
        // up in `dropped`; outright drops too) — nothing leaks.
        if a.executed_data + a.data.dropped != ROUNDS * TOTAL {
            violations.push(format!(
                "[{label}] accounting leak: executed {} + dropped {} != {}",
                a.executed_data,
                a.data.dropped,
                ROUNDS * TOTAL
            ));
        }
        if a.data.depth != 0 || a.control.depth != 0 {
            violations.push(format!(
                "[{label}] lanes not drained: data depth {} control depth {}",
                a.data.depth, a.control.depth
            ));
        }
        if a.max_round_backlog > CAP {
            violations.push(format!(
                "[{label}] executed backlog {} exceeds capacity {CAP}: memory not bounded",
                a.max_round_backlog
            ));
        }
        if a.control.dropped != 0 {
            violations.push(format!(
                "[{label}] control lane shed {} events",
                a.control.dropped
            ));
        }
        if a.fingerprint != b.fingerprint {
            violations.push(format!(
                "[{label}] same-seed runs diverged: {:016x} vs {:016x}",
                a.fingerprint, b.fingerprint
            ));
        }
        if a.metrics != b.metrics {
            violations.push(format!("[{label}] telemetry exports not byte-identical"));
        }
        for series in [
            "kompics_mailbox_depth",
            "kompics_mailbox_enqueued_total",
            "kompics_mailbox_dropped_total",
            "kompics_mailbox_pushback_total",
        ] {
            if !a.metrics.contains(series) {
                violations.push(format!("[{label}] metrics export missing {series}"));
            }
        }
        for line in a
            .metrics
            .lines()
            .filter(|l| l.contains("kompics_mailbox") && !l.starts_with('#'))
        {
            println!("    {line}");
        }
    }

    if violations.is_empty() {
        println!("overload smoke: PASS");
    } else {
        for v in &violations {
            eprintln!("overload smoke VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
