//! The 10× overload scenario in deterministic simulation: a producer
//! floods a bounded consumer with ten times its mailbox capacity in one
//! synchronous burst. The control lane stays deliverable (a probe enqueued
//! *after* the burst executes before any of it), the data lane sheds
//! exactly per policy, and — because admission decisions are pure functions
//! of arrival order — two same-seed runs make byte-identical decisions.

use std::sync::Arc;

use kompics_core::channel::connect;
use kompics_core::prelude::*;
use kompics_simulation::Simulation;
use parking_lot::Mutex;

const CAP: u64 = 100;
const TOTAL: u64 = 10 * CAP;

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

/// Emits the whole 10× burst synchronously from one handler — the
/// sequential scheduler cannot interleave the consumer, so every shedding
/// decision happens against a full mailbox, deterministically.
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

struct FloodOutcome {
    /// Execution order at the consumer.
    record: Vec<(&'static str, u64)>,
    data: LaneCounters,
    control: LaneCounters,
    /// Prometheus export.
    metrics: String,
}

fn run_flood(seed: u64, spec: MailboxSpec) -> FloodOutcome {
    let sim = Simulation::new(seed);
    let telemetry = sim.install_telemetry();
    let producer = sim.system().create(Producer::new);
    let record: Record = Arc::new(Mutex::new(Vec::new()));
    let consumer = sim.system().create({
        let r = record.clone();
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

    // The kick queues the burst; the probe is enqueued *after* it, on the
    // control lane, and must still execute before any flooded data.
    producer.control_ref().trigger(Kick { base: Init }).unwrap();
    consumer
        .control_ref()
        .trigger(Probe {
            base: Init,
            tag: 42,
        })
        .unwrap();
    sim.settle();

    let metrics = kompics_telemetry::prometheus_text(&telemetry.registry);

    let record = record.lock().clone();
    FloodOutcome {
        record,
        data: consumer.mailbox_counters(Lane::Data),
        control: consumer.mailbox_counters(Lane::Control),
        metrics,
    }
}

fn data_values(record: &[(&'static str, u64)]) -> Vec<u64> {
    record
        .iter()
        .filter(|(kind, _)| *kind == "data")
        .map(|(_, v)| *v)
        .collect()
}

#[test]
fn flood_sheds_per_policy_and_control_stays_deliverable() {
    let out = run_flood(
        7,
        MailboxSpec::bounded_data(CAP as usize, OverloadPolicy::DropOldest),
    );
    // Control-plane latency under a 10× data flood: the probe, enqueued
    // after the entire burst, executes with ZERO data events ahead of it —
    // the strict-priority control lane is its P99 bound.
    assert_eq!(out.record.first().copied(), Some(("probe", 42)));
    // Freshest-data-wins shedding, exact and reproducible.
    assert_eq!(
        data_values(&out.record),
        (TOTAL - CAP..TOTAL).collect::<Vec<_>>()
    );
    assert_eq!(out.data.enqueued, TOTAL);
    assert_eq!(out.data.dropped, TOTAL - CAP);
    assert_eq!(out.data.depth, 0, "memory flat after the flood drains");
    assert_eq!(out.control.dropped, 0, "control lane never sheds");
}

#[test]
fn flood_sample_policy_is_deterministic_arithmetic() {
    let out = run_flood(
        7,
        MailboxSpec::bounded_data(CAP as usize, OverloadPolicy::Sample(10)),
    );
    assert_eq!(out.record.first().copied(), Some(("probe", 42)));
    // 0..CAP fill the lane; of the 900 at-capacity arrivals every 10th is
    // admitted in place of the oldest: 90 survivors.
    let seen = data_values(&out.record);
    assert_eq!(out.data.enqueued, CAP + 90);
    assert_eq!(out.data.dropped, TOTAL - CAP);
    assert_eq!(seen.len() as u64, CAP + 90 - 90, "90 oldest evicted");
    // The sampled survivors are a pure function of arrival order: the
    // every-10th arrivals at capacity are 109, 119, … 999.
    assert_eq!(seen[seen.len() - 3..], [979, 989, 999]);
}

#[test]
fn same_seed_floods_make_byte_identical_decisions() {
    for policy in [
        OverloadPolicy::DropOldest,
        OverloadPolicy::DropNewest,
        OverloadPolicy::Sample(7),
    ] {
        let spec = MailboxSpec::bounded_data(CAP as usize, policy);
        let a = run_flood(1234, spec.clone());
        let b = run_flood(1234, spec);
        assert_eq!(a.record, b.record, "identical execution order");
        assert_eq!(a.data, b.data, "identical lane counters");
        assert_eq!(a.control, b.control);
        assert_eq!(a.metrics, b.metrics, "byte-identical telemetry export");
        assert!(a.metrics.contains("kompics_mailbox_dropped_total"));
        assert!(a.metrics.contains("kompics_mailbox_depth"));
        assert!(a.metrics.contains("kompics_mailbox_pushback_total"));
    }
}

#[test]
fn block_policy_floods_losslessly_with_pushback_counted() {
    let out = run_flood(
        7,
        MailboxSpec::bounded_data(CAP as usize, OverloadPolicy::Block),
    );
    assert_eq!(out.record.first().copied(), Some(("probe", 42)));
    // Block admits everything (the producer here ignores the signal); the
    // signal itself is counted for every admission past capacity.
    assert_eq!(data_values(&out.record), (0..TOTAL).collect::<Vec<_>>());
    assert_eq!(out.data.dropped, 0);
    assert_eq!(out.data.pushback, TOTAL - CAP);
}
