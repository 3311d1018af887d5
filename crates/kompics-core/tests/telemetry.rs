//! Integration tests for installed telemetry: automatic per-component
//! instrumentation and causal tracing wired through the dispatch path.
#![allow(dead_code)]

use std::sync::Arc;

use kompics_core::channel::connect;
use kompics_core::clock::ManualClock;
use kompics_core::prelude::*;
use kompics_core::telemetry::TelemetrySpec;
use kompics_telemetry::{
    json_snapshot, prometheus_text, render_trace, Registry, RingSink, SampleValue, TraceKind,
    TraceSink, Tracer,
};

#[derive(Debug, Clone)]
pub struct Ping(pub u64);
impl_event!(Ping);

#[derive(Debug, Clone)]
pub struct Pong(pub u64);
impl_event!(Pong);

port_type! {
    pub struct PingPong {
        indication: Pong;
        request: Ping;
    }
}

/// Answers every `Ping` request with a `Pong` indication.
struct Ponger {
    ctx: ComponentContext,
    port: ProvidedPort<PingPong>,
}

impl Ponger {
    fn new() -> Self {
        let port = ProvidedPort::new();
        port.subscribe(|this: &mut Ponger, ping: &Ping| {
            this.port.trigger(Pong(ping.0));
        });
        Ponger {
            ctx: ComponentContext::new(),
            port,
        }
    }
}

impl ComponentDefinition for Ponger {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Ponger"
    }
}

/// Counts `Pong` indications.
struct PongSink {
    ctx: ComponentContext,
    port: RequiredPort<PingPong>,
}

impl PongSink {
    fn new() -> Self {
        let port = RequiredPort::new();
        port.subscribe(|_: &mut PongSink, _: &Pong| {});
        PongSink {
            ctx: ComponentContext::new(),
            port,
        }
    }
}

impl ComponentDefinition for PongSink {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "PongSink"
    }
}

struct Harness {
    system: KompicsSystem,
    scheduler: Arc<kompics_core::sched::sequential::SequentialScheduler>,
    registry: Arc<Registry>,
    trace: Arc<RingSink>,
    ping_ref: PortRef<PingPong>,
}

/// Deterministic single-threaded assembly: Ponger → channel → PongSink,
/// telemetry installed with a manual clock and single-shard sinks.
fn instrumented_harness() -> Harness {
    let (system, scheduler) = KompicsSystem::sequential(Config::default());
    let registry = Arc::new(Registry::with_shards(1));
    let (_manual, clock) = ManualClock::shared();
    let trace = Arc::new(RingSink::with_shards(1, 1024));
    let tracer = Arc::new(Tracer::new(
        kompics_core::telemetry::time_source(&clock),
        trace.clone() as Arc<dyn TraceSink>,
    ));
    assert!(
        system.install_telemetry(TelemetrySpec::new(registry.clone(), clock).with_tracer(tracer))
    );

    let ponger = system.create(Ponger::new);
    let sink = system.create(PongSink::new);
    let provided = ponger.provided_ref::<PingPong>().unwrap();
    connect(&provided, &sink.required_ref::<PingPong>().unwrap()).unwrap();
    system.start(&ponger);
    system.start(&sink);
    scheduler.run_until_quiescent();
    trace.clear(); // drop start-up lifecycle noise; tests focus on Ping/Pong
    Harness {
        system,
        scheduler,
        registry,
        trace,
        ping_ref: provided,
    }
}

#[test]
fn install_is_first_wins() {
    let (system, _scheduler) = KompicsSystem::sequential(Config::default());
    let registry = Arc::new(Registry::with_shards(1));
    let (_m, clock) = ManualClock::shared();
    assert!(system.install_telemetry(TelemetrySpec::new(registry.clone(), clock.clone())));
    assert!(!system.install_telemetry(TelemetrySpec::new(registry, clock)));
}

/// The `kompics_component_events_handled` value for a component type.
fn events_handled(registry: &Registry, kind: &str) -> u64 {
    registry
        .snapshot()
        .iter()
        .find(|s| {
            s.name == "kompics_component_events_handled" && s.labels.iter().any(|(_, v)| v == kind)
        })
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => panic!("expected counter"),
        })
        .unwrap_or_else(|| panic!("no events_handled sample for {kind}"))
}

#[test]
fn events_handled_counter_tracks_dispatch() {
    let h = instrumented_harness();
    // Startup already handled some lifecycle control events; measure the
    // delta caused by the pings alone.
    let ponger_before = events_handled(&h.registry, "Ponger");
    let sink_before = events_handled(&h.registry, "PongSink");
    for i in 0..10 {
        h.ping_ref.trigger(Ping(i)).unwrap();
    }
    h.scheduler.run_until_quiescent();
    // Ponger handled 10 Pings; PongSink handled the 10 forwarded Pongs.
    assert_eq!(events_handled(&h.registry, "Ponger") - ponger_before, 10);
    assert_eq!(events_handled(&h.registry, "PongSink") - sink_before, 10);
}

#[test]
fn scrape_collectors_report_queue_depth_and_scheduler_stats() {
    let h = instrumented_harness();
    let names: Vec<String> = h.registry.snapshot().into_iter().map(|s| s.name).collect();
    assert!(names.iter().any(|n| n == "kompics_component_queue_depth"));
    assert!(names.iter().any(|n| n == "kompics_sched_steal_attempts"));
    assert!(names.iter().any(|n| n == "kompics_sched_parks"));
}

#[test]
fn trace_parents_pong_to_ping_execution() {
    let h = instrumented_harness();
    h.ping_ref.trigger(Ping(7)).unwrap();
    h.scheduler.run_until_quiescent();

    let records = h.trace.snapshot();
    let ping_deliver = records
        .iter()
        .find(|r| r.kind == TraceKind::Deliver && r.event.ends_with("Ping"))
        .expect("ping delivery traced");
    // Triggered from outside any handler → no parent.
    assert_eq!(ping_deliver.parent, 0);
    let ping_exec = records
        .iter()
        .find(|r| r.kind == TraceKind::Exec && r.event.ends_with("Ping"))
        .expect("ping execution traced");
    assert_eq!(ping_exec.span, ping_deliver.span);
    // The Pong was triggered from inside the Ping handler, forwarded through
    // the channel synchronously: its delivery must be parented to the Ping
    // execution's span.
    let pong_deliver = records
        .iter()
        .find(|r| r.kind == TraceKind::Deliver && r.event.ends_with("Pong"))
        .expect("pong delivery traced");
    assert_eq!(pong_deliver.parent, ping_deliver.span);
}

#[test]
fn sequential_runs_export_identical_bytes() {
    let run = || {
        let h = instrumented_harness();
        for i in 0..5 {
            h.ping_ref.trigger(Ping(i)).unwrap();
        }
        h.scheduler.run_until_quiescent();
        (
            prometheus_text(&h.registry),
            json_snapshot(&h.registry),
            render_trace(&h.trace.snapshot()),
        )
    };
    let (prom_a, json_a, trace_a) = run();
    let (prom_b, json_b, trace_b) = run();
    assert_eq!(prom_a, prom_b);
    assert_eq!(json_a, json_b);
    assert_eq!(trace_a, trace_b);
    assert!(!trace_a.is_empty());
}
