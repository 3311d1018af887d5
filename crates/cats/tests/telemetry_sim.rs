//! Telemetry determinism under simulation: a full CATS cluster run twice
//! with the same seed must export **byte-identical** metrics (Prometheus
//! text and JSON snapshot) and an identical causal trace rendering —
//! virtual-time timestamps, per-run span ids and single-shard sinks make
//! the whole observability surface as reproducible as the simulation
//! itself. And the hooks only observe: the same seed without telemetry
//! installed completes the same operations at the same virtual times.

use std::sync::Arc;
use std::time::Duration;

use cats::abd::AbdConfig;
use cats::experiments::{CatsOp, ExperimentOp};
use cats::key::RingKey;
use cats::lin::{check_linearizable, RegisterOp};
use cats::node::CatsConfig;
use cats::ring::RingConfig;
use cats::sim::CatsSimulator;
use kompics_protocols::cyclon::CyclonConfig;
use kompics_protocols::fd::FdConfig;
use kompics_simulation::{Dist, EmulatorConfig, LatencyModel, Simulation};
use kompics_telemetry::{json_snapshot, prometheus_text, render_trace, TraceSink};

/// What one run produced: the three telemetry exports (empty when nothing
/// was installed), the completed operations as (key, invoke, response, op),
/// and whether that history is linearizable.
struct Run {
    prom: String,
    json: String,
    trace: String,
    history: Vec<(RingKey, u64, u64, RegisterOp)>,
    linearizable: bool,
}

/// One complete simulated run: boot a 3-node cluster, settle, do a
/// put/get round, and export every telemetry surface.
fn run_once(seed: u64, instrumented: bool) -> Run {
    let sim = Simulation::new(seed);
    // Install BEFORE creating components so per-component instrumentation
    // attaches to every node in the cluster.
    let telemetry = instrumented.then(|| sim.install_telemetry());

    let config = CatsConfig {
        replication: Some(3),
        ring: RingConfig {
            stabilize_period: Duration::from_millis(250),
            ..RingConfig::default()
        },
        fd: FdConfig {
            initial_delay: Duration::from_millis(400),
            delta: Duration::from_millis(200),
        },
        cyclon: CyclonConfig {
            period: Duration::from_millis(500),
            ..CyclonConfig::default()
        },
        abd: AbdConfig {
            op_timeout: Duration::from_millis(750),
            max_retries: 4,
            ..AbdConfig::default()
        },
        telemetry: telemetry.as_ref().map(|t| Arc::clone(&t.registry)),
    };

    let des = sim.des().clone();
    let rng = sim.rng().clone();
    let emulator = EmulatorConfig {
        latency: LatencyModel::Distribution(Dist::Uniform { lo: 1.0, hi: 5.0 }),
        ..EmulatorConfig::default()
    };
    let simulator = sim
        .system()
        .create(move || CatsSimulator::new(des, rng, emulator, config));
    sim.start(&simulator);
    let port = simulator
        .provided_ref::<cats::experiments::CatsExperiment>()
        .expect("experiment port");

    for id in [100, 200, 300] {
        port.trigger(ExperimentOp(CatsOp::Join(id))).unwrap();
        sim.run_for(Duration::from_millis(200));
    }
    sim.run_for(Duration::from_secs(5));
    port.trigger(ExperimentOp(CatsOp::Put {
        node: 100,
        key: RingKey(7),
        value: b"hello".to_vec(),
    }))
    .unwrap();
    sim.run_for(Duration::from_millis(500));
    port.trigger(ExperimentOp(CatsOp::Get {
        node: 300,
        key: RingKey(7),
    }))
    .unwrap();
    sim.run_for(Duration::from_millis(500));

    let (history, linearizable) = simulator
        .on_definition(|s| {
            // Every operation is on the one key, so one check covers them.
            let records: Vec<_> = s.history().iter().map(|h| h.record).collect();
            let history: Vec<_> = s
                .history()
                .iter()
                .map(|h| (h.key, h.record.invoke, h.record.response, h.record.op))
                .collect();
            (history, check_linearizable(&records).is_ok())
        })
        .expect("simulator alive");
    assert!(history.len() >= 2, "put and get completed: {history:?}");

    let (prom, json, trace) = telemetry
        .map(|t| {
            (
                prometheus_text(&t.registry),
                json_snapshot(&t.registry),
                render_trace(&t.trace.snapshot()),
            )
        })
        .unwrap_or_default();
    sim.shutdown();
    Run {
        prom,
        json,
        trace,
        history,
        linearizable,
    }
}

#[test]
fn same_seed_runs_export_identical_telemetry() {
    let (a, b) = (run_once(42, true), run_once(42, true));
    let (prom_a, json_a, trace_a) = (a.prom, a.json, a.trace);
    let (prom_b, json_b, trace_b) = (b.prom, b.json, b.trace);

    // The runtime's automatic instrumentation saw the cluster...
    assert!(
        prom_a.contains("kompics_component_events_handled"),
        "runtime metrics present:\n{prom_a}"
    );
    // ...and so did the protocol-level counters wired via CatsConfig.
    assert!(
        prom_a.contains("cats_router_lookups"),
        "router metrics present:\n{prom_a}"
    );
    assert!(
        prom_a.contains("cats_router_view_size"),
        "router view gauge present:\n{prom_a}"
    );
    assert!(!trace_a.is_empty(), "causal trace recorded");
    assert!(trace_a.contains("deliver"), "trace has deliveries");
    assert!(trace_a.contains("exec"), "trace has executions");

    // Byte-identical across same-seed runs: metrics, snapshot, and trace.
    assert_eq!(prom_a, prom_b, "prometheus text is deterministic");
    assert_eq!(json_a, json_b, "json snapshot is deterministic");
    assert_eq!(trace_a, trace_b, "causal trace is deterministic");
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the determinism assertion above is not vacuous:
    // a different seed produces a different trace (virtual latencies and
    // event interleavings differ).
    let trace_a = run_once(42, true).trace;
    let trace_b = run_once(43, true).trace;
    assert_ne!(trace_a, trace_b, "distinct seeds take distinct paths");
}

/// Instrumentation observes, never perturbs: the hooks are in every build,
/// so installing a registry and a tracer must not change what the system
/// under test does.
#[test]
fn installing_telemetry_does_not_change_the_run() {
    let bare = run_once(42, false);
    let instrumented = run_once(42, true);
    assert!(bare.trace.is_empty() && !instrumented.trace.is_empty());
    assert_eq!(bare.history, instrumented.history, "same operation history");
    assert!(bare.linearizable && instrumented.linearizable);
}
