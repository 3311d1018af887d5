//! One small CATS simulation whose outcome is pinned: 16 peers, 60 simulated
//! seconds of gets and puts, one join and one failure, a fixed seed. The
//! number of discrete events executed and a hash over the recorded operation
//! history are constants of this file.
//!
//! Same-seed runs agreeing with *each other* (`cats_sim.rs`) does not notice
//! a change that alters deliveries the same way every time. This does: when
//! it was written, delivering an event once per matching handler instead of
//! once per component, and replaying the route of another event type, each
//! moved the event count and the hash. If it fails after a change that is
//! *meant* to alter what is simulated (a protocol timer, a message added),
//! re-pin; after a change to dispatch, scheduling or the simulation core, it
//! has found a bug.
//!
//! What it does not see is the order *within* one fan-out: the events CATS
//! fans out to several components (`Suspect`, `RingNeighbors`) are handled
//! by each without the others noticing. `kompics-core`'s `route::tests`
//! compare that order exactly.

use std::time::Duration;

use cats::abd::AbdConfig;
use cats::experiments::{CatsExperiment, CatsOp, ExperimentOp};
use cats::key::RingKey;
use cats::lin::RegisterOp;
use cats::node::CatsConfig;
use cats::ring::RingConfig;
use cats::sim::CatsSimulator;
use kompics_protocols::cyclon::CyclonConfig;
use kompics_protocols::fd::FdConfig;
use kompics_simulation::{EmulatorConfig, Simulation};

const EVENTS_EXECUTED: u64 = 100_786;
const HISTORY_HASH: u64 = 3_482_041_934_302_031_739;
const OPERATIONS: usize = 600;

const SEC: u64 = 1_000_000_000;

#[test]
fn a_fixed_seed_run_executes_the_pinned_events_and_records_the_pinned_history() {
    let sim = Simulation::new(20);
    let (des, rng) = (sim.des().clone(), sim.rng().clone());
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
        telemetry: None,
    };
    let simulator = sim
        .system()
        .create(move || CatsSimulator::new(des, rng, EmulatorConfig::default(), config));
    sim.start(&simulator);
    let port = simulator
        .provided_ref::<CatsExperiment>()
        .expect("experiment port");
    let at = |when: u64, op: CatsOp| {
        let port = port.clone();
        sim.des().schedule_at(when, move || {
            port.trigger(ExperimentOp(op)).expect("experiment op");
        });
    };

    // The whole schedule is laid out before anything runs. Peers 1000, 2000,
    // … join half a second apart and get ten seconds to settle.
    let peers: Vec<u64> = (1..=16).map(|i| i * 1000).collect();
    for (i, id) in peers.iter().enumerate() {
        at(i as u64 * SEC / 2, CatsOp::Join(*id));
    }
    let start = 18 * SEC;
    at(start + 20 * SEC, CatsOp::Join(8500));
    at(start + 40 * SEC, CatsOp::Fail(12_000));
    // Ten operations a second, every fifth a put, at peers that stay up.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        x >> 33
    };
    for i in 0..OPERATIONS as u64 {
        let node = peers[next() as usize % 11];
        let key = RingKey(next() % 64);
        let op = if i % 5 == 0 {
            let mut value = vec![0u8; 16];
            value[..8].copy_from_slice(&(i + 1).to_le_bytes());
            CatsOp::Put { node, key, value }
        } else {
            CatsOp::Get { node, key }
        };
        at(start + i * SEC / 10, op);
    }
    sim.run_until(start + 65 * SEC);

    let (hash, completed) = simulator
        .on_definition(|s| {
            assert!(s.all_joined());
            assert_eq!(s.node_count(), 16, "seventeen joined, one failed");
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |v: u64| hash = (hash ^ v).wrapping_mul(0x0100_0000_01b3);
            for entry in s.history() {
                mix(entry.key.0);
                mix(entry.record.invoke);
                mix(entry.record.response);
                mix(match entry.record.op {
                    RegisterOp::Write(v) => v,
                    RegisterOp::Read(v) => v.unwrap_or(u64::MAX) ^ 1,
                });
            }
            (hash, s.history().len())
        })
        .expect("simulator alive");
    let executed = sim.des().executed();
    sim.shutdown();
    assert_eq!(
        (completed, executed, hash),
        (OPERATIONS, EVENTS_EXECUTED, HISTORY_HASH),
        "(operations completed, events executed, history hash)"
    );
}
