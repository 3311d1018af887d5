//! Property tests for the mailbox lane discipline, run under BOTH execution
//! backends: arbitrary interleavings of control- and data-lane triggers must
//! preserve FIFO order *within* each lane, and events queued on the control
//! lane must execute strictly before queued data. In sequential (simulation)
//! mode the whole schedule is pre-queued, so the property is direct; in
//! threaded (deployment) mode the worker is parked mid-slice on a gate event
//! while the schedule is enqueued, which pins the same strict ordering
//! without racing the triggering thread. A shedding determinism/accounting
//! invariant rides along, plus one spec-DSL `check_both_modes` case
//! exercising in-order delivery through the kompics-testing harness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kompics_core::prelude::*;
use kompics_testing::{check_both_modes, SpecBuilder};
use parking_lot::Mutex;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Data(u64);
impl_event!(Data);

#[derive(Debug, Clone)]
struct Hold;
impl_event!(Hold);

#[derive(Debug, Clone)]
struct Echoed(u64);
impl_event!(Echoed);

#[derive(Debug)]
struct Probe {
    base: Init,
    tag: u64,
}
impl_event!(Probe, extends Init, via base);

port_type! {
    pub struct Pipe {
        indication: Echoed;
        request: Data, Hold;
    }
}

type Record = Arc<Mutex<Vec<(&'static str, u64)>>>;

struct Sink {
    ctx: ComponentContext,
    #[allow(dead_code)]
    pipe: ProvidedPort<Pipe>,
    spec: MailboxSpec,
    record: Record,
    gate: Arc<AtomicBool>,
}

impl Sink {
    fn new(spec: MailboxSpec, record: Record, gate: Arc<AtomicBool>) -> Self {
        let ctx = ComponentContext::new();
        let pipe: ProvidedPort<Pipe> = ProvidedPort::new();
        pipe.subscribe(|this: &mut Sink, d: &Data| {
            this.record.lock().push(("data", d.0));
        });
        // Parks the executing worker mid-slice until the test opens the
        // gate; everything triggered meanwhile is queued behind it.
        pipe.subscribe(|this: &mut Sink, _h: &Hold| {
            while !this.gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        ctx.subscribe_control(|this: &mut Sink, p: &Probe| {
            this.record.lock().push(("probe", p.tag));
        });
        Sink {
            ctx,
            pipe,
            spec,
            record,
            gate,
        }
    }
}

impl ComponentDefinition for Sink {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Sink"
    }
    fn mailbox_spec(&self) -> MailboxSpec {
        self.spec.clone()
    }
}

/// One trigger in a generated schedule; the id doubles as trigger order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Control(u64),
    Data(u64),
}

/// A schedule: each generated bool picks a lane, ids number the steps in
/// trigger order so ordering properties are checkable from the record alone.
fn schedules() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(any::<bool>(), 1..48).prop_map(|lanes| {
        lanes
            .into_iter()
            .enumerate()
            .map(|(i, control)| {
                if control {
                    Step::Control(i as u64)
                } else {
                    Step::Data(i as u64)
                }
            })
            .collect()
    })
}

/// What a fully pre-queued schedule must execute as: the control lane drains
/// completely (in FIFO order) before the first data event, then data in
/// FIFO order.
fn expected_order(schedule: &[Step]) -> Vec<(&'static str, u64)> {
    let probes = schedule.iter().filter_map(|s| match s {
        Step::Control(tag) => Some(("probe", *tag)),
        Step::Data(_) => None,
    });
    let data = schedule.iter().filter_map(|s| match s {
        Step::Data(v) => Some(("data", *v)),
        Step::Control(_) => None,
    });
    probes.chain(data).collect()
}

fn fire(sink: &Component<Sink>, pipe: &PortRef<Pipe>, step: Step) {
    match step {
        Step::Control(tag) => sink
            .control_ref()
            .trigger(Probe { base: Init, tag })
            .unwrap(),
        Step::Data(v) => pipe.trigger(Data(v)).unwrap(),
    };
}

/// Sequential backend: trigger the whole schedule while the scheduler is
/// parked, then run to quiescence.
fn run_sequential(schedule: &[Step], spec: MailboxSpec) -> Vec<(&'static str, u64)> {
    let (system, sched) = KompicsSystem::sequential(Config::default());
    let record: Record = Arc::new(Mutex::new(Vec::new()));
    let sink = system.create({
        let r = record.clone();
        move || Sink::new(spec, r, Arc::new(AtomicBool::new(true)))
    });
    system.start(&sink);
    sched.run_until_quiescent();
    record.lock().clear();

    let pipe = sink.provided_ref::<Pipe>().unwrap();
    for step in schedule {
        fire(&sink, &pipe, *step);
    }
    sched.run_until_quiescent();
    let out = record.lock().clone();
    system.shutdown();
    out
}

/// Threaded backend: a `Hold` event parks the worker inside a data-lane
/// slice; the schedule is enqueued behind it, the gate opens, and the
/// mailbox discipline alone decides execution order.
fn run_threaded_gated(schedule: &[Step], spec: MailboxSpec) -> Vec<(&'static str, u64)> {
    let system = KompicsSystem::new(Config::default());
    let record: Record = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new(AtomicBool::new(false));
    let sink = system.create({
        let (r, g) = (record.clone(), gate.clone());
        move || Sink::new(spec, r, g)
    });
    system.start(&sink);
    system.await_quiescence();
    record.lock().clear();

    let pipe = sink.provided_ref::<Pipe>().unwrap();
    pipe.trigger(Hold).unwrap();
    for step in schedule {
        fire(&sink, &pipe, *step);
    }
    gate.store(true, Ordering::Release);
    system.await_quiescence();
    let out = record.lock().clone();
    system.shutdown();
    out
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deployment (threaded work-stealing) mode: for any queued backlog the
    /// execution order is exactly control-FIFO then data-FIFO.
    #[test]
    fn threaded_preserves_lane_discipline(schedule in schedules()) {
        let record = run_threaded_gated(&schedule, MailboxSpec::unbounded());
        prop_assert_eq!(record, expected_order(&schedule));
    }

    /// Simulated (sequential) mode: identical discipline — the dual-mode
    /// guarantee that deployment and simulation execute the same order.
    #[test]
    fn simulated_preserves_lane_discipline(schedule in schedules()) {
        let record = run_sequential(&schedule, MailboxSpec::unbounded());
        prop_assert_eq!(record, expected_order(&schedule));
    }

    /// Shedding never loses the accounting, never sheds from the control
    /// lane, preserves FIFO among survivors, and sequential-mode decisions
    /// are a pure function of the schedule: two runs agree event-for-event.
    #[test]
    fn bounded_shedding_is_deterministic_and_accounted(schedule in schedules()) {
        let spec = MailboxSpec::bounded_data(4, OverloadPolicy::DropOldest);
        let a = run_sequential(&schedule, spec.clone());
        let b = run_sequential(&schedule, spec);
        prop_assert_eq!(&a, &b, "same schedule, different decisions");
        let probes = a.iter().filter(|(k, _)| *k == "probe").count();
        let expected = schedule.iter().filter(|s| matches!(s, Step::Control(_))).count();
        prop_assert_eq!(probes, expected, "control lane shed under data pressure");
        // With the whole schedule pre-queued, DropOldest keeps exactly the
        // freshest `capacity` data events, still in FIFO order.
        let data: Vec<u64> = a.iter().filter(|(k, _)| *k == "data").map(|(_, v)| *v).collect();
        let all_data: Vec<u64> = schedule
            .iter()
            .filter_map(|s| match s {
                Step::Data(v) => Some(*v),
                Step::Control(_) => None,
            })
            .collect();
        let survivors = all_data[all_data.len().saturating_sub(4)..].to_vec();
        prop_assert_eq!(data, survivors, "DropOldest must keep the freshest 4");
    }
}

// ---------------------------------------------------------------------------
// Spec-DSL dual-mode case
// ---------------------------------------------------------------------------

/// Echoes every `Data(n)` as `Echoed(n)`; delivery through the harness must
/// be in-order in both modes — the DSL-level view of FIFO-within-lane.
struct Echo {
    ctx: ComponentContext,
    pipe: ProvidedPort<Pipe>,
}

impl Echo {
    fn new() -> Self {
        let pipe: ProvidedPort<Pipe> = ProvidedPort::new();
        pipe.subscribe(|this: &mut Echo, d: &Data| this.pipe.trigger(Echoed(d.0)));
        Echo {
            ctx: ComponentContext::new(),
            pipe,
        }
    }
}

impl ComponentDefinition for Echo {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Echo"
    }
}

#[test]
fn spec_dsl_sees_in_order_delivery_in_both_modes() {
    check_both_modes(Echo::new, |t| {
        let pipe = t.provided::<Pipe>();
        for i in 0..8u64 {
            t.trigger(pipe.inject(Data(i)));
        }
        for i in 0..8u64 {
            t.expect(pipe.out_where::<Echoed>("Echoed in trigger order", move |e| e.0 == i));
        }
    })
    .unwrap();
}
