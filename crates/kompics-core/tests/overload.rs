//! Bounded-mailbox behavior under overload: each QoS policy's shedding
//! decisions, Block pushback with hysteresis, control-lane priority under a
//! data flood, per-port overrides, and — in deployment (threaded) mode —
//! that eviction bookkeeping never breaks quiescence detection.

use std::sync::Arc;

use kompics_core::event::event_as;
use kompics_core::prelude::*;
use parking_lot::Mutex;

#[derive(Debug, Clone)]
struct Data(u64);
impl_event!(Data);

#[derive(Debug)]
struct Probe {
    base: Init,
    tag: u64,
}
impl_event!(Probe, extends Init, via base);

port_type! {
    pub struct Pipe {
        indication: ;
        request: Data;
    }
}

port_type! {
    pub struct Aux {
        indication: ;
        request: Data;
    }
}

type Record = Arc<Mutex<Vec<(&'static str, u64)>>>;

/// Sink with a configurable mailbox: records every handled event with its
/// source ("data" / "aux" / "probe") in execution order.
struct Sink {
    ctx: ComponentContext,
    #[allow(dead_code)]
    pipe: ProvidedPort<Pipe>,
    #[allow(dead_code)]
    aux: ProvidedPort<Aux>,
    spec: MailboxSpec,
    record: Record,
}

impl Sink {
    fn new(spec: MailboxSpec, record: Record) -> Self {
        let ctx = ComponentContext::new();
        let pipe: ProvidedPort<Pipe> = ProvidedPort::new();
        let aux: ProvidedPort<Aux> = ProvidedPort::new();
        pipe.subscribe(|this: &mut Sink, d: &Data| {
            this.record.lock().push(("data", d.0));
        });
        aux.subscribe(|this: &mut Sink, d: &Data| {
            this.record.lock().push(("aux", d.0));
        });
        ctx.subscribe_control(|this: &mut Sink, p: &Probe| {
            this.record.lock().push(("probe", p.tag));
        });
        Sink {
            ctx,
            pipe,
            aux,
            spec,
            record,
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

fn sequential_sink(
    spec: MailboxSpec,
) -> (
    KompicsSystem,
    Arc<kompics_core::sched::sequential::SequentialScheduler>,
    kompics_core::component::Component<Sink>,
    Record,
) {
    let (system, sched) = KompicsSystem::sequential(Config::default());
    let record: Record = Arc::new(Mutex::new(Vec::new()));
    let sink = system.create({
        let r = record.clone();
        move || Sink::new(spec, r)
    });
    system.start(&sink);
    sched.run_until_quiescent();
    record.lock().clear(); // drop the Start bookkeeping
    (system, sched, sink, record)
}

fn data_values(record: &Record) -> Vec<u64> {
    record
        .lock()
        .iter()
        .filter(|(kind, _)| *kind == "data")
        .map(|(_, v)| *v)
        .collect()
}

#[test]
fn drop_newest_sheds_excess_arrivals() {
    let spec = MailboxSpec::bounded_data(8, OverloadPolicy::DropNewest);
    let (_system, sched, sink, record) = sequential_sink(spec);
    let port = sink.provided_ref::<Pipe>().unwrap();
    for i in 0..80 {
        port.trigger(Data(i)).unwrap();
    }
    sched.run_until_quiescent();
    // The first `capacity` events survive; everything after is shed.
    assert_eq!(data_values(&record), (0..8).collect::<Vec<_>>());
    let c = sink.mailbox_counters(Lane::Data);
    assert_eq!(c.enqueued, 8);
    assert_eq!(c.dropped, 72);
    assert_eq!(c.depth, 0);
}

#[test]
fn drop_oldest_keeps_the_freshest_events() {
    let spec = MailboxSpec::bounded_data(8, OverloadPolicy::DropOldest);
    let (_system, sched, sink, record) = sequential_sink(spec);
    let port = sink.provided_ref::<Pipe>().unwrap();
    for i in 0..80 {
        port.trigger(Data(i)).unwrap();
    }
    sched.run_until_quiescent();
    // Freshest-data-wins: the last `capacity` events survive.
    assert_eq!(data_values(&record), (72..80).collect::<Vec<_>>());
    let c = sink.mailbox_counters(Lane::Data);
    assert_eq!(c.enqueued, 80);
    assert_eq!(c.dropped, 72);
}

#[test]
fn sample_admits_every_nth_arrival_at_capacity() {
    let spec = MailboxSpec::bounded_data(4, OverloadPolicy::Sample(4));
    let (_system, sched, sink, record) = sequential_sink(spec);
    let port = sink.provided_ref::<Pipe>().unwrap();
    for i in 0..20 {
        port.trigger(Data(i)).unwrap();
    }
    sched.run_until_quiescent();
    // 0..4 fill the lane; of the 16 arrivals at capacity every 4th (7, 11,
    // 15, 19) replaces the oldest queued event. Pure arrival-order counting
    // — rerunning this test can never see a different sample.
    assert_eq!(data_values(&record), vec![7, 11, 15, 19]);
    let c = sink.mailbox_counters(Lane::Data);
    assert_eq!(c.enqueued, 8);
    assert_eq!(c.dropped, 16);
}

#[test]
fn coalesce_merges_arrivals_into_newest_queued() {
    let merge: CoalesceFn = Arc::new(|queued: &EventRef, arriving: &EventRef| {
        let a = event_as::<Data>(queued.as_ref()).expect("queued Data").0;
        let b = event_as::<Data>(arriving.as_ref())
            .expect("arriving Data")
            .0;
        Arc::new(Data(a + b))
    });
    let spec = MailboxSpec::bounded_data(2, OverloadPolicy::Coalesce(merge));
    let (_system, sched, sink, record) = sequential_sink(spec);
    let port = sink.provided_ref::<Pipe>().unwrap();
    for i in 1..=10 {
        port.trigger(Data(i)).unwrap();
    }
    sched.run_until_quiescent();
    // 1 and 2 fill the lane; 3..=10 fold into the newest queued event:
    // 2 + 3 + … + 10 = 54.
    assert_eq!(data_values(&record), vec![1, 54]);
    let c = sink.mailbox_counters(Lane::Data);
    assert_eq!(c.enqueued, 2);
    assert_eq!(c.coalesced, 8);
    assert_eq!(c.dropped, 0);
}

#[test]
fn block_signals_pushback_until_low_watermark() {
    let spec = MailboxSpec::default()
        .with_data(LaneSpec::bounded(4, OverloadPolicy::Block).with_low_watermark(1));
    let (_system, sched, sink, record) = sequential_sink(spec);
    let port = sink.provided_ref::<Pipe>().unwrap();
    for i in 0..4 {
        let fb = port.trigger(Data(i)).unwrap();
        assert!(!fb.pushback, "below capacity must not push back");
        assert_eq!(fb.delivered, 1);
    }
    // At capacity: still admitted (lossless), but the producer is told.
    let fb = port.trigger(Data(4)).unwrap();
    assert!(fb.pushback);
    assert_eq!(fb.delivered, 1);
    // Saturation is sticky below capacity (hysteresis): the next admission
    // still reports pushback even though the queue is not re-checked…
    let c = sink.mailbox_counters(Lane::Data);
    assert_eq!(c.depth, 5);
    assert!(c.pushback >= 1);
    // …until the lane drains to the low watermark.
    sched.run_until_quiescent();
    assert_eq!(data_values(&record).len(), 5);
    let fb = port.trigger(Data(5)).unwrap();
    assert!(!fb.pushback, "drained lane must clear the pushback window");
    sched.run_until_quiescent();
}

#[test]
fn control_probe_overtakes_a_data_flood() {
    let spec = MailboxSpec::bounded_data(8, OverloadPolicy::DropNewest);
    let (_system, sched, sink, record) = sequential_sink(spec);
    let port = sink.provided_ref::<Pipe>().unwrap();
    for i in 0..80 {
        port.trigger(Data(i)).unwrap();
    }
    // Enqueued *after* the whole flood, on the control lane.
    sink.control_ref()
        .trigger(Probe {
            base: Init,
            tag: 99,
        })
        .unwrap();
    sched.run_until_quiescent();
    let first = record.lock().first().copied().unwrap();
    assert_eq!(
        first,
        ("probe", 99),
        "control must execute before any queued data"
    );
    assert_eq!(data_values(&record), (0..8).collect::<Vec<_>>());
}

#[test]
fn per_port_override_bounds_only_that_port() {
    let spec =
        MailboxSpec::default().with_port::<Pipe>(LaneSpec::bounded(4, OverloadPolicy::DropNewest));
    let (_system, sched, sink, record) = sequential_sink(spec);
    let pipe = sink.provided_ref::<Pipe>().unwrap();
    let aux = sink.provided_ref::<Aux>().unwrap();
    for i in 0..10 {
        pipe.trigger(Data(i)).unwrap();
    }
    for i in 100..110 {
        aux.trigger(Data(i)).unwrap();
    }
    sched.run_until_quiescent();
    // Pipe arrivals hit their 4-slot override; Aux arrivals use the
    // unbounded lane default even though the shared lane is deeper than 4.
    assert_eq!(data_values(&record), (0..4).collect::<Vec<_>>());
    let record = record.lock();
    let aux_values: Vec<u64> = record
        .iter()
        .filter(|(kind, _)| *kind == "aux")
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(aux_values, (100..110).collect::<Vec<_>>());
}

#[test]
fn feedback_reports_drops_to_the_producer() {
    let spec = MailboxSpec::bounded_data(2, OverloadPolicy::DropNewest);
    let (_system, sched, sink, _record) = sequential_sink(spec);
    let port = sink.provided_ref::<Pipe>().unwrap();
    assert_eq!(port.trigger(Data(0)).unwrap().delivered, 1);
    assert_eq!(port.trigger(Data(1)).unwrap().delivered, 1);
    let fb = port.trigger(Data(2)).unwrap();
    assert_eq!(fb.delivered, 0);
    assert_eq!(fb.dropped, 1);
    let _ = sink;
    sched.run_until_quiescent();
}

// ---------------------------------------------------------------------------
// Deployment (threaded) mode
// ---------------------------------------------------------------------------

/// 10× flood against a DropNewest mailbox on the work-stealing scheduler.
/// The exact drop count races with the consumer draining, but the
/// accounting invariants cannot: every arrival is either executed or
/// counted dropped, and quiescence detection still terminates.
#[test]
fn threaded_flood_accounts_for_every_arrival() {
    const CAP: u64 = 64;
    const TOTAL: u64 = 10 * CAP;
    let system = KompicsSystem::new(Config::default());
    let record: Record = Arc::new(Mutex::new(Vec::new()));
    let sink = system.create({
        let r = record.clone();
        move || {
            Sink::new(
                MailboxSpec::bounded_data(CAP as usize, OverloadPolicy::DropNewest),
                r,
            )
        }
    });
    system.start(&sink);
    let port = sink.provided_ref::<Pipe>().unwrap();
    for i in 0..TOTAL {
        port.trigger(Data(i)).unwrap();
    }
    sink.control_ref()
        .trigger(Probe { base: Init, tag: 7 })
        .unwrap();
    system.await_quiescence();
    let c = sink.mailbox_counters(Lane::Data);
    let seen = data_values(&record);
    assert_eq!(c.enqueued + c.dropped, TOTAL, "every arrival accounted");
    assert_eq!(seen.len() as u64, c.enqueued, "every admission executed");
    assert!(c.enqueued >= CAP, "at least one full mailbox admitted");
    assert_eq!(c.depth, 0);
    assert!(
        record.lock().iter().any(|(kind, _)| *kind == "probe"),
        "control probe delivered through the flood"
    );
    // FIFO within the lane even while shedding: admitted values arrive in
    // trigger order.
    assert!(seen.windows(2).all(|w| w[0] < w[1]));
    system.shutdown();
}

/// DropOldest evictions decrement both the lane and the system-wide
/// quiescence counters; if they did not, `await_quiescence` would hang on
/// permanently-overstated work. Terminating at all is the assertion.
#[test]
fn threaded_evictions_do_not_break_quiescence() {
    const CAP: u64 = 32;
    const TOTAL: u64 = 10 * CAP;
    let system = KompicsSystem::new(Config::default());
    let record: Record = Arc::new(Mutex::new(Vec::new()));
    let sink = system.create({
        let r = record.clone();
        move || {
            Sink::new(
                MailboxSpec::bounded_data(CAP as usize, OverloadPolicy::DropOldest),
                r,
            )
        }
    });
    system.start(&sink);
    let port = sink.provided_ref::<Pipe>().unwrap();
    for i in 0..TOTAL {
        port.trigger(Data(i)).unwrap();
    }
    system.await_quiescence();
    let c = sink.mailbox_counters(Lane::Data);
    let seen = data_values(&record);
    assert_eq!(seen.len() as u64 + c.dropped, TOTAL);
    assert_eq!(c.enqueued, TOTAL, "DropOldest admits every arrival");
    assert_eq!(c.depth, 0);
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "FIFO within the lane");
    system.shutdown();
}

/// Block mode in deployment: nothing is ever lost, the producer just sees
/// pushback while the lane is saturated.
#[test]
fn threaded_block_is_lossless_under_flood() {
    const CAP: u64 = 16;
    const TOTAL: u64 = 10 * CAP;
    let system = KompicsSystem::new(Config::default());
    let record: Record = Arc::new(Mutex::new(Vec::new()));
    let sink = system.create({
        let r = record.clone();
        move || {
            Sink::new(
                MailboxSpec::bounded_data(CAP as usize, OverloadPolicy::Block),
                r,
            )
        }
    });
    system.start(&sink);
    let port = sink.provided_ref::<Pipe>().unwrap();
    let mut pushbacks = 0u64;
    for i in 0..TOTAL {
        let fb = port.trigger(Data(i)).unwrap();
        assert_eq!(fb.delivered, 1, "Block never sheds");
        if fb.pushback {
            pushbacks += 1;
        }
    }
    system.await_quiescence();
    let seen = data_values(&record);
    assert_eq!(seen, (0..TOTAL).collect::<Vec<_>>(), "lossless and FIFO");
    let c = sink.mailbox_counters(Lane::Data);
    assert_eq!(c.enqueued, TOTAL);
    assert_eq!(c.dropped, 0);
    assert_eq!(c.pushback, pushbacks);
    system.shutdown();
}
