//! Property/stress suite for the sharded-affinity scheduler
//! (`work_stealing.rs`), in the KompicsTesting dual-mode style:
//!
//! * **(a) per-component order** — for arbitrary fan-out schedules executed
//!   under a multi-worker affinity scheduler (small inbound rings to force
//!   the overflow path, tiny throughput to force rescheduling, planted
//!   worker stalls to force helper wakes, steals and home migrations),
//!   every component observes exactly the sequence a sequential oracle
//!   run observes — nothing lost, nothing reordered per component;
//! * **(b) lane discipline** — the mailbox control-before-data strict
//!   priority (DESIGN.md §13) survives the new scheduler: with a worker
//!   parked mid-slice on a gate, a queued backlog still executes
//!   control-FIFO-then-data-FIFO under 4 workers with affinity routing;
//! * **(c) no lost wakeup** — every enqueued event executes within a
//!   bounded number of park/unpark cycles: single triggers against a
//!   parked pool always complete promptly, and the pool's total park count
//!   stays linear in the number of wakeup rounds (no timed-park polling,
//!   no runaway park/unpark churn);
//! * a spec-DSL case runs the same fan-out ordering spec under **both**
//!   backends (threaded affinity scheduler, then deterministic
//!   simulation) — the dual-execution guarantee for the new scheduler.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kompics_core::channel::connect;
use kompics_core::prelude::*;
use kompics_testing::{SpecBuilder, TestContext};
use parking_lot::Mutex;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Burst {
    base: u64,
    count: u64,
}
impl_event!(Burst);

#[derive(Debug, Clone)]
struct Data(u64);
impl_event!(Data);

#[derive(Debug, Clone)]
struct Hold;
impl_event!(Hold);

#[derive(Debug)]
struct Probe {
    base: Init,
    tag: u64,
}
impl_event!(Probe, extends Init, via base);

port_type! {
    pub struct Grid {
        indication: Data;
        request: Burst, Hold;
    }
}

/// Fans every `Burst` out as `count` consecutive `Data` indications — the
/// in-pool producer whose synchronous trigger chain crosses shards.
struct Fan {
    ctx: ComponentContext,
    grid: ProvidedPort<Grid>,
}

impl Fan {
    fn new() -> Self {
        let grid: ProvidedPort<Grid> = ProvidedPort::new();
        grid.subscribe(|this: &mut Fan, b: &Burst| {
            for v in 0..b.count {
                this.grid.trigger(Data(b.base + v));
            }
        });
        Fan {
            ctx: ComponentContext::new(),
            grid,
        }
    }
}

impl ComponentDefinition for Fan {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Fan"
    }
}

type Record = Arc<Mutex<Vec<u64>>>;

/// Records every `Data` it sees, in arrival order.
struct Sink {
    ctx: ComponentContext,
    #[allow(dead_code)]
    grid: RequiredPort<Grid>,
    record: Record,
}

impl Sink {
    fn new(record: Record) -> Self {
        let grid: RequiredPort<Grid> = RequiredPort::new();
        grid.subscribe(|this: &mut Sink, d: &Data| {
            this.record.lock().push(d.0);
        });
        Sink {
            ctx: ComponentContext::new(),
            grid,
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
}

/// The scheduler configuration under test: 4 workers, affinity routing,
/// tiny inbound rings (exercise the ring-overflow fallback), batch steals,
/// a 2-event execute slice (force rescheduling mid-backlog), and a planted
/// stall on worker 0 early on (force helper wakes and steals away from a
/// stalled owner).
fn stressed_config() -> Config {
    Config::default().workers(4).throughput(2).scheduler(
        SchedulerSpec::default()
            .inbound_capacity(4)
            .steal_batch(4)
            .stall_at(0, 3, 2)
            .stall_at(1, 5, 1),
    )
}

/// One generated schedule: burst sizes, fanned to `sinks` components.
fn schedules() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..6, 1..12)
}

/// Every sink must see every burst value, in global trigger order (one
/// producer, FIFO mailboxes).
fn expected(bursts: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut base = 0;
    for &count in bursts {
        out.extend(base..base + count);
        base += count;
    }
    out
}

fn run_threaded(bursts: &[u64], sinks: usize) -> Vec<Vec<u64>> {
    let system = KompicsSystem::new(stressed_config());
    let fan = system.create(Fan::new);
    let records: Vec<Record> = (0..sinks).map(|_| Record::default()).collect();
    let sink_components: Vec<_> = records
        .iter()
        .map(|record| {
            let record = record.clone();
            system.create(move || Sink::new(record))
        })
        .collect();
    let provided = fan.provided_ref::<Grid>().unwrap();
    for sink in &sink_components {
        connect(&provided, &sink.required_ref::<Grid>().unwrap()).unwrap();
    }
    system.start(&fan);
    for sink in &sink_components {
        system.start(sink);
    }
    system.await_quiescence();

    let mut base = 0;
    for &count in bursts {
        provided.trigger(Burst { base, count }).unwrap();
        base += count;
    }
    system.await_quiescence();
    let out = records.iter().map(|r| r.lock().clone()).collect();
    system.shutdown();
    out
}

fn run_sequential(bursts: &[u64], sinks: usize) -> Vec<Vec<u64>> {
    let (system, sched) = KompicsSystem::sequential(Config::default());
    let fan = system.create(Fan::new);
    let records: Vec<Record> = (0..sinks).map(|_| Record::default()).collect();
    let sink_components: Vec<_> = records
        .iter()
        .map(|record| {
            let record = record.clone();
            system.create(move || Sink::new(record))
        })
        .collect();
    let provided = fan.provided_ref::<Grid>().unwrap();
    for sink in &sink_components {
        connect(&provided, &sink.required_ref::<Grid>().unwrap()).unwrap();
    }
    system.start(&fan);
    for sink in &sink_components {
        system.start(sink);
    }
    sched.run_until_quiescent();

    let mut base = 0;
    for &count in bursts {
        provided.trigger(Burst { base, count }).unwrap();
        base += count;
    }
    sched.run_until_quiescent();
    let out = records.iter().map(|r| r.lock().clone()).collect();
    system.shutdown();
    out
}

// ---------------------------------------------------------------------------
// (a) Per-component order across steals, migrations, stalls and overflows
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Affinity scheduler under duress (stalls, tiny rings, forced
    /// reschedules): every sink observes exactly the oracle sequence.
    #[test]
    fn per_component_order_matches_oracle(bursts in schedules()) {
        let want = expected(&bursts);
        let got = run_threaded(&bursts, 3);
        for (sink, record) in got.iter().enumerate() {
            prop_assert_eq!(record, &want, "sink {} diverged from oracle", sink);
        }
        let sequential = run_sequential(&bursts, 3);
        prop_assert_eq!(got, sequential, "threaded != sequential oracle");
    }
}

// ---------------------------------------------------------------------------
// (b) Lane discipline survives the sharded scheduler
// ---------------------------------------------------------------------------

/// Gated sink in the lane_order.rs style: `Hold` parks the executing worker
/// mid-slice, the backlog queues behind it, and the mailbox discipline
/// alone decides execution order when the gate opens.
struct GatedSink {
    ctx: ComponentContext,
    #[allow(dead_code)]
    grid: ProvidedPort<Grid>,
    record: Arc<Mutex<Vec<(&'static str, u64)>>>,
    gate: Arc<AtomicBool>,
}

impl GatedSink {
    fn new(record: Arc<Mutex<Vec<(&'static str, u64)>>>, gate: Arc<AtomicBool>) -> Self {
        let ctx = ComponentContext::new();
        let grid: ProvidedPort<Grid> = ProvidedPort::new();
        grid.subscribe(|this: &mut GatedSink, b: &Burst| {
            this.record.lock().push(("data", b.base));
        });
        grid.subscribe(|this: &mut GatedSink, _h: &Hold| {
            while !this.gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        ctx.subscribe_control(|this: &mut GatedSink, p: &Probe| {
            this.record.lock().push(("probe", p.tag));
        });
        GatedSink {
            ctx,
            grid,
            record,
            gate,
        }
    }
}

impl ComponentDefinition for GatedSink {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "GatedSink"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under 4 workers with affinity routing, a queued backlog still
    /// executes control-FIFO strictly before data-FIFO.
    #[test]
    fn lane_discipline_survives_sharded_scheduler(lanes in proptest::collection::vec(any::<bool>(), 1..32)) {
        let system = KompicsSystem::new(stressed_config());
        let record = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let sink = system.create({
            let (r, g) = (record.clone(), gate.clone());
            move || GatedSink::new(r, g)
        });
        system.start(&sink);
        system.await_quiescence();
        record.lock().clear();

        let provided = sink.provided_ref::<Grid>().unwrap();
        provided.trigger(Hold).unwrap();
        let mut want_probes = Vec::new();
        let mut want_data = Vec::new();
        for (i, control) in lanes.iter().enumerate() {
            let tag = i as u64;
            if *control {
                sink.control_ref().trigger(Probe { base: Init, tag }).unwrap();
                want_probes.push(("probe", tag));
            } else {
                provided.trigger(Burst { base: tag, count: 1 }).unwrap();
                want_data.push(("data", tag));
            }
        }
        gate.store(true, Ordering::Release);
        system.await_quiescence();
        let got = record.lock().clone();
        system.shutdown();
        want_probes.extend(want_data);
        prop_assert_eq!(got, want_probes);
    }
}

// ---------------------------------------------------------------------------
// (c) No lost wakeups: bounded park/unpark cycles
// ---------------------------------------------------------------------------

/// Counts arrivals; the external driver waits for each one. `Hold` makes
/// the executing worker unpark *itself*, which leaves a stale token on
/// that thread for its next `std::thread::park()` — what a handler
/// blocking in a std channel can do by accident.
struct Counter {
    ctx: ComponentContext,
    #[allow(dead_code)]
    grid: ProvidedPort<Grid>,
    seen: Arc<AtomicUsize>,
}

impl Counter {
    fn new(seen: Arc<AtomicUsize>) -> Self {
        let grid: ProvidedPort<Grid> = ProvidedPort::new();
        grid.subscribe(|this: &mut Counter, _b: &Burst| {
            this.seen.fetch_add(1, Ordering::SeqCst);
        });
        grid.subscribe(|_this: &mut Counter, _h: &Hold| {
            std::thread::current().unpark();
        });
        Counter {
            ctx: ComponentContext::new(),
            grid,
            seen,
        }
    }
}

impl ComponentDefinition for Counter {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Counter"
    }
}

/// Every single-event wakeup round completes promptly against a fully
/// parked pool, and the pool's park count stays linear in the number of
/// rounds — the "bounded park/unpark cycles" half of the no-lost-wakeup
/// invariant (the prompt completion is the "no lost" half: an untimed park
/// that misses a wakeup would hang the round forever, not just slowly).
///
/// `planted_tokens` stale park tokens are left on the workers first: each
/// may make one `park()` return early (one extra park in the count), and
/// none may lose or delay a round.
fn wakeup_rounds_complete_with_bounded_parks(planted_tokens: usize) {
    const ROUNDS: usize = 200;
    let workers = 2;
    let system = KompicsSystem::new(Config::default().workers(workers));
    let seen = Arc::new(AtomicUsize::new(0));
    let counter = system.create({
        let seen = seen.clone();
        move || Counter::new(seen)
    });
    system.start(&counter);
    system.await_quiescence();
    let provided = counter.provided_ref::<Grid>().unwrap();
    for _ in 0..planted_tokens {
        provided.trigger(Hold).unwrap();
        system.await_quiescence();
    }

    let parks_before = system.scheduler_stats().parks;
    for round in 0..ROUNDS {
        // Give the pool a moment to go fully idle so most rounds start
        // against parked workers (the interesting case).
        if round % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        provided.trigger(Burst { base: 0, count: 1 }).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen.load(Ordering::SeqCst) <= round {
            assert!(
                Instant::now() < deadline,
                "lost wakeup: round {round} did not execute within 10s"
            );
            std::hint::spin_loop();
        }
    }
    let parks_after = system.scheduler_stats().parks;
    system.shutdown();

    // Each round can park each worker at most a couple of times (wake,
    // drain, re-park; helper wakes included). Anything superlinear means
    // park/unpark churn or timed-poll parking snuck back in.
    let bound = (parks_before as usize) + ROUNDS * workers * 2 + workers * 4 + planted_tokens;
    assert!(
        (parks_after as usize) <= bound,
        "park churn: {parks_after} parks after {ROUNDS} rounds (bound {bound})"
    );
}

#[test]
fn wakeup_rounds_bounded_parks() {
    wakeup_rounds_complete_with_bounded_parks(0);
}

/// std's park token is per thread, not per scheduler: a token planted by a
/// handler is absorbed by one early return from `park()`.
#[test]
fn wakeup_rounds_bounded_parks_with_stale_park_tokens() {
    wakeup_rounds_complete_with_bounded_parks(3);
}

/// A planted stall on the home worker must not strand its backlog: helper
/// wakes recruit another worker, the backlog is stolen and executed, and
/// quiescence is reached — even though the stalled worker sleeps through
/// most of the burst.
#[test]
fn stalled_home_worker_does_not_strand_backlog() {
    let system = KompicsSystem::new(
        Config::default().workers(4).throughput(1).scheduler(
            SchedulerSpec::default()
                // Stall every worker early and hard; the backlog must
                // still drain through whoever wakes first.
                .stall_at(0, 2, 20)
                .stall_at(1, 2, 20)
                .stall_at(2, 2, 20)
                .stall_at(3, 2, 20),
        ),
    );
    let seen = Arc::new(AtomicUsize::new(0));
    let counter = system.create({
        let seen = seen.clone();
        move || Counter::new(seen)
    });
    system.start(&counter);
    system.await_quiescence();
    let provided = counter.provided_ref::<Grid>().unwrap();
    for _ in 0..100 {
        provided.trigger(Burst { base: 0, count: 1 }).unwrap();
    }
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 100);
    system.shutdown();
}

// ---------------------------------------------------------------------------
// Spec-DSL dual-mode case
// ---------------------------------------------------------------------------

/// The same fan-out ordering spec, once through the kompics-testing NFA
/// harness on an 8-worker affinity scheduler and once in deterministic
/// simulation: delivery through the harness is in-order in both modes.
#[test]
fn spec_dsl_fanout_order_in_both_modes() {
    let spec = |t: &mut TestContext<Fan>| {
        let grid = t.provided::<Grid>();
        t.trigger(grid.inject(Burst { base: 0, count: 6 }));
        t.trigger(grid.inject(Burst { base: 6, count: 2 }));
        for i in 0..8u64 {
            t.expect(grid.out_where::<Data>("Data in trigger order", move |d| d.0 == i));
        }
    };
    let mut t = TestContext::threaded_with(Config::default().workers(8), Fan::new);
    spec(&mut t);
    t.check().unwrap();

    let mut t = TestContext::simulated(0xC0FFEE, Fan::new);
    spec(&mut t);
    t.check().unwrap();
}
