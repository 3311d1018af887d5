//! Criterion micro-benchmarks backing the experiments (B1–B4 in
//! DESIGN.md §5): event trigger/dispatch throughput, channel-chain
//! forwarding, keyed fan-out, codec round-trips, and RLE compression —
//! plus the hot-path scheduler benches (DESIGN.md §11): ping-pong hop
//! latency, N-producer fan-in, and the E3 batch-vs-single steal ablation
//! at 1/2/4/8 workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kompics::core::channel::{connect, connect_keyed};
use kompics::core::port::Direction;
use kompics::prelude::*;

#[derive(Debug, Clone)]
pub struct Tick(pub u64);
impl_event!(Tick);

port_type! {
    /// Benchmark stream.
    pub struct Pipe {
        indication: Tick;
        request: Tick;
    }
}

/// Counts received ticks.
struct Sink {
    ctx: ComponentContext,
    #[allow(dead_code)]
    input: RequiredPort<Pipe>,
    seen: Arc<AtomicU64>,
}
impl Sink {
    fn new(seen: Arc<AtomicU64>) -> Self {
        let input = RequiredPort::new();
        input.subscribe(|this: &mut Sink, _t: &Tick| {
            this.seen.fetch_add(1, Ordering::Relaxed);
        });
        Sink {
            ctx: ComponentContext::new(),
            input,
            seen,
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

/// Forwards ticks onward (for chains).
struct Relay {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    input: ProvidedPort<Pipe>,
    #[allow(dead_code)]
    output: RequiredPort<Pipe>,
}
impl Relay {
    fn new() -> Self {
        let input: ProvidedPort<Pipe> = ProvidedPort::new();
        let output: RequiredPort<Pipe> = RequiredPort::new();
        input.subscribe(|this: &mut Relay, t: &Tick| {
            this.output.trigger(Tick(t.0));
        });
        Relay {
            ctx: ComponentContext::new(),
            input,
            output,
        }
    }
}
impl ComponentDefinition for Relay {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Relay"
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_dispatch");
    group.throughput(Throughput::Elements(1));
    // One trigger → queue → handler execution, on the sequential scheduler
    // (isolates the runtime path from thread wakeups). The two arms give
    // the cost of an *installed* registry (metrics on, tracing off) over
    // the failed `OnceLock::get` every system pays: a number to read, not
    // a gate.
    for installed in [false, true] {
        let (system, scheduler) = KompicsSystem::sequential(Config::default().throughput(64));
        if installed {
            let registry = Arc::new(kompics::telemetry::Registry::with_shards(1));
            let spec =
                kompics::core::telemetry::TelemetrySpec::new(registry, SystemClock::shared());
            assert!(system.install_telemetry(spec), "fresh system");
        }
        let seen = Arc::new(AtomicU64::new(0));
        let sink = system.create({
            let s = seen.clone();
            move || Sink::new(s)
        });
        system.start(&sink);
        scheduler.run_until_quiescent();
        let port = sink.required_ref::<Pipe>().unwrap();
        let arm = if installed {
            "installed"
        } else {
            "not_installed"
        };
        group.bench_function(BenchmarkId::new("trigger_and_execute", arm), |b| {
            b.iter(|| {
                port.trigger(Tick(1)).unwrap();
                scheduler.run_until_quiescent();
            })
        });
        system.shutdown();
    }
    group.finish();
}

/// Terminal of a relay chain: counts requests arriving at its provided
/// port.
struct Server {
    ctx: ComponentContext,
    #[allow(dead_code)]
    input: ProvidedPort<Pipe>,
    seen: Arc<AtomicU64>,
}
impl Server {
    fn new(seen: Arc<AtomicU64>) -> Self {
        let input: ProvidedPort<Pipe> = ProvidedPort::new();
        input.subscribe(|this: &mut Server, _t: &Tick| {
            this.seen.fetch_add(1, Ordering::Relaxed);
        });
        Server {
            ctx: ComponentContext::new(),
            input,
            seen,
        }
    }
}
impl ComponentDefinition for Server {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Server"
    }
}

fn bench_channel_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_chain");
    // A request traverses `depth` relay components before being counted by
    // the terminal server; each hop is one channel forward plus one handler
    // execution.
    for depth in [1usize, 4, 16] {
        let (system, scheduler) = KompicsSystem::sequential(Config::default().throughput(64));
        let seen = Arc::new(AtomicU64::new(0));
        let server = system.create({
            let s = seen.clone();
            move || Server::new(s)
        });
        system.start(&server);
        let mut head = server.provided_ref::<Pipe>().unwrap();
        let mut relays = Vec::new();
        for _ in 0..depth {
            let relay = system.create(Relay::new);
            system.start(&relay);
            connect(&relay.required_ref::<Pipe>().unwrap(), &head).unwrap();
            head = relay.provided_ref::<Pipe>().unwrap();
            relays.push(relay);
        }
        scheduler.run_until_quiescent();
        group.bench_function(BenchmarkId::from_parameter(depth), |b| {
            b.iter(|| {
                head.trigger(Tick(1)).unwrap();
                scheduler.run_until_quiescent();
            })
        });
        assert!(
            seen.load(Ordering::Relaxed) > 0,
            "requests reached the server"
        );
        system.shutdown();
    }
    group.finish();
}

/// Echoes requests back out as indications on the same provided port (the
/// shape of the network components).
struct Echo {
    ctx: ComponentContext,
    #[allow(dead_code)] // triggered from the handler via `this.input`
    input: ProvidedPort<Pipe>,
}
impl Echo {
    fn new() -> Self {
        let input: ProvidedPort<Pipe> = ProvidedPort::new();
        input.subscribe(|this: &mut Echo, t: &Tick| {
            this.input.trigger(Tick(t.0));
        });
        Echo {
            ctx: ComponentContext::new(),
            input,
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

fn bench_keyed_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("keyed_fanout");
    // One provider port with N keyed channels: keyed dispatch should stay
    // ~O(1) in the number of channels.
    for channels in [4usize, 64, 512] {
        let (system, scheduler) = KompicsSystem::sequential(Config::default().throughput(64));
        let hub = system.create(Echo::new);
        system.start(&hub);
        let provided = hub.provided_ref::<Pipe>().unwrap();
        provided.set_key_extractor(Arc::new(|event, dir| {
            if dir != Direction::Positive {
                return None;
            }
            kompics::core::event::event_as::<Tick>(event).map(|t| t.0)
        }));
        let seen = Arc::new(AtomicU64::new(0));
        let mut sinks = Vec::new();
        for key in 0..channels {
            let sink = system.create({
                let s = seen.clone();
                move || Sink::new(s)
            });
            system.start(&sink);
            connect_keyed(&provided, &sink.required_ref::<Pipe>().unwrap(), key as u64).unwrap();
            sinks.push(sink);
        }
        scheduler.run_until_quiescent();
        group.bench_function(BenchmarkId::from_parameter(channels), |b| {
            let mut i = 0u64;
            b.iter(|| {
                // Request in; the relay re-emits; keyed dispatch routes to
                // exactly one sink.
                provided.trigger(Tick(i % channels as u64)).unwrap();
                scheduler.run_until_quiescent();
                i += 1;
            })
        });
        system.shutdown();
    }
    group.finish();
}

/// Ping-pong player for the threaded scheduler benches: returns the event
/// (decremented) until it reaches zero, then bumps `done`.
struct Player {
    ctx: ComponentContext,
    #[allow(dead_code)]
    input: ProvidedPort<Pipe>,
    #[allow(dead_code)]
    output: RequiredPort<Pipe>,
    done: Arc<AtomicU64>,
}
impl Player {
    fn new(done: Arc<AtomicU64>) -> Self {
        let input: ProvidedPort<Pipe> = ProvidedPort::new();
        let output: RequiredPort<Pipe> = RequiredPort::new();
        input.subscribe(|this: &mut Player, t: &Tick| {
            if t.0 == 0 {
                this.done.fetch_add(1, Ordering::Release);
            } else {
                this.output.trigger(Tick(t.0 - 1));
            }
        });
        Player {
            ctx: ComponentContext::new(),
            input,
            output,
            done,
        }
    }
}
impl ComponentDefinition for Player {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Player"
    }
}

/// Fans every received tick out to all connected sinks (E3 topology).
struct Splitter {
    ctx: ComponentContext,
    #[allow(dead_code)]
    input: ProvidedPort<Pipe>,
    #[allow(dead_code)]
    output: RequiredPort<Pipe>,
}
impl Splitter {
    fn new() -> Self {
        let input: ProvidedPort<Pipe> = ProvidedPort::new();
        let output: RequiredPort<Pipe> = RequiredPort::new();
        input.subscribe(|this: &mut Splitter, t: &Tick| {
            this.output.trigger(Tick(t.0));
        });
        Splitter {
            ctx: ComponentContext::new(),
            input,
            output,
        }
    }
}
impl ComponentDefinition for Splitter {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Splitter"
    }
}

fn spin_until(counter: &AtomicU64, target: u64) {
    while counter.load(Ordering::Acquire) < target {
        std::hint::spin_loop();
    }
}

/// Scheduler ping-pong: one event bounced between two components on the
/// work-stealing scheduler. Every hop crosses the trigger→enqueue→wakeup→
/// execute pipeline, so this is the end-to-end latency of the lock-free
/// dispatch path plus the precise sleeper protocol.
fn bench_scheduler_pingpong(c: &mut Criterion) {
    const HOPS: u64 = 1_000;
    let mut group = c.benchmark_group("scheduler_pingpong");
    group.throughput(Throughput::Elements(HOPS));
    for workers in [1usize, 2] {
        let system = KompicsSystem::new(Config::default().workers(workers).throughput(1));
        let done = Arc::new(AtomicU64::new(0));
        let a = system.create({
            let d = done.clone();
            move || Player::new(d)
        });
        let b2 = system.create({
            let d = done.clone();
            move || Player::new(d)
        });
        connect(
            &a.provided_ref::<Pipe>().unwrap(),
            &b2.required_ref::<Pipe>().unwrap(),
        )
        .unwrap();
        connect(
            &b2.provided_ref::<Pipe>().unwrap(),
            &a.required_ref::<Pipe>().unwrap(),
        )
        .unwrap();
        system.start(&a);
        system.start(&b2);
        system.await_quiescence();
        let port = a.provided_ref::<Pipe>().unwrap();
        let mut finished = 0u64;
        group.bench_function(BenchmarkId::from_parameter(workers), |b| {
            b.iter(|| {
                port.trigger(Tick(HOPS)).unwrap();
                finished += 1;
                spin_until(&done, finished);
            })
        });
        system.shutdown();
    }
    group.finish();
}

/// N external producer threads hammer one sink component: contended
/// enqueue (pending-counter increments + queue pushes) plus the scheduler
/// handoff on every burst.
fn bench_scheduler_fanin(c: &mut Criterion) {
    const PER_PRODUCER: u64 = 250;
    let mut group = c.benchmark_group("scheduler_fanin");
    for producers in [1usize, 4] {
        let total = PER_PRODUCER * producers as u64;
        group.throughput(Throughput::Elements(total));
        let system = KompicsSystem::new(Config::default().workers(2).throughput(64));
        let seen = Arc::new(AtomicU64::new(0));
        let sink = system.create({
            let s = seen.clone();
            move || Sink::new(s)
        });
        system.start(&sink);
        system.await_quiescence();
        let mut delivered = 0u64;
        group.bench_function(BenchmarkId::from_parameter(producers), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..producers)
                    .map(|_| {
                        let port = sink.required_ref::<Pipe>().unwrap();
                        std::thread::spawn(move || {
                            for i in 0..PER_PRODUCER {
                                port.trigger(Tick(i)).unwrap();
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                delivered += total;
                spin_until(&seen, delivered);
            })
        });
        system.shutdown();
    }
    group.finish();
}

/// E3 ablation (batch vs single steal) at 1/2/4/8 workers: a splitter fans
/// each round out to 64 sinks from a worker thread, so the ready sinks land
/// on that worker's shard and siblings must steal them — the access
/// pattern where the steal-batch policy matters. `exp3_worksteal_ablation`
/// runs the paper-sized version; this criterion group tracks the same
/// shape with statistics.
fn bench_e3_ablation(c: &mut Criterion) {
    const COMPONENTS: usize = 64;
    const ROUNDS: u64 = 8;
    let mut group = c.benchmark_group("e3_steal_ablation");
    group.throughput(Throughput::Elements(COMPONENTS as u64 * ROUNDS));
    for workers in [1usize, 2, 4, 8] {
        for steal_batch in [8usize, 1] {
            let system = KompicsSystem::new(
                Config::default()
                    .workers(workers)
                    .throughput(16)
                    .scheduler(SchedulerSpec::default().steal_batch(steal_batch)),
            );
            let seen = Arc::new(AtomicU64::new(0));
            let splitter = system.create(Splitter::new);
            system.start(&splitter);
            let fan_out = splitter.required_ref::<Pipe>().unwrap();
            let mut sinks = Vec::new();
            for _ in 0..COMPONENTS {
                // `Server` counts requests on its provided port — the
                // receiving end of the splitter's required-port fan-out.
                let sink = system.create({
                    let s = seen.clone();
                    move || Server::new(s)
                });
                system.start(&sink);
                connect(&sink.provided_ref::<Pipe>().unwrap(), &fan_out).unwrap();
                sinks.push(sink);
            }
            system.await_quiescence();
            let inlet = splitter.provided_ref::<Pipe>().unwrap();
            let mut delivered = seen.load(Ordering::Acquire);
            group.bench_function(
                BenchmarkId::new(
                    format!("w{workers}"),
                    if steal_batch > 1 { "batch" } else { "single" },
                ),
                |b| {
                    b.iter(|| {
                        for round in 0..ROUNDS {
                            inlet.trigger(Tick(round)).unwrap();
                        }
                        delivered += COMPONENTS as u64 * ROUNDS;
                        spin_until(&seen, delivered);
                    })
                },
            );
            system.shutdown();
        }
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    use kompics::cats::key::RingKey;
    use kompics::cats::msgs::{Tag, WriteQueryMsg};
    use kompics::network::{Address, Message};

    let msg = WriteQueryMsg {
        base: Message::new(Address::local(8080, 1), Address::local(8081, 2)),
        rid: 42,
        key: RingKey(7),
        tag: Tag { seq: 9, writer: 1 },
        value: Some(vec![0xAB; 1024]),
    };
    let bytes = kompics::codec::to_bytes(&msg).unwrap();

    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_1k_write", |b| {
        b.iter(|| kompics::codec::to_bytes(&msg).unwrap())
    });
    group.bench_function("decode_1k_write", |b| {
        b.iter(|| kompics::codec::from_bytes::<WriteQueryMsg>(&bytes).unwrap())
    });
    // A 16 KiB value no compressor can shrink (xorshift64 bytes): the
    // per-byte cost of the codec, and of deciding not to compress.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let random: Vec<u8> = std::iter::repeat_with(|| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.to_le_bytes()
    })
    .flatten()
    .take(16 * 1024)
    .collect();
    let large = WriteQueryMsg {
        value: Some(random),
        ..msg.clone()
    };
    let large_bytes = kompics::codec::to_bytes(&large).unwrap();
    group.throughput(Throughput::Bytes(large_bytes.len() as u64));
    group.bench_function("encode_16k_value", |b| {
        b.iter(|| kompics::codec::to_bytes(&large).unwrap())
    });
    group.bench_function("decode_16k_value", |b| {
        b.iter(|| kompics::codec::from_bytes::<WriteQueryMsg>(&large_bytes).unwrap())
    });
    group.bench_function("rle_incompressible_16k", |b| {
        b.iter(|| kompics::codec::rle_compressed_len(&large_bytes))
    });
    let compressible = vec![0x77u8; 64 * 1024];
    group.throughput(Throughput::Bytes(compressible.len() as u64));
    group.bench_function("rle_compress_64k", |b| {
        b.iter(|| kompics::codec::rle_compress(&compressible))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dispatch, bench_channel_chain, bench_keyed_fanout,
        bench_scheduler_pingpong, bench_scheduler_fanin, bench_e3_ablation,
        bench_codec
}
criterion_main!(benches);
