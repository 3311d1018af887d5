//! Micro-probes: each times calls into one layer's public interface, with
//! the workload's own message shapes, while nothing else runs. They split an
//! end-to-end number into what each layer costs alone; they are not
//! end-to-end results themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    connect, impl_event, port_type, registry, Address, CancelTimeout, ComponentContext,
    ComponentDefinition, Config, EmulatorConfig, EventRef, KompicsSystem, LocalNetwork, Message,
    Network, NetworkEmulator, ProvidedPort, ReadQueryMsg, ReadReplyMsg, RequiredPort, RingKey,
    ScheduleTimeout, SimTimer, Simulation, Start, Tag, TcpConfig, TcpNetwork, ThreadTimer, Timeout,
    TimeoutId, Timer, Transport, WriteAckMsg, WriteQueryMsg, NODES,
};
use crate::load::{RequestWorkload, Stamp, Values};
use crate::metrics::Outcome;
use crate::stats::{median, quantile, quantile_supported, Rng};

const WAIT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone)]
struct Tick(u64);
impl_event!(Tick);
#[derive(Debug, Clone)]
struct Tock(u64);
impl_event!(Tock);

port_type! {
    /// The probes' own port: ticks go in, tocks come out.
    pub struct Probe {
        indication: Tock;
        request: Tick;
    }
}

/// Counts ticks; answers each with a tock when `answer` is set.
struct Ponger {
    ctx: ComponentContext,
    port: ProvidedPort<Probe>,
    seen: Arc<AtomicU64>,
    answer: bool,
}

impl Ponger {
    fn new(seen: Arc<AtomicU64>, answer: bool) -> Ponger {
        let port: ProvidedPort<Probe> = ProvidedPort::new();
        port.subscribe(|this: &mut Ponger, t: &Tick| {
            this.seen.fetch_add(1, Ordering::Release);
            if this.answer {
                this.port.trigger(Tock(t.0));
            }
        });
        Ponger {
            ctx: ComponentContext::new(),
            port,
            seen,
            answer,
        }
    }
}

impl ComponentDefinition for Ponger {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "KbenchPonger"
    }
}

/// Sends the next tick for every tock until `hops` have been made.
struct Pinger {
    ctx: ComponentContext,
    port: RequiredPort<Probe>,
    hops: u64,
    done: Sender<()>,
}

impl Pinger {
    fn new(hops: u64, done: Sender<()>) -> Pinger {
        let port: RequiredPort<Probe> = RequiredPort::new();
        port.subscribe(|this: &mut Pinger, t: &Tock| {
            if t.0 + 2 >= this.hops {
                let _ = this.done.send(());
            } else {
                this.port.trigger(Tick(t.0 + 2));
            }
        });
        let ctx = ComponentContext::new();
        ctx.subscribe_control(|this: &mut Pinger, _s: &Start| {
            this.port.trigger(Tick(0));
        });
        Pinger {
            ctx,
            port,
            hops,
            done,
        }
    }
}

impl ComponentDefinition for Pinger {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "KbenchPinger"
    }
}

fn system() -> KompicsSystem {
    KompicsSystem::new(Config::new().workers(2))
}

/// `core.dispatch_ns`: trigger → mailbox → handler on one component, on the
/// calling thread (the sequential scheduler), so no wake-up is in it.
fn dispatch_ns() -> f64 {
    const N: u64 = 500_000;
    let sim = Simulation::new(0);
    let seen = Arc::new(AtomicU64::new(0));
    let ponger = sim.system().create({
        let seen = seen.clone();
        move || Ponger::new(seen, false)
    });
    sim.system().start(&ponger);
    sim.settle();
    let port = ponger
        .provided_ref::<Probe>()
        .expect("ponger provides Probe");
    let run = |n: u64| {
        let start = Instant::now();
        for i in 0..n {
            port.trigger(Tick(i)).expect("Probe accepts Tick");
            sim.settle();
        }
        start.elapsed().as_nanos() as f64 / n as f64
    };
    run(N / 10);
    let ns = run(N);
    assert_eq!(seen.load(Ordering::Acquire), N + N / 10);
    sim.shutdown();
    ns
}

/// `core.pingpong_hop_ns`: one hop between two components, each hop waking
/// the other component's worker if it sleeps.
fn pingpong_hop_ns() -> f64 {
    const HOPS: u64 = 100_000;
    let system = system();
    let (tx, rx) = channel();
    let ponger = system.create(|| Ponger::new(Arc::new(AtomicU64::new(0)), true));
    let pinger = system.create(move || Pinger::new(HOPS, tx));
    connect(
        &ponger.provided_ref::<Probe>().expect("provides"),
        &pinger.required_ref::<Probe>().expect("requires"),
    )
    .expect("wire probe");
    system.start(&ponger);
    let start = Instant::now();
    system.start(&pinger);
    rx.recv_timeout(WAIT).expect("ping-pong finishes");
    let ns = start.elapsed().as_nanos() as f64 / HOPS as f64;
    system.shutdown();
    ns
}

/// What a network peer does with the messages it receives.
enum Role {
    /// Answers every `WriteQueryMsg` with a `ReadReplyMsg` carrying the same
    /// value, so both directions move a value-sized frame, as both ABD
    /// phases do.
    Echo,
    /// Keeps `width` exchanges in flight with `peer` until `limit` replies
    /// or `until`, then reports every round trip time.
    Drive {
        peer: Address,
        value: Vec<u8>,
        width: usize,
        limit: usize,
        until: Instant,
        sent_at: std::collections::HashMap<u64, Instant>,
        rtts_ns: Vec<u64>,
        next: u64,
        report: Sender<Vec<u64>>,
    },
}

/// A bare component on a `Network` port: the probes' stand-in for a node.
struct NetPeer {
    ctx: ComponentContext,
    net: RequiredPort<Network>,
    addr: Address,
    role: Role,
}

impl NetPeer {
    fn new(addr: Address, role: Role) -> NetPeer {
        let net: RequiredPort<Network> = RequiredPort::new();
        net.subscribe(|this: &mut NetPeer, m: &WriteQueryMsg| {
            if matches!(this.role, Role::Echo) {
                this.net.trigger(ReadReplyMsg {
                    base: m.base.reply(),
                    rid: m.rid,
                    tag: m.tag,
                    value: m.value.clone(),
                });
            }
        });
        net.subscribe(|this: &mut NetPeer, m: &ReadReplyMsg| this.on_reply(m.rid));
        let ctx = ComponentContext::new();
        ctx.subscribe_control(|this: &mut NetPeer, _s: &Start| {
            if let Role::Drive { width, .. } = this.role {
                for _ in 0..width {
                    this.send_next();
                }
            }
        });
        NetPeer {
            ctx,
            net,
            addr,
            role,
        }
    }

    fn send_next(&mut self) {
        let Role::Drive {
            peer,
            value,
            sent_at,
            next,
            ..
        } = &mut self.role
        else {
            return;
        };
        let rid = *next;
        *next += 1;
        sent_at.insert(rid, Instant::now());
        self.net.trigger(WriteQueryMsg {
            base: Message::new(self.addr, *peer),
            rid,
            key: RingKey(rid),
            tag: Tag {
                seq: rid,
                writer: 1,
            },
            value: Some(value.clone()),
        });
    }

    fn on_reply(&mut self, rid: u64) {
        let Role::Drive {
            limit,
            until,
            sent_at,
            rtts_ns,
            report,
            ..
        } = &mut self.role
        else {
            return;
        };
        let Some(sent) = sent_at.remove(&rid) else {
            return;
        };
        rtts_ns.push(sent.elapsed().as_nanos() as u64);
        if rtts_ns.len() < *limit && Instant::now() < *until {
            self.send_next();
        } else if sent_at.is_empty() {
            let _ = report.send(std::mem::take(rtts_ns));
        }
    }
}

impl ComponentDefinition for NetPeer {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "KbenchNetPeer"
    }
}

fn drive(
    peer: Address,
    value: &[u8],
    width: usize,
    limit: usize,
    budget: Duration,
) -> (Role, std::sync::mpsc::Receiver<Vec<u64>>) {
    let (report, rx) = channel();
    let role = Role::Drive {
        peer,
        value: value.to_vec(),
        width,
        limit,
        until: Instant::now() + budget,
        sent_at: Default::default(),
        rtts_ns: Vec::new(),
        next: 0,
        report,
    };
    (role, rx)
}

/// A driver and an echo peer, each on its own `TcpNetwork`, in one system.
/// Returns the round trip times and the wall time from before the
/// transports existed until the first reply arrived.
fn tcp_pair(value: &[u8], width: usize, limit: usize, budget: Duration) -> (Vec<u64>, Duration) {
    let system = system();
    let registry = registry();
    let born = Instant::now();
    let mut peers = Vec::new();
    let mut addrs = Vec::new();
    for id in [1u64, 2] {
        let (addr, listener) = TcpNetwork::bind(Address::local(0, id)).expect("bind loopback");
        let tcp = system.create({
            let registry = Arc::clone(&registry);
            move || TcpNetwork::new(addr, listener, registry, TcpConfig::default())
        });
        system.start(&tcp);
        peers.push(tcp);
        addrs.push(addr);
    }
    let (role, rx) = drive(addrs[1], value, width, limit, budget);
    let echo = system.create(|| NetPeer::new(addrs[1], Role::Echo));
    let driver = system.create(|| NetPeer::new(addrs[0], role));
    for (tcp, peer) in [(&peers[0], &driver), (&peers[1], &echo)] {
        connect(
            &tcp.provided_ref::<Network>().expect("provides Network"),
            &peer.required_ref::<Network>().expect("requires Network"),
        )
        .expect("wire peer");
    }
    system.start(&echo);
    system.start(&driver);
    let rtts = rx
        .recv_timeout(WAIT + budget)
        .expect("echo exchange finishes");
    let first = born.elapsed();
    system.shutdown();
    (rtts, first)
}

/// The same exchange over one `LocalNetwork`: `localnet.hop_ns`.
fn localnet_hop_ns(value: &[u8]) -> f64 {
    const ROUNDS: usize = 50_000;
    let system = system();
    let lan = system.create(LocalNetwork::new);
    system.start(&lan);
    let (a, b) = (Address::sim(1), Address::sim(2));
    let (role, rx) = drive(b, value, 1, ROUNDS, WAIT);
    let echo = system.create(|| NetPeer::new(b, Role::Echo));
    let driver = system.create(|| NetPeer::new(a, role));
    for (peer, addr) in [(&driver, a), (&echo, b)] {
        LocalNetwork::attach(
            &lan,
            &peer.required_ref::<Network>().expect("requires Network"),
            addr,
        )
        .expect("attach peer");
    }
    system.start(&echo);
    let start = Instant::now();
    system.start(&driver);
    let rtts = rx.recv_timeout(WAIT).expect("local exchange finishes");
    let ns = start.elapsed().as_nanos() as f64 / (2 * rtts.len()) as f64;
    system.shutdown();
    ns
}

/// The 12 messages of one operation: 3 × (ReadQuery, ReadReply, WriteQuery,
/// WriteAck). Gets and puts put the value on the same two of them.
fn one_operation(value: &[u8]) -> Vec<EventRef> {
    let mut msgs: Vec<EventRef> = Vec::new();
    let coordinator = Address::local(7001, 1000);
    for replica in 1..=NODES as u64 {
        let base = Message::new(
            coordinator,
            Address::local(7000 + replica as u16, replica * 1000),
        );
        let tag = Tag {
            seq: 41,
            writer: 1000,
        };
        msgs.push(Arc::new(ReadQueryMsg {
            base,
            rid: 77,
            key: RingKey(0x5eed),
        }));
        msgs.push(Arc::new(ReadReplyMsg {
            base: base.reply(),
            rid: 77,
            tag,
            value: Some(value.to_vec()),
        }));
        msgs.push(Arc::new(WriteQueryMsg {
            base,
            rid: 77,
            key: RingKey(0x5eed),
            tag,
            value: Some(value.to_vec()),
        }));
        msgs.push(Arc::new(WriteAckMsg {
            base: base.reply(),
            rid: 77,
        }));
    }
    msgs
}

/// Replays one operation's messages through the registry: (encode ns per
/// operation, decode ns per operation, frame bytes per operation).
fn codec_per_op(value: &[u8]) -> (f64, f64, f64) {
    /// `[u32 length][u8 flags]` precede every tag-and-body on the wire.
    const FRAMING: usize = 5;
    let rounds = (40_000_000 / (value.len() + 200)).clamp(200, 20_000);
    let registry = registry();
    let msgs = one_operation(value);
    let mut buf: Vec<u8> = Vec::new();
    let mut frames: Vec<(u64, bytes::Bytes)> = Vec::new();
    let mut wire_bytes = 0usize;
    for m in &msgs {
        buf.clear();
        let (tag, body_at) = registry
            .encode_into(m.as_ref(), &mut buf)
            .expect("registered");
        wire_bytes += FRAMING + buf.len();
        frames.push((tag, bytes::Bytes::from(buf[body_at..].to_vec())));
    }
    let start = Instant::now();
    for _ in 0..rounds {
        for m in &msgs {
            buf.clear();
            std::hint::black_box(
                registry
                    .encode_into(m.as_ref(), &mut buf)
                    .expect("registered"),
            );
        }
    }
    let encode = start.elapsed().as_nanos() as f64 / rounds as f64;
    let start = Instant::now();
    for _ in 0..rounds {
        for (tag, body) in &frames {
            std::hint::black_box(registry.decode_shared(*tag, body).expect("decodes"));
        }
    }
    let decode = start.elapsed().as_nanos() as f64 / rounds as f64;
    (encode, decode, wire_bytes as f64)
}

#[derive(Debug, Clone)]
struct Fired {
    base: Timeout,
    due: Instant,
}
impl_event!(Fired, extends Timeout, via base);

/// Records how late each timeout fired.
struct TimerClient {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    timer: RequiredPort<Timer>,
    late: Sender<u64>,
}

impl TimerClient {
    fn new(late: Sender<u64>) -> TimerClient {
        let timer: RequiredPort<Timer> = RequiredPort::new();
        timer.subscribe(|this: &mut TimerClient, f: &Fired| {
            let _ = this.late.send(f.due.elapsed().as_nanos() as u64);
        });
        TimerClient {
            ctx: ComponentContext::new(),
            timer,
            late,
        }
    }
}

impl ComponentDefinition for TimerClient {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "KbenchTimerClient"
    }
}

/// (`timer.lateness_p50_us`, `timer.lateness_p99_us`, `timer.arm_cancel_ns`)
/// through the `Timer` port of a `ThreadTimer`.
fn timer_probe(rng: &mut Rng) -> (f64, f64, f64) {
    const TIMEOUTS: usize = 1000;
    const PAIRS: u64 = 20_000;
    let system = system();
    let (tx, rx) = channel();
    let timer = system.create(ThreadTimer::new);
    let client = system.create(move || TimerClient::new(tx));
    let port = timer.provided_ref::<Timer>().expect("provides Timer");
    connect(
        &port,
        &client.required_ref::<Timer>().expect("requires Timer"),
    )
    .expect("wire timer");
    system.start(&timer);
    system.start(&client);
    let arm = |delay: Duration| {
        let id = TimeoutId::fresh();
        let fired = Fired {
            base: Timeout { id },
            due: Instant::now() + delay,
        };
        port.trigger(ScheduleTimeout::new(delay, id, Arc::new(fired)))
            .expect("Timer accepts ScheduleTimeout");
        id
    };
    for _ in 0..TIMEOUTS {
        arm(Duration::from_micros(1_000 + rng.below(49_000)));
        // Spaced out, so that lateness is the timer thread's and not the
        // queue of a burst of requests.
        std::thread::sleep(Duration::from_micros(50));
    }
    let mut late: Vec<u64> = (0..TIMEOUTS)
        .map(|_| rx.recv_timeout(WAIT).expect("timeout fires"))
        .collect();
    late.sort_unstable();
    // ABD arms one timeout per operation; a cancelled one costs the timer
    // an arm and a cancel. The requests queue in order, so the sentinel
    // fires only after all of them have been handled.
    let start = Instant::now();
    for _ in 0..PAIRS {
        let id = arm(Duration::from_secs(3600));
        port.trigger(CancelTimeout { id })
            .expect("Timer accepts CancelTimeout");
    }
    arm(Duration::ZERO);
    rx.recv_timeout(WAIT).expect("sentinel fires");
    let pair_ns = start.elapsed().as_nanos() as f64 / PAIRS as f64;
    system.shutdown();
    (
        quantile(&late, 0.50) as f64 / 1e3,
        quantile(&late, 0.99) as f64 / 1e3,
        pair_ns,
    )
}

/// The probes of the layers a request workload crosses. `seconds` bounds
/// the TCP probes, the only ones whose length depends on the machine.
pub fn request_layers(w: &RequestWorkload, seed: &Rng, seconds: f64, out: &mut Outcome) {
    let mut rng = seed.fork(9);
    let value = Values::new(w.value_bytes, seed.fork(1)).make(Stamp {
        key_rank: 0,
        version: 1,
        clean: true,
    });
    out.set("core.dispatch_ns", dispatch_ns());
    out.set("core.pingpong_hop_ns", pingpong_hop_ns());
    let (p50, p99, pair) = timer_probe(&mut rng);
    out.set("timer.lateness_p50_us", p50);
    out.set("timer.lateness_p99_us", p99);
    out.set("timer.arm_cancel_ns", pair);
    if w.transport == Transport::Local {
        out.set("localnet.hop_ns", localnet_hop_ns(&value));
        return;
    }
    let (encode, decode, bytes) = codec_per_op(&value);
    out.set("codec.encode_ns_per_op", encode);
    out.set("codec.decode_ns_per_op", decode);
    out.set("codec.wire_bytes_per_op", bytes);
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let (mut rtts, _) = tcp_pair(&value, 1, 2000, budget);
    rtts.sort_unstable();
    out.set("tcp.echo_rtt_p50_us", quantile(&rtts, 0.50) as f64 / 1e3);
    if quantile_supported(rtts.len(), 0.99) {
        out.set("tcp.echo_rtt_p99_us", quantile(&rtts, 0.99) as f64 / 1e3);
    }
    let start = Instant::now();
    let (echoes, _) = tcp_pair(&value, 64, usize::MAX, budget);
    out.set(
        "tcp.echo_msgs_per_s",
        echoes.len() as f64 / start.elapsed().as_secs_f64(),
    );
    let firsts: Vec<f64> = (0..3)
        .map(|_| tcp_pair(&value, 1, 1, WAIT).1.as_secs_f64() * 1e3)
        .collect();
    out.set("tcp.connect_first_msg_ms", median(&firsts));
}

/// A component that re-arms one simulated timeout until `rounds` fired.
struct SimTimerClient {
    ctx: ComponentContext,
    timer: RequiredPort<Timer>,
    left: u64,
}

impl SimTimerClient {
    fn new(rounds: u64) -> SimTimerClient {
        let timer: RequiredPort<Timer> = RequiredPort::new();
        timer.subscribe(|this: &mut SimTimerClient, _t: &Timeout| this.arm());
        let ctx = ComponentContext::new();
        ctx.subscribe_control(|this: &mut SimTimerClient, _s: &Start| this.arm());
        SimTimerClient {
            ctx,
            timer,
            left: rounds,
        }
    }

    fn arm(&mut self) {
        if self.left > 0 {
            self.left -= 1;
            let id = TimeoutId::fresh();
            self.timer.trigger(ScheduleTimeout::new(
                Duration::from_millis(10),
                id,
                Arc::new(Timeout { id }),
            ));
        }
    }
}

impl ComponentDefinition for SimTimerClient {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "KbenchSimTimerClient"
    }
}

/// The probes of the simulation layers: (`des.event_ns`, `emulator.msg_ns`,
/// `simtimer.arm_fire_ns`), each wall nanoseconds per unit of work.
pub fn simulation_layers(seed: u64) -> (f64, f64, f64) {
    const EVENTS: u64 = 200_000;
    const MESSAGES: usize = 50_000;
    const TIMEOUTS: u64 = 100_000;

    let sim = Simulation::new(seed);
    let start = Instant::now();
    for i in 0..EVENTS {
        sim.des().schedule_at(i * 1_000, || {});
    }
    sim.run_to_completion();
    let event_ns = start.elapsed().as_nanos() as f64 / EVENTS as f64;
    sim.shutdown();

    let sim = Simulation::new(seed);
    let (des, rng) = (sim.des().clone(), sim.rng().clone());
    let emulator = sim
        .system()
        .create(move || NetworkEmulator::new(des, rng, EmulatorConfig::default()));
    sim.system().start(&emulator);
    let (a, b) = (Address::sim(1), Address::sim(2));
    let (role, rx) = drive(b, &[7u8; 64], 1, MESSAGES / 2, WAIT);
    let echo = sim.system().create(|| NetPeer::new(b, Role::Echo));
    let driver = sim.system().create(|| NetPeer::new(a, role));
    for (peer, addr) in [(&driver, a), (&echo, b)] {
        NetworkEmulator::attach(
            &emulator,
            &peer.required_ref::<Network>().expect("requires Network"),
            addr,
        )
        .expect("attach peer");
    }
    sim.system().start(&echo);
    let start = Instant::now();
    sim.system().start(&driver);
    sim.run_to_completion();
    let msg_ns = start.elapsed().as_nanos() as f64 / MESSAGES as f64;
    assert_eq!(rx.try_recv().map(|r| r.len()), Ok(MESSAGES / 2));
    sim.shutdown();

    let sim = Simulation::new(seed);
    let des = sim.des().clone();
    let timer = sim.system().create(move || SimTimer::new(des));
    let client = sim.system().create(|| SimTimerClient::new(TIMEOUTS));
    connect(
        &timer.provided_ref::<Timer>().expect("provides Timer"),
        &client.required_ref::<Timer>().expect("requires Timer"),
    )
    .expect("wire timer");
    sim.system().start(&timer);
    let start = Instant::now();
    sim.system().start(&client);
    sim.run_to_completion();
    let timer_ns = start.elapsed().as_nanos() as f64 / TIMEOUTS as f64;
    sim.shutdown();
    (event_ns, msg_ns, timer_ns)
}
