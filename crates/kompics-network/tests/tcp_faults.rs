//! Fault-path tests for the TCP transport, driven through the scriptable
//! proxy in `support/proxy.rs`: a connection reset in the middle of a
//! vectored write, a peer that stops reading, simultaneous dials under the
//! HELLO mux, and shutdown with frames queued. Nothing here asserts a
//! timing tighter than seconds; the mechanisms are pinned by counts.
//!
//! The tests census the process's `tcp-*` threads, so they run one at a
//! time (`serial()`), whatever `--test-threads` says.

#[path = "support/proxy.rs"]
mod proxy;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, MutexGuard};
use std::time::{Duration, Instant};

use kompics_core::channel::connect;
use kompics_core::component::{Component, LifecycleState};
use kompics_core::prelude::*;
use kompics_network::{
    Address, DeadLetter, Message, MessageRegistry, Network, TcpConfig, TcpNetwork,
};
use parking_lot::Mutex;
use proxy::{Mode, Proxy};
use serde::{Deserialize, Serialize};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Seq {
    base: Message,
    seq: u32,
    data: Vec<u8>,
}
impl_event!(Seq, extends Message, via base);

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Ping {
    base: Message,
    n: u32,
}
impl_event!(Ping, extends Message, via base);

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Pong {
    base: Message,
    n: u32,
}
impl_event!(Pong, extends Message, via base);

fn registry() -> Arc<MessageRegistry> {
    let mut r = MessageRegistry::new();
    r.register::<Seq>(1).unwrap();
    r.register::<Ping>(2).unwrap();
    r.register::<Pong>(3).unwrap();
    Arc::new(r)
}

/// `len` bytes that depend on `seq` and do not compress.
fn payload(seq: u32, len: usize) -> Vec<u8> {
    let mut x = u64::from(seq).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[derive(Default)]
struct Seen {
    /// `Seq::seq` in arrival order.
    seqs: Mutex<Vec<u32>>,
    /// Arrivals whose bytes were not `payload(seq, len)`.
    corrupt: AtomicUsize,
    pings: AtomicUsize,
    pongs: Mutex<Vec<u32>>,
    dead: Mutex<Vec<String>>,
}

impl Seen {
    fn dead_matching(&self, what: &str) -> usize {
        self.dead.lock().iter().filter(|r| r.contains(what)).count()
    }
}

/// Records what arrives; answers every `Ping` with a `Pong`.
struct Node {
    ctx: ComponentContext,
    net: RequiredPort<Network>,
    seen: Arc<Seen>,
}

impl Node {
    fn new(seen: Arc<Seen>) -> Self {
        let net = RequiredPort::new();
        net.subscribe(|this: &mut Node, m: &Seq| {
            if m.data != payload(m.seq, m.data.len()) {
                this.seen.corrupt.fetch_add(1, Ordering::SeqCst);
            }
            this.seen.seqs.lock().push(m.seq);
        });
        net.subscribe(|this: &mut Node, ping: &Ping| {
            this.seen.pings.fetch_add(1, Ordering::SeqCst);
            this.net.trigger(Pong {
                base: ping.base.reply(),
                n: ping.n,
            });
        });
        net.subscribe(|this: &mut Node, pong: &Pong| this.seen.pongs.lock().push(pong.n));
        net.subscribe(|this: &mut Node, dl: &DeadLetter| {
            this.seen.dead.lock().push(dl.reason.clone());
        });
        Node {
            ctx: ComponentContext::new(),
            net,
            seen,
        }
    }
}

impl ComponentDefinition for Node {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Node"
    }
}

struct Fixture {
    node: Component<Node>,
    tcp: Component<TcpNetwork>,
    addr: Address,
    seen: Arc<Seen>,
}

impl Fixture {
    fn new(system: &KompicsSystem, id: u64, config: TcpConfig) -> Fixture {
        let (addr, listener) = TcpNetwork::bind(Address::local(0, id)).unwrap();
        let tcp = system.create(move || TcpNetwork::new(addr, listener, registry(), config));
        let seen = Arc::new(Seen::default());
        let node = system.create({
            let seen = Arc::clone(&seen);
            move || Node::new(seen)
        });
        connect(
            &tcp.provided_ref::<Network>().unwrap(),
            &node.required_ref::<Network>().unwrap(),
        )
        .unwrap();
        system.start(&tcp);
        system.start(&node);
        Fixture {
            node,
            tcp,
            addr,
            seen,
        }
    }

    /// Triggers `Seq` messages `seqs` of `len` bytes toward `to`, all from
    /// one closure on the node.
    fn send_seqs(&self, to: Address, seqs: std::ops::Range<u32>, len: usize) {
        let from = self.addr;
        self.node
            .on_definition(move |n| {
                for seq in seqs {
                    n.net.trigger(Seq {
                        base: Message::new(from, to),
                        seq,
                        data: payload(seq, len),
                    });
                }
            })
            .unwrap();
    }

    fn ping(&self, to: Address, n: u32) {
        let base = Message::new(self.addr, to);
        self.node
            .on_definition(move |node| node.net.trigger(Ping { base, n }))
            .unwrap();
    }

    /// (sent, outbound_dropped) of the transport.
    fn accounted(&self) -> (u64, u64) {
        self.tcp
            .on_definition(|t| (t.message_stats().0, t.overload_stats().0))
            .unwrap()
    }

    /// Kills the transport and waits for its definition to be dropped;
    /// returns how long that took.
    fn kill_tcp(&self, system: &KompicsSystem) -> Duration {
        let started = Instant::now();
        system.kill(&self.tcp);
        wait_until("transport destroyed", Duration::from_secs(5), || {
            self.tcp.lifecycle() == LifecycleState::Destroyed
        });
        started.elapsed()
    }
}

fn wait_until(what: &str, limit: Duration, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// An address that reaches `target`'s node through `proxy`.
fn via(proxy: &Proxy, target: &Fixture) -> Address {
    Address::local(proxy.addr.port(), target.addr.id)
}

/// Names of this process's live threads that start with `prefix`.
fn threads_named(prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with(prefix))
        .collect();
    names.sort();
    names
}

/// Established connections whose local end is `port` — for a listen port,
/// the sockets accepted on it.
fn established_on(port: u16) -> usize {
    let table = std::fs::read_to_string("/proc/net/tcp").expect("procfs");
    table
        .lines()
        .skip(1)
        .filter(|line| {
            let mut fields = line.split_whitespace().skip(1);
            let local = fields.next().unwrap_or_default();
            let state = fields.nth(1).unwrap_or_default();
            local.ends_with(&format!(":{port:04X}")) && state == "01"
        })
        .count()
}

fn strictly_increasing(seqs: &[u32]) -> bool {
    seqs.windows(2).all(|w| w[0] < w[1])
}

/// (a) The connection is cut after 1 MiB of a 4 MiB stream of 8 KiB frames:
/// the sender re-dials once and carries on from the first frame the kernel
/// had not fully taken. Frames that were in flight inside the dead
/// connection are gone (TCP promised nothing else), but nothing arrives
/// twice or out of order, and every message is accounted for.
#[test]
fn reset_mid_vectored_write_redials_once_and_keeps_fifo() {
    let _serial = serial();
    const N: u32 = 500;
    const LEN: usize = 8 * 1024;
    let system = KompicsSystem::new(Config::default().workers(2));
    let a = Fixture::new(&system, 1, TcpConfig::default());
    let b = Fixture::new(&system, 2, TcpConfig::default());
    let proxy = Proxy::start(b.addr.socket_addr());
    proxy.set_mode(Mode::ResetAfter { bytes: 1 << 20 });

    a.send_seqs(via(&proxy, &b), 0..N, LEN);

    wait_until("the last frame", Duration::from_secs(20), || {
        b.seen.seqs.lock().last() == Some(&(N - 1))
    });
    assert_eq!(proxy.resets(), 1);
    assert_eq!(proxy.accepted(), 2, "one dial, one re-dial");
    let got = b.seen.seqs.lock().clone();
    assert!(strictly_increasing(&got), "FIFO, no duplicates: {got:?}");
    assert!(
        got.len() >= 100,
        "at least what the first connection carried: {}",
        got.len()
    );
    assert_eq!(b.seen.corrupt.load(Ordering::SeqCst), 0);
    let (sent, dropped) = a.accounted();
    assert_eq!(sent + dropped, u64::from(N), "sent + outbound_dropped");
    assert_eq!(dropped, 0);
    assert!(a.seen.dead.lock().is_empty(), "{:?}", a.seen.dead.lock());
    system.shutdown();
}

/// Replaces the unit test of the old `Disconnected` arm: a write error on
/// an established connection re-dials once, and when that fails every
/// queued frame is a "cannot reach" `DeadLetter` and the route is idle, so
/// the next send dials afresh.
#[test]
fn write_error_with_the_peer_gone_dead_letters_the_queue_and_frees_the_route() {
    let _serial = serial();
    const N: u32 = 150;
    const LEN: usize = 64 * 1024;
    let system = KompicsSystem::new(Config::default().workers(2));
    let config = TcpConfig {
        connect_retries: 1,
        ..TcpConfig::default()
    };
    let a = Fixture::new(&system, 1, config);
    // A peer that accepts and never reads, then vanishes, listener first.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = Address::local(listener.local_addr().unwrap().port(), 2);
    a.send_seqs(peer, 0..N, LEN);
    let (stream, _) = listener.accept().unwrap();
    wait_until("all frames queued", Duration::from_secs(10), || {
        a.accounted().0 == u64::from(N)
    });
    drop(listener);
    drop(stream);

    // The failed re-dial reports the queue from its own thread, then exits.
    wait_until("the queue to be given up", Duration::from_secs(10), || {
        a.seen.dead_matching("cannot reach") > 0 && threads_named("tcp-dial-").is_empty()
    });
    system.await_quiescence();
    // ~10 MB were queued against a few MB of socket buffer.
    let lost = a.seen.dead_matching("cannot reach");
    assert!(lost > 20 && lost < N as usize, "{lost} of {N}");
    assert_eq!(a.seen.dead.lock().len(), lost, "{:?}", a.seen.dead.lock());
    assert_eq!(a.accounted(), (u64::from(N), 0));

    // Same endpoint, new listener: the idle route dials again.
    let b = std::net::TcpListener::bind(peer.socket_addr()).unwrap();
    a.ping(peer, 7);
    let (mut stream, _) = b.accept().unwrap();
    let mut hello = [0u8; 11];
    std::io::Read::read_exact(&mut stream, &mut hello).unwrap();
    assert_eq!(hello[4], 0b10, "a fresh connection starts with a hello");
    system.shutdown();
}

/// (b) A peer that accepts and never reads costs its own route a full
/// queue and nothing else: sends to it fail fast once the queue is full, a
/// third node is served meanwhile, and when the peer reads again exactly
/// the accepted messages arrive, in order.
#[test]
fn stalled_peer_fills_its_own_queue_and_nobody_elses() {
    let _serial = serial();
    const QUEUE: usize = 8;
    const LEN: usize = 64 * 1024;
    const BATCH: u32 = 16;
    let system = KompicsSystem::new(Config::default().workers(2));
    let config = TcpConfig {
        outbound_queue: QUEUE,
        ..TcpConfig::default()
    };
    let a = Fixture::new(&system, 1, config);
    let b = Fixture::new(&system, 2, TcpConfig::default());
    let c = Fixture::new(&system, 3, TcpConfig::default());
    let proxy = Proxy::start(b.addr.socket_addr());
    proxy.set_mode(Mode::Stall);
    let stalled = via(&proxy, &b);

    // Fill the kernel's buffers (which grow for a while), then the queue,
    // until a whole batch is shed: from then on the route takes nothing.
    let mut triggered = 0u32;
    loop {
        assert!(triggered < 4_096, "256 MiB did not fill a stalled socket");
        let (sent_before, _) = a.accounted();
        a.send_seqs(stalled, triggered..triggered + BATCH, LEN);
        triggered += BATCH;
        // "Fail fast": the shed sends are accounted without waiting for
        // the peer.
        wait_until("the batch to be accounted", Duration::from_secs(10), || {
            let (sent, dropped) = a.accounted();
            sent + dropped == u64::from(triggered)
        });
        if a.accounted().0 == sent_before {
            break;
        }
    }
    let (sent, dropped) = a.accounted();
    assert!(dropped >= u64::from(BATCH));
    wait_until("the dead letters", Duration::from_secs(5), || {
        a.seen.dead.lock().len() as u64 == dropped
    });
    assert_eq!(a.seen.dead_matching("outbound queue full") as u64, dropped);

    // One dead peer does not take a worker, or the I/O loop, with it.
    let asked = Instant::now();
    a.ping(c.addr, 1);
    wait_until("pong from the healthy node", Duration::from_secs(1), || {
        *a.seen.pongs.lock() == [1]
    });
    assert!(asked.elapsed() < Duration::from_secs(1));
    assert_eq!(proxy.mode(), Mode::Stall, "the stall lasted throughout");
    assert!(b.seen.seqs.lock().is_empty());

    // The peer reads again: what was accepted arrives, all of it, in order.
    proxy.set_mode(Mode::Forward);
    wait_until("the backlog", Duration::from_secs(20), || {
        b.seen.seqs.lock().len() as u64 == sent
    });
    let got = b.seen.seqs.lock().clone();
    assert!(strictly_increasing(&got), "{got:?}");
    assert_eq!(b.seen.corrupt.load(Ordering::SeqCst), 0);
    assert_eq!(a.accounted(), (sent + 1, dropped), "plus the ping");
    system.shutdown();
}

/// (c) Two nodes dial each other at the same instant. Whatever the
/// interleaving of the two hellos, every message arrives both ways and the
/// pair ends up with at most two sockets (one per direction at worst, one
/// shared at best) — never a third from a re-dial.
#[test]
fn simultaneous_dials_deliver_both_ways_over_at_most_two_sockets() {
    let _serial = serial();
    let system = KompicsSystem::new(Config::default().workers(2));
    for round in 0..100u32 {
        let a = Arc::new(Fixture::new(&system, 1, TcpConfig::default()));
        let b = Arc::new(Fixture::new(&system, 2, TcpConfig::default()));
        let barrier = Arc::new(Barrier::new(2));
        let dialers: Vec<_> = [(&a, &b), (&b, &a)]
            .into_iter()
            .map(|(from, to)| {
                let (from, to, barrier) = (Arc::clone(from), to.addr, Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    from.ping(to, round);
                })
            })
            .collect();
        for dialer in dialers {
            dialer.join().unwrap();
        }
        wait_until("both pongs", Duration::from_secs(5), || {
            *a.seen.pongs.lock() == [round] && *b.seen.pongs.lock() == [round]
        });
        // The routes the hellos settled on keep working.
        a.ping(b.addr, round + 1);
        b.ping(a.addr, round + 1);
        wait_until("second pongs", Duration::from_secs(5), || {
            a.seen.pongs.lock().len() == 2 && b.seen.pongs.lock().len() == 2
        });
        assert_eq!(a.seen.pings.load(Ordering::SeqCst), 2);
        assert_eq!(b.seen.pings.load(Ordering::SeqCst), 2);
        let sockets = established_on(a.addr.port) + established_on(b.addr.port);
        assert!(
            (1..=2).contains(&sockets),
            "round {round}: {sockets} sockets"
        );
        a.kill_tcp(&system);
        b.kill_tcp(&system);
    }
    system.shutdown();
}

/// (d) Thirty transports are built, used and dropped, one of them with its
/// queue full toward a stalled peer. Each drop joins its I/O thread in
/// bounded time and no transport thread outlives its transport.
#[test]
fn dropped_transports_join_their_threads_promptly_even_with_frames_queued() {
    let _serial = serial();
    assert_eq!(threads_named("tcp-"), Vec::<String>::new());
    let system = KompicsSystem::new(Config::default().workers(2));
    let sink = Fixture::new(&system, 99, TcpConfig::default());
    let proxy = Proxy::start(sink.addr.socket_addr());
    proxy.set_mode(Mode::Stall);
    let small_queue = TcpConfig {
        outbound_queue: 8,
        ..TcpConfig::default()
    };
    let nodes: Vec<Fixture> = (0..30)
        .map(|id| Fixture::new(&system, id, small_queue.clone()))
        .collect();

    // Use every transport: a ring of pings.
    for (i, node) in nodes.iter().enumerate() {
        node.ping(nodes[(i + 1) % nodes.len()].addr, i as u32);
    }
    for (i, node) in nodes.iter().enumerate() {
        wait_until("ring pong", Duration::from_secs(5), || {
            *node.seen.pongs.lock() == [i as u32]
        });
    }
    // And leave one with a full queue behind a socket that takes no more.
    let (ring_traffic, _) = nodes[0].accounted();
    let mut triggered = 0;
    while nodes[0].seen.dead_matching("outbound queue full") == 0 {
        nodes[0].send_seqs(via(&proxy, &sink), triggered..triggered + 16, 64 * 1024);
        triggered += 16;
        wait_until("the batch to be accounted", Duration::from_secs(10), || {
            let (sent, dropped) = nodes[0].accounted();
            sent + dropped == ring_traffic + u64::from(triggered)
        });
    }
    assert_eq!(threads_named("tcp-io-").len(), 31, "one loop per transport");

    for node in &nodes {
        let took = node.kill_tcp(&system);
        assert!(took < Duration::from_millis(500), "drop took {took:?}");
    }
    sink.kill_tcp(&system);
    wait_until(
        "transport threads to be gone",
        Duration::from_secs(1),
        || threads_named("tcp-").is_empty(),
    );
    system.shutdown();
}

/// Steady state is one transport thread per node: no per-peer readers or
/// writers, no acceptor, and the dialers are gone once connected.
#[test]
fn three_connected_nodes_run_three_transport_threads() {
    let _serial = serial();
    let system = KompicsSystem::new(Config::default().workers(2));
    let nodes: Vec<Fixture> = (1..=3)
        .map(|id| Fixture::new(&system, id, TcpConfig::default()))
        .collect();
    // Everyone talks to everyone, itself included (as a CATS node does).
    for from in &nodes {
        for (n, to) in nodes.iter().enumerate() {
            from.ping(to.addr, n as u32);
        }
    }
    for node in &nodes {
        wait_until("three pongs", Duration::from_secs(5), || {
            node.seen.pongs.lock().len() == 3
        });
    }
    let expected: Vec<String> = {
        let mut names: Vec<String> = nodes
            .iter()
            .map(|n| format!("tcp-io-{}", n.addr.port))
            .collect();
        names.sort();
        names
    };
    wait_until("dialers to exit", Duration::from_secs(5), || {
        threads_named("tcp-") == expected
    });
    system.shutdown();
}
