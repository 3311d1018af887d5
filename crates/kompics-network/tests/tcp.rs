//! End-to-end tests for the TCP transport: two transports over loopback,
//! framing of large/compressed payloads, and dead-letter reporting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kompics_core::channel::connect;
use kompics_core::mailbox::{MailboxSpec, OverloadPolicy};
use kompics_core::prelude::*;
use kompics_network::{
    Address, DeadLetter, Message, MessageRegistry, Network, TcpConfig, TcpNetwork,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Ping {
    base: Message,
    round: u32,
}
impl_event!(Ping, extends Message, via base);

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Blob {
    base: Message,
    data: Vec<u8>,
}
impl_event!(Blob, extends Message, via base);

fn registry() -> Arc<MessageRegistry> {
    let mut r = MessageRegistry::new();
    r.register::<Ping>(1).unwrap();
    r.register::<Blob>(2).unwrap();
    Arc::new(r)
}

/// A node that records pings/blobs and pongs back until round 3.
struct Node {
    ctx: ComponentContext,
    net: RequiredPort<Network>,
    addr: Address,
    pings: Arc<Mutex<Vec<u32>>>,
    blobs: Arc<Mutex<Vec<Vec<u8>>>>,
    dead: Arc<Mutex<Vec<String>>>,
    count: Arc<AtomicUsize>,
}

impl Node {
    fn new(
        addr: Address,
        count: Arc<AtomicUsize>,
        pings: Arc<Mutex<Vec<u32>>>,
        blobs: Arc<Mutex<Vec<Vec<u8>>>>,
        dead: Arc<Mutex<Vec<String>>>,
    ) -> Self {
        let net = RequiredPort::new();
        net.subscribe(|this: &mut Node, ping: &Ping| {
            this.pings.lock().push(ping.round);
            this.count.fetch_add(1, Ordering::SeqCst);
            if ping.round < 3 {
                this.net.trigger(Ping {
                    base: ping.base.reply(),
                    round: ping.round + 1,
                });
            }
        });
        net.subscribe(|this: &mut Node, blob: &Blob| {
            this.blobs.lock().push(blob.data.clone());
            this.count.fetch_add(1, Ordering::SeqCst);
        });
        net.subscribe(|this: &mut Node, dl: &DeadLetter| {
            this.dead.lock().push(dl.reason.clone());
            this.count.fetch_add(1, Ordering::SeqCst);
        });
        Node {
            ctx: ComponentContext::new(),
            net,
            addr,
            pings,
            blobs,
            dead,
            count,
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
    #[allow(dead_code)] // keeps the system handle alive per node
    system: KompicsSystem,
    node: kompics_core::component::Component<Node>,
    tcp: kompics_core::component::Component<TcpNetwork>,
    addr: Address,
    count: Arc<AtomicUsize>,
    pings: Arc<Mutex<Vec<u32>>>,
    blobs: Arc<Mutex<Vec<Vec<u8>>>>,
    dead: Arc<Mutex<Vec<String>>>,
}

fn make_node(system: &KompicsSystem, id: u64, config: TcpConfig) -> Fixture {
    let (addr, listener) = TcpNetwork::bind(Address::local(0, id)).unwrap();
    let reg = registry();
    let tcp = system.create(move || TcpNetwork::new(addr, listener, reg, config));
    let count = Arc::new(AtomicUsize::new(0));
    let pings = Arc::new(Mutex::new(Vec::new()));
    let blobs = Arc::new(Mutex::new(Vec::new()));
    let dead = Arc::new(Mutex::new(Vec::new()));
    let node = system.create({
        let (c, p, b, d) = (count.clone(), pings.clone(), blobs.clone(), dead.clone());
        move || Node::new(addr, c, p, b, d)
    });
    connect(
        &tcp.provided_ref::<Network>().unwrap(),
        &node.required_ref::<Network>().unwrap(),
    )
    .unwrap();
    system.start(&tcp);
    system.start(&node);
    Fixture {
        system: system.clone(),
        node,
        tcp,
        addr,
        count,
        pings,
        blobs,
        dead,
    }
}

fn wait_for(count: &AtomicUsize, target: usize, timeout_ms: u64) -> bool {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    while Instant::now() < deadline {
        if count.load(Ordering::SeqCst) >= target {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn ping_pong_over_loopback_tcp() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let a = make_node(&system, 1, TcpConfig::default());
    let b = make_node(&system, 2, TcpConfig::default());

    a.node
        .on_definition(|n| {
            n.net.trigger(Ping {
                base: Message::new(n.addr, b.addr),
                round: 0,
            })
        })
        .unwrap();
    // Rounds: b gets 0, a gets 1, b gets 2, a gets 3.
    assert!(wait_for(&b.count, 2, 5_000), "b should receive two pings");
    assert!(wait_for(&a.count, 2, 5_000), "a should receive two pings");
    assert_eq!(*b.pings.lock(), vec![0, 2]);
    assert_eq!(*a.pings.lock(), vec![1, 3]);
    let (sent, received) = a.tcp.on_definition(|t| t.message_stats()).unwrap();
    assert_eq!(sent, 2);
    assert_eq!(received, 2);
    system.shutdown();
}

#[test]
fn large_compressible_payload_roundtrips_and_shrinks() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let a = make_node(&system, 1, TcpConfig::default());
    let b = make_node(&system, 2, TcpConfig::default());

    let data = vec![0x42u8; 64 * 1024];
    a.node
        .on_definition({
            let data = data.clone();
            let dest = b.addr;
            move |n| {
                n.net.trigger(Blob {
                    base: Message::new(n.addr, dest),
                    data,
                });
            }
        })
        .unwrap();
    assert!(wait_for(&b.count, 1, 5_000));
    assert_eq!(b.blobs.lock()[0], data);
    let (bytes_sent, _) = a.tcp.on_definition(|t| t.byte_stats()).unwrap();
    assert!(
        bytes_sent < 4096,
        "64 KiB constant payload should compress, sent {bytes_sent} bytes"
    );
    system.shutdown();
}

#[test]
fn incompressible_payload_roundtrips() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let a = make_node(&system, 1, TcpConfig::default());
    let b = make_node(&system, 2, TcpConfig::default());

    let data: Vec<u8> = (0..10_000u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    a.node
        .on_definition({
            let data = data.clone();
            let dest = b.addr;
            move |n| {
                n.net.trigger(Blob {
                    base: Message::new(n.addr, dest),
                    data,
                })
            }
        })
        .unwrap();
    assert!(wait_for(&b.count, 1, 5_000));
    assert_eq!(b.blobs.lock()[0], data);
    system.shutdown();
}

#[test]
fn unreachable_destination_yields_dead_letter() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let config = TcpConfig {
        connect_retries: 1,
        connect_retry_delay: Duration::from_millis(5),
        ..TcpConfig::default()
    };
    let a = make_node(&system, 1, config);
    // Port 1 on loopback: nothing listens there.
    let bogus = Address::local(1, 99);
    a.node
        .on_definition(move |n| {
            n.net.trigger(Ping {
                base: Message::new(n.addr, bogus),
                round: 0,
            })
        })
        .unwrap();
    assert!(wait_for(&a.count, 1, 5_000), "dead letter should arrive");
    assert!(a.dead.lock()[0].contains("cannot reach"));
    system.shutdown();
}

/// The outbound bound is exact. While a route is dialing nobody drains its
/// queue, so of `N` sends exactly `QUEUE` are accepted and `N − QUEUE` are
/// shed at once; when the dial gives up, the `QUEUE` accepted ones are
/// reported unreachable. Every message is counted exactly once.
#[test]
fn full_outbound_queue_dead_letters_instead_of_growing_unbounded() {
    const QUEUE: usize = 4;
    const N: usize = 20;
    let system = KompicsSystem::new(Config::default().workers(2));
    // A tiny bounded queue and a dial pinned down in reconnection backoff:
    // the queue must fill and further sends must fail fast.
    let config = TcpConfig {
        connect_retries: 3,
        connect_retry_delay: Duration::from_millis(200),
        connect_backoff_cap: Duration::from_secs(1),
        outbound_queue: QUEUE,
    };
    let a = make_node(&system, 1, config);
    let bogus = Address::local(1, 99); // nothing listens on loopback:1
    a.node
        .on_definition(move |n| {
            for i in 0..N as u32 {
                n.net.trigger(Ping {
                    base: Message::new(n.addr, bogus),
                    round: 100 + i,
                });
            }
        })
        .unwrap();
    assert!(
        wait_for(&a.count, N - QUEUE, 5_000),
        "overflowing sends dead-letter promptly, got {}",
        a.count.load(Ordering::SeqCst)
    );
    let full = |dead: &[String]| {
        dead.iter()
            .filter(|r| r.contains("outbound queue full"))
            .count()
    };
    {
        // Still dialing (the first backoff alone is ≥ 150 ms): only the
        // overflow has been reported, and it is exactly the overflow.
        let dead = a.dead.lock();
        assert_eq!(full(&dead), N - QUEUE, "{dead:?}");
        assert_eq!(dead.len(), N - QUEUE, "{dead:?}");
    }
    // A shed message is a drop, not a send: each of the N is counted
    // exactly once.
    let (sent, _) = a.tcp.on_definition(|t| t.message_stats()).unwrap();
    let (outbound_dropped, _) = a.tcp.on_definition(|t| t.overload_stats()).unwrap();
    assert_eq!(sent, QUEUE as u64);
    assert_eq!(outbound_dropped, (N - QUEUE) as u64);

    assert!(
        wait_for(&a.count, N, 5_000),
        "the dial gives up and reports the queued messages"
    );
    let dead = a.dead.lock();
    assert_eq!(full(&dead), N - QUEUE);
    let unreachable = dead.iter().filter(|r| r.contains("cannot reach")).count();
    assert_eq!(unreachable, QUEUE, "{dead:?}");
    system.shutdown();
}

/// Connections that die around `accept` — here 50 opened and dropped at
/// once, which the acceptor sees as resets, EOFs or `accept` errors
/// depending on timing — are each one failed connection, never the end of
/// the listener: a real peer still connects and delivers afterwards.
#[test]
fn listener_survives_connections_dropped_around_accept() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let a = make_node(&system, 1, TcpConfig::default());
    let b = make_node(&system, 2, TcpConfig::default());

    for _ in 0..50 {
        drop(std::net::TcpStream::connect(b.addr.socket_addr()).unwrap());
    }
    a.node
        .on_definition(|n| {
            n.net.trigger(Ping {
                base: Message::new(n.addr, b.addr),
                round: 3, // no reply
            })
        })
        .unwrap();
    assert!(wait_for(&b.count, 1, 5_000), "b still accepts and delivers");
    assert_eq!(*b.pings.lock(), vec![3]);
    let lost = b.tcp.on_definition(|t| t.accept_errors()).unwrap();
    assert!(
        lost <= 50,
        "at most one count per dropped connection: {lost}"
    );
    system.shutdown();
}

#[test]
fn many_messages_preserve_per_sender_fifo() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let a = make_node(&system, 1, TcpConfig::default());
    let b = make_node(&system, 2, TcpConfig::default());

    const N: u32 = 500;
    a.node
        .on_definition(|n| {
            let dest = b.addr;
            for i in 0..N {
                // round > 3 so b never replies.
                n.net.trigger(Ping {
                    base: Message::new(n.addr, dest),
                    round: 100 + i,
                });
            }
        })
        .unwrap();
    assert!(wait_for(&b.count, N as usize, 10_000));
    let received = b.pings.lock();
    let expected: Vec<u32> = (0..N).map(|i| 100 + i).collect();
    assert_eq!(*received, expected, "TCP delivery preserves sender order");
    system.shutdown();
}

// ---------------------------------------------------------------------------
// The two mechanisms of the send path, pinned as counts: one flush per slice
// on the sender's worker, and the hand-over to the I/O loop at `WouldBlock`.
// ---------------------------------------------------------------------------

/// Sends `count` pings to `to` from one handler execution, when started.
struct Burster {
    ctx: ComponentContext,
    net: RequiredPort<Network>,
}

impl Burster {
    fn new(from: Address, to: Address, count: u32) -> Self {
        let ctx = ComponentContext::new();
        ctx.subscribe_control(move |this: &mut Burster, _: &Start| {
            for i in 0..count {
                this.net.trigger(Ping {
                    base: Message::new(from, to),
                    round: 100 + i, // > 3: never answered
                });
            }
        });
        Burster {
            ctx,
            net: RequiredPort::new(),
        }
    }
}

impl ComponentDefinition for Burster {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Burster"
    }
}

/// One worker, so the transport cannot start on a burst before the handler
/// that produces it has returned: the 64 sends and the one `Flush` they
/// post are in its mailbox together, and the flush is one vectored write.
#[test]
fn a_slice_of_sends_shares_one_write_and_a_lone_send_gets_its_own() {
    const BURST: u32 = 64;
    let system = KompicsSystem::new(Config::default().workers(1));
    let a = make_node(&system, 1, TcpConfig::default());
    let b = make_node(&system, 2, TcpConfig::default());
    let wire = || a.tcp.on_definition(|t| t.wire_stats()).unwrap();
    let lone = |expect: usize| {
        a.node
            .on_definition(|n| {
                n.net.trigger(Ping {
                    base: Message::new(n.addr, b.addr),
                    round: 9,
                })
            })
            .unwrap();
        assert!(wait_for(&b.count, expect, 5_000));
    };

    lone(1); // dials; the dialer writes this one
    let (batched, syscalls, _) = wire();
    assert_eq!((batched, syscalls), (0, 1));

    lone(2); // idle transport, open route: exactly one write, on the worker
    assert_eq!(wire().1, 2);
    assert_eq!(wire().0, 0, "a lone frame is not a batch");

    let burster = system.create(|| Burster::new(a.addr, b.addr, BURST));
    connect(
        &a.tcp.provided_ref::<Network>().unwrap(),
        &burster.required_ref::<Network>().unwrap(),
    )
    .unwrap();
    system.start(&burster);
    assert!(wait_for(&b.count, 2 + BURST as usize, 5_000));
    let (batched, syscalls, _) = wire();
    assert!(syscalls - 2 <= 4, "{} writes for one slice", syscalls - 2);
    assert!(batched >= 60, "{batched} of {BURST} frames left in a batch");
    assert_eq!(a.tcp.on_definition(|t| t.message_stats().0).unwrap(), 66);
    system.shutdown();
}

/// First four bytes: the sequence number; the rest follows from it and
/// does not compress.
fn numbered_payload(seq: u32, len: usize) -> Vec<u8> {
    let mut x = u64::from(seq).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut data = seq.to_le_bytes().to_vec();
    data.extend((4..len).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 24) as u8
    }));
    data
}

/// A destination that cannot keep up and says so: a small `Block` lane (so
/// deliveries report pushback and the transport pauses reading) and a
/// handler that takes its time. Records the sequence numbers of the blobs
/// whose bytes were exact; acknowledges every `ack_every`-th with a `Ping`.
struct SlowSink {
    ctx: ComponentContext,
    net: RequiredPort<Network>,
    exact: Arc<Mutex<Vec<u32>>>,
}

impl SlowSink {
    fn new(exact: Arc<Mutex<Vec<u32>>>, ack_every: u32, work: Duration) -> Self {
        let net = RequiredPort::new();
        net.subscribe(move |this: &mut SlowSink, blob: &Blob| {
            std::thread::sleep(work);
            let Some(seq) = blob.data.first_chunk().map(|b| u32::from_le_bytes(*b)) else {
                return;
            };
            if blob.data == numbered_payload(seq, blob.data.len()) {
                this.exact.lock().push(seq);
            }
            if (seq + 1) % ack_every == 0 {
                this.net.trigger(Ping {
                    base: blob.base.reply(),
                    round: seq + 1,
                });
            }
        });
        SlowSink {
            ctx: ComponentContext::new(),
            net,
            exact,
        }
    }
}

impl ComponentDefinition for SlowSink {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "SlowSink"
    }
    fn mailbox_spec(&self) -> MailboxSpec {
        MailboxSpec::bounded_data(8, OverloadPolicy::Block)
    }
}

fn slow_sink_on(
    system: &KompicsSystem,
    node: &Fixture,
    ack_every: u32,
    work: Duration,
) -> Arc<Mutex<Vec<u32>>> {
    let exact = Arc::new(Mutex::new(Vec::new()));
    let sink = system.create({
        let exact = Arc::clone(&exact);
        move || SlowSink::new(exact, ack_every, work)
    });
    connect(
        &node.tcp.provided_ref::<Network>().unwrap(),
        &sink.required_ref::<Network>().unwrap(),
    )
    .unwrap();
    system.start(&sink);
    exact
}

/// Sends `total` numbered 64 KiB blobs in windows of `window`: the next
/// window goes out when the sink acknowledges the previous one, so at most
/// `window` are ever queued.
struct Pump {
    ctx: ComponentContext,
    net: RequiredPort<Network>,
}

impl Pump {
    fn new(from: Address, to: Address, window: u32, total: u32) -> Self {
        let send_window = move |this: &mut Pump, first: u32| {
            for seq in first..(first + window).min(total) {
                this.net.trigger(Blob {
                    base: Message::new(from, to),
                    data: numbered_payload(seq, 64 * 1024),
                });
            }
        };
        let ctx = ComponentContext::new();
        ctx.subscribe_control(move |this: &mut Pump, _: &Start| send_window(this, 0));
        let net = RequiredPort::new();
        net.subscribe(move |this: &mut Pump, ack: &Ping| send_window(this, ack.round));
        Pump { ctx, net }
    }
}

impl ComponentDefinition for Pump {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Pump"
    }
}

/// 125 MiB through a receiver that reads in fits and starts. Each 16 MiB
/// window is several times what the socket buffers hold, so the worker's
/// flush hits `WouldBlock`, the I/O loop drains the rest on `POLLOUT`, and
/// the next window starts on the worker again — and across every one of
/// those hand-overs the stream stays in order, byte-exact and complete.
#[test]
fn queue_hands_over_to_the_io_loop_and_back_without_reordering() {
    const TOTAL: u32 = 2_000;
    const WINDOW: u32 = 250; // < the default outbound queue
    let system = KompicsSystem::new(Config::default().workers(2));
    let a = make_node(&system, 1, TcpConfig::default());
    let b = make_node(&system, 2, TcpConfig::default());
    let exact = slow_sink_on(&system, &b, WINDOW, Duration::from_micros(50));

    let pump = system.create(|| Pump::new(a.addr, b.addr, WINDOW, TOTAL));
    connect(
        &a.tcp.provided_ref::<Network>().unwrap(),
        &pump.required_ref::<Network>().unwrap(),
    )
    .unwrap();
    system.start(&pump);

    let deadline = Instant::now() + Duration::from_secs(60);
    while exact.lock().len() < TOTAL as usize && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let exact = exact.lock();
    let expected: Vec<u32> = (0..TOTAL).collect();
    assert_eq!(*exact, expected, "in order, byte-exact, nothing lost");
    let (dropped, _) = a.tcp.on_definition(|t| t.overload_stats()).unwrap();
    assert_eq!(dropped, 0);
    assert!(a.dead.lock().is_empty(), "{:?}", a.dead.lock());
    let (_, pauses) = b.tcp.on_definition(|t| t.overload_stats()).unwrap();
    assert!(pauses > 0, "the receiver did push back");
    system.shutdown();
}

/// A saturated destination behind one peer costs *that* connection its
/// read interest, not the I/O loop its time: while the flood from `a` is
/// still being worked off, `b`'s messages all arrive.
#[test]
fn read_pause_is_per_connection() {
    const FLOOD: u32 = 2_000;
    const PINGS: usize = 200;
    let system = KompicsSystem::new(Config::default().workers(2));
    let a = make_node(&system, 1, TcpConfig::default());
    let b = make_node(&system, 2, TcpConfig::default());
    let c = make_node(&system, 3, TcpConfig::default());
    // 2 000 × 1 ms: the sink is busy for seconds.
    let worked_off = slow_sink_on(&system, &c, u32::MAX, Duration::from_millis(1));

    a.node
        .on_definition(|n| {
            for seq in 0..FLOOD {
                n.net.trigger(Blob {
                    base: Message::new(n.addr, c.addr),
                    data: numbered_payload(seq, 1024),
                });
            }
        })
        .unwrap();
    let paused = || c.tcp.on_definition(|t| t.overload_stats().1).unwrap() > 0;
    let deadline = Instant::now() + Duration::from_secs(5);
    while !paused() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(paused(), "the flood made the transport pause reading");

    let before = c.pings.lock().len();
    b.node
        .on_definition(|n| {
            for i in 0..PINGS as u32 {
                n.net.trigger(Ping {
                    base: Message::new(n.addr, c.addr),
                    round: 100 + i,
                });
            }
        })
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while c.pings.lock().len() < before + PINGS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let still_working = worked_off.lock().len();
    assert_eq!(c.pings.lock().len(), before + PINGS, "b was not delayed");
    assert!(
        still_working < FLOOD as usize,
        "…and arrived while a's flood was still queued ({still_working})"
    );
    system.shutdown();
}
