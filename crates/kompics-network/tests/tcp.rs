//! End-to-end tests for the TCP transport: two transports over loopback,
//! framing of large/compressed payloads, and dead-letter reporting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kompics_core::channel::connect;
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

#[test]
fn full_outbound_queue_dead_letters_instead_of_growing_unbounded() {
    const QUEUE: usize = 4;
    const N: usize = 20;
    // The writer takes one frame with `recv` and drains what is queued
    // behind it with `try_recv` before it starts dialing, so it can be
    // holding a full queue plus one while the sender has filled the queue
    // again behind it. Everything past that overflows.
    const ACCEPTED_AT_MOST: usize = 2 * QUEUE + 1;
    let system = KompicsSystem::new(Config::default().workers(2));
    // A tiny bounded queue and a writer pinned down in long reconnection
    // backoff: the queue must fill and further sends must fail fast.
    let config = TcpConfig {
        connect_retries: 10,
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
        wait_for(&a.count, N - ACCEPTED_AT_MOST, 5_000),
        "overflowing sends dead-letter promptly, got {}",
        a.count.load(Ordering::SeqCst)
    );
    let dead = a.dead.lock();
    let full = dead
        .iter()
        .filter(|r| r.contains("outbound queue full"))
        .count();
    assert!(
        full >= N - ACCEPTED_AT_MOST,
        "expected ≥{} queue-full dead letters, got {full}: {dead:?}",
        N - ACCEPTED_AT_MOST
    );
    drop(dead);
    // A shed message is a drop, not a send: once the transport has handled
    // all N, each is counted exactly once.
    let counted = || {
        let (sent, _) = a.tcp.on_definition(|t| t.message_stats()).unwrap();
        let (outbound_dropped, _) = a.tcp.on_definition(|t| t.overload_stats()).unwrap();
        sent + outbound_dropped
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while counted() < N as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(counted(), N as u64, "sent + outbound_dropped");
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
