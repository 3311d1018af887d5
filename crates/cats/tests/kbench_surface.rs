//! The part of this workspace that `benchmark/` (`kbench`, declared in
//! `BENCHMARK.json`) is written against, used here the way
//! `benchmark/src/{api,probes}.rs` use it.
//!
//! `benchmark/` is a workspace of its own, so `cargo test --workspace` never
//! compiles it, and it is frozen while a performance change is measured: a
//! library change that renames a field or retypes a value is found only when
//! the benchmark fails to build — after the work is done. `kbench` builds the
//! ABD wire messages, the `PutGet` requests and the whole `CatsConfig` as
//! struct literals, field by field and without `..`, and reads
//! `GetResponse::value` as `Option<&[u8]>`; this file does the same, so the
//! same change fails here, in tier 1, first. When `benchmark/` itself is
//! changed (ROADMAP item 1), change this file with it.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cats::abd::{AbdConfig, GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse};
use cats::deployment::{deploy_node, standard_registry};
use cats::key::RingKey;
use cats::msgs::{ReadQueryMsg, ReadReplyMsg, Tag, WriteAckMsg, WriteQueryMsg};
use cats::node::{CatsConfig, CatsNode};
use cats::ring::RingConfig;
use kompics_core::channel::connect;
use kompics_core::prelude::{
    event_as, ComponentContext, ComponentDefinition, Config, EventRef, KompicsSystem, RequiredPort,
};
use kompics_network::{Address, Message, MessageRegistry, TcpConfig, TcpNetwork};
use kompics_protocols::cyclon::CyclonConfig;
use kompics_protocols::fd::FdConfig;

const NODES: usize = 3;

/// `benchmark/src/api.rs::cats_config`, literal for literal.
fn cats_config() -> CatsConfig {
    CatsConfig {
        replication: Some(NODES),
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
    }
}

fn registry() -> Arc<MessageRegistry> {
    Arc::new(standard_registry().expect("standard tag layout has no collisions"))
}

/// `benchmark/src/probes.rs::one_operation`: the messages of a two-round
/// operation against three replicas.
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

#[test]
fn the_wire_messages_are_built_encoded_and_read_field_by_field() {
    let registry = registry();
    let value = vec![0xabu8; 1024];
    let mut buf: Vec<u8> = Vec::new();
    for m in one_operation(&value) {
        // `codec_per_op`: encode into a reused buffer, decode from `Bytes`.
        buf.clear();
        let (tag, body_at) = registry
            .encode_into(m.as_ref(), &mut buf)
            .expect("registered");
        let body = bytes::Bytes::from(buf[body_at..].to_vec());
        let decoded = registry.decode_shared(tag, &body).expect("decodes");
        // `NetPeer`'s echo and `trace.rs`'s classifier read these fields.
        if let Some(w) = event_as::<WriteQueryMsg>(decoded.as_ref()) {
            let echo = ReadReplyMsg {
                base: w.base.reply(),
                rid: w.rid,
                tag: w.tag,
                value: w.value.clone(),
            };
            assert_eq!((echo.rid, echo.tag.seq, echo.tag.writer), (77, 41, 1000));
            assert_eq!(echo.value.as_deref(), Some(value.as_slice()));
            assert_eq!(echo.base.destination.id, 1000);
            assert_eq!(w.key, RingKey(0x5eed));
        } else if let Some(r) = event_as::<ReadReplyMsg>(decoded.as_ref()) {
            assert_eq!((r.rid, r.base.source.id % 1000), (77, 0));
            assert_eq!(r.value.as_deref(), Some(value.as_slice()));
        } else if let Some(q) = event_as::<ReadQueryMsg>(decoded.as_ref()) {
            assert_eq!((q.rid, q.key.0, q.base.source.id), (77, 0x5eed, 1000));
        } else {
            let a = event_as::<WriteAckMsg>(decoded.as_ref()).expect("the fourth kind");
            assert_eq!((a.rid, a.base.destination.id), (77, 1000));
        }
    }
}

/// What a `PutGet` indication said (`api.rs::Reply`, owned).
#[derive(Debug, PartialEq)]
enum Reply {
    Got(u64, Option<Vec<u8>>),
    Put(u64),
    Failed(u64),
}

/// `api.rs::Collector`: every `PutGet` indication of the cluster.
struct Collector {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    put_get: RequiredPort<PutGet>,
    sink: Sender<Reply>,
}

impl Collector {
    fn new(sink: Sender<Reply>) -> Self {
        let put_get: RequiredPort<PutGet> = RequiredPort::new();
        put_get.subscribe(|this: &mut Collector, r: &GetResponse| {
            let value: Option<&[u8]> = r.value.as_deref();
            let _ = this.sink.send(Reply::Got(r.id, value.map(<[u8]>::to_vec)));
        });
        put_get.subscribe(|this: &mut Collector, r: &PutResponse| {
            let _ = this.sink.send(Reply::Put(r.id));
        });
        put_get.subscribe(|this: &mut Collector, r: &OpFailed| {
            let _ = this.sink.send(Reply::Failed(r.id));
        });
        Collector {
            ctx: ComponentContext::new(),
            put_get,
            sink,
        }
    }
}

impl ComponentDefinition for Collector {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "SurfaceCollector"
    }
}

#[test]
fn a_tcp_cluster_boots_serves_and_counts_the_way_kbench_drives_it() {
    // `api.rs::Cluster::boot(Transport::Tcp, ..)`.
    let system = KompicsSystem::new(Config::new().workers(2));
    let (tx, rx) = channel();
    let collector = system.create(move || Collector::new(tx));
    let collector_port = collector
        .required_ref::<PutGet>()
        .expect("collector requires PutGet");
    system.start(&collector);
    let registry = registry();
    let mut nodes = Vec::new();
    for i in 0..NODES {
        let id = (i as u64 + 1) * 1_000;
        let deployed = deploy_node(
            &system,
            Address::local(0, id),
            Arc::clone(&registry),
            TcpConfig::default(),
            cats_config(),
        )
        .expect("deploy node on loopback");
        let put_get = deployed
            .node
            .provided_ref::<PutGet>()
            .expect("node provides PutGet");
        connect(&put_get, &collector_port).expect("wire collector");
        let seeds: Vec<Address> = nodes
            .iter()
            .map(|(d, _): &(cats::deployment::DeployedCatsNode, _)| d.addr)
            .collect();
        CatsNode::join(&deployed.node, seeds);
        nodes.push((deployed, put_get));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let converged = |node: &kompics_core::component::Component<CatsNode>| {
        node.on_definition(|d| {
            d.is_joined().unwrap_or(false) && d.view_size().unwrap_or(0) >= NODES
        })
        .unwrap_or(false)
    };
    while !nodes.iter().all(|(d, _)| converged(&d.node)) {
        assert!(
            Instant::now() < deadline,
            "cluster did not converge in 60 s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // `Cluster::put` / `Cluster::get`.
    let wait = Duration::from_secs(10);
    nodes[0]
        .1
        .trigger(PutRequest {
            id: 1,
            key: RingKey(42),
            value: b"surface".to_vec(),
        })
        .expect("PutGet accepts PutRequest");
    assert_eq!(rx.recv_timeout(wait).expect("put answered"), Reply::Put(1));
    nodes[1]
        .1
        .trigger(GetRequest {
            id: 2,
            key: RingKey(42),
        })
        .expect("PutGet accepts GetRequest");
    assert_eq!(
        rx.recv_timeout(wait).expect("get answered"),
        Reply::Got(2, Some(b"surface".to_vec()))
    );
    // The accessor this PR added beside `stored_keys`, through the same door.
    let gets: u64 = (nodes.iter())
        .map(|(d, _)| d.node.on_definition(|n| n.get_stats()).unwrap().unwrap())
        .map(|(one_round, imposed)| one_round + imposed)
        .sum();
    assert_eq!(gets, 1);

    // `Cluster::tcp_counters`.
    let (mut sent, mut received, mut bytes_sent, mut syscalls) = (0, 0, 0, 0);
    for (deployed, _) in &nodes {
        deployed
            .tcp
            .on_definition(|t| {
                let (s, r) = t.message_stats();
                let (b, _) = t.byte_stats();
                let (dropped, pauses) = t.overload_stats();
                let (_, flushes, _borrowed) = t.wire_stats();
                assert_eq!((dropped, pauses), (0, 0));
                sent += s;
                received += r;
                bytes_sent += b;
                syscalls += flushes;
            })
            .expect("transport alive");
    }
    assert!(sent > 0 && received > 0 && bytes_sent > 0 && syscalls > 0);

    // `probes.rs::tcp_pair` builds its transports itself.
    let (addr, listener) = TcpNetwork::bind(Address::local(0, 9)).expect("bind loopback");
    let tcp = system.create({
        let registry = Arc::clone(&registry);
        move || TcpNetwork::new(addr, listener, registry, TcpConfig::default())
    });
    system.start(&tcp);
    assert_ne!(addr.port, 0);
    system.shutdown();
}
