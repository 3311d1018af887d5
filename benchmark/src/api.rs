//! The only file of `kbench` that names `kompics::*`.
//!
//! Everything the benchmark needs from the system under test is either
//! re-exported here or wrapped by a small adapter below, so the surface the
//! benchmark depends on is readable in one place and a rename in the library
//! is repaired in one place. The surface is deliberately narrow:
//! `KompicsSystem::{new, create, start, shutdown, scheduler_stats}`,
//! `Config::new().workers`, `connect`, `PortRef::{trigger, tap, untap,
//! pair_ref}`, `Component::{provided_ref, required_ref, on_definition}`,
//! `CatsNode::{new, join, is_joined, view_size}`, `deploy_node`,
//! `standard_registry`, `LocalNetwork::attach`, `TcpNetwork::{bind, new,
//! *_stats}`, `TcpConfig::default`, `MessageRegistry::{encode_into,
//! decode_shared}`, `ThreadTimer`, `Simulation::{new, system, des, rng, now,
//! run_until, run_to_completion, settle, shutdown}`, `Des::{schedule_at,
//! executed}`, `SimTimer`, `NetworkEmulator::{new, attach}`,
//! `CatsSimulator::{new, stats, history, node_count, all_joined}`,
//! `cats::lin` and the public port and event types those calls exchange. Nothing on ROADMAP's deletion list
//! (`legacy_wire`, `Config::steal_batch`, `trigger*_feedback`, overload
//! policies, `SchedulerSpec` knobs) is referenced.

use std::sync::Arc;
use std::time::{Duration, Instant};

pub use kompics::cats::abd::{GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse};
pub use kompics::cats::experiments::{CatsExperiment, CatsOp, ExperimentOp};
pub use kompics::cats::key::RingKey;
pub use kompics::cats::lin::{check_linearizable, OpRecord, RegisterOp};
pub use kompics::cats::msgs::{ReadQueryMsg, ReadReplyMsg, Tag, WriteAckMsg, WriteQueryMsg};
pub use kompics::cats::sim::CatsSimulator;
pub use kompics::core::channel::connect;
pub use kompics::core::sched::SchedulerStats;
pub use kompics::network::{Address, LocalNetwork, Message, MessageRegistry, Network};
pub use kompics::network::{TcpConfig, TcpNetwork};
pub use kompics::prelude::{
    event_as, impl_event, port_type, Component, ComponentContext, ComponentDefinition, Config,
    EventRef, HandlerId, KompicsSystem, PortRef, ProvidedPort, RequiredPort, Start,
};
pub use kompics::simulation::{EmulatorConfig, NetworkEmulator, SimTimer, Simulation};
pub use kompics::timer::{CancelTimeout, ScheduleTimeout, ThreadTimer, Timeout, TimeoutId, Timer};

use kompics::cats::abd::AbdConfig;
use kompics::cats::deployment::{deploy_node, standard_registry};
use kompics::cats::node::{CatsConfig, CatsNode};
use kompics::cats::ring::RingConfig;
use kompics::protocols::cyclon::CyclonConfig;
use kompics::protocols::fd::FdConfig;

/// Nodes per request cluster; with replication 3 every node replicates every
/// key, so one operation is always 2 ABD phases × 3 replicas × 2 directions =
/// 12 network messages.
pub const NODES: usize = 3;

/// The CATS timers of `bench::experiment_cats_config(3)`.
pub fn cats_config() -> CatsConfig {
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

/// The wire registry every CATS deployment shares.
pub fn registry() -> Arc<MessageRegistry> {
    Arc::new(standard_registry().expect("standard tag layout has no collisions"))
}

/// Which `Network` implementation serves the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One `TcpNetwork` per node over loopback (`deploy_node`).
    Tcp,
    /// All nodes attached to one in-process `LocalNetwork`.
    Local,
}

/// What a `PutGet` indication said, borrowed from the event.
pub enum Reply<'a> {
    Got(Option<&'a [u8]>),
    Put,
    Failed,
}

/// Receives every `PutGet` indication of the cluster, on a scheduler worker.
pub trait ReplySink: Send + Sync + 'static {
    fn on_reply(&self, op_id: u64, reply: Reply<'_>);
}

/// The collector component: stamps nothing itself, hands each indication to
/// the sink from inside its handler.
struct Collector {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    put_get: RequiredPort<PutGet>,
    sink: Arc<dyn ReplySink>,
}

impl Collector {
    fn new(sink: Arc<dyn ReplySink>) -> Self {
        let put_get: RequiredPort<PutGet> = RequiredPort::new();
        put_get.subscribe(|this: &mut Collector, r: &GetResponse| {
            this.sink.on_reply(r.id, Reply::Got(r.value.as_deref()));
        });
        put_get.subscribe(|this: &mut Collector, r: &PutResponse| {
            this.sink.on_reply(r.id, Reply::Put);
        });
        put_get.subscribe(|this: &mut Collector, r: &OpFailed| {
            this.sink.on_reply(r.id, Reply::Failed);
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
        "KbenchCollector"
    }
}

struct NodeHandle {
    node: Component<CatsNode>,
    put_get: PortRef<PutGet>,
    addr: Address,
    tcp: Option<Component<TcpNetwork>>,
    _timer: Component<ThreadTimer>,
}

/// Sums of the transports' public counters over all nodes of a cluster.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpCounters {
    pub sent: u64,
    pub received: u64,
    pub bytes_sent: u64,
    pub outbound_dropped: u64,
    pub read_pauses: u64,
    pub flush_syscalls: u64,
    pub borrowed_decodes: u64,
}

/// A three-node CATS cluster in this process, plus the collector.
pub struct Cluster {
    system: KompicsSystem,
    nodes: Vec<NodeHandle>,
    _collector: Component<Collector>,
    _lan: Option<Component<LocalNetwork>>,
}

impl Cluster {
    /// Boots the nodes and returns once every ring join has completed and
    /// every router view covers the whole membership.
    pub fn boot(transport: Transport, sink: Arc<dyn ReplySink>) -> Cluster {
        let system = KompicsSystem::new(Config::new().workers(2));
        let collector = system.create(move || Collector::new(sink));
        let collector_port = collector
            .required_ref::<PutGet>()
            .expect("collector requires PutGet");
        system.start(&collector);
        let lan = (transport == Transport::Local).then(|| {
            let lan = system.create(LocalNetwork::new);
            system.start(&lan);
            lan
        });
        let registry = registry();
        let mut nodes: Vec<NodeHandle> = Vec::new();
        for i in 0..NODES {
            let id = (i as u64 + 1) * 1_000;
            let handle = match &lan {
                None => {
                    let deployed = deploy_node(
                        &system,
                        Address::local(0, id),
                        Arc::clone(&registry),
                        TcpConfig::default(),
                        cats_config(),
                    )
                    .expect("deploy node on loopback");
                    NodeHandle {
                        put_get: deployed.node.provided_ref().expect("node provides PutGet"),
                        node: deployed.node,
                        addr: deployed.addr,
                        tcp: Some(deployed.tcp),
                        _timer: deployed.timer,
                    }
                }
                Some(lan) => {
                    let addr = Address::sim(id);
                    let timer = system.create(ThreadTimer::new);
                    let node = system.create(move || CatsNode::new(addr, cats_config()));
                    LocalNetwork::attach(
                        lan,
                        &node
                            .required_ref::<Network>()
                            .expect("node requires Network"),
                        addr,
                    )
                    .expect("attach node");
                    connect(
                        &timer.provided_ref::<Timer>().expect("timer provides Timer"),
                        &node.required_ref::<Timer>().expect("node requires Timer"),
                    )
                    .expect("wire timer");
                    system.start(&timer);
                    NodeHandle {
                        put_get: node.provided_ref().expect("node provides PutGet"),
                        node,
                        addr,
                        tcp: None,
                        _timer: timer,
                    }
                }
            };
            connect(&handle.put_get, &collector_port).expect("wire collector");
            let seeds: Vec<Address> = nodes.iter().map(|n| n.addr).collect();
            CatsNode::join(&handle.node, seeds);
            nodes.push(handle);
        }
        let cluster = Cluster {
            system,
            nodes,
            _collector: collector,
            _lan: lan,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while !cluster.converged() {
            assert!(
                Instant::now() < deadline,
                "cluster did not converge in 60 s"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster
    }

    fn converged(&self) -> bool {
        self.nodes.iter().all(|n| {
            n.node
                .on_definition(|d| {
                    d.is_joined().unwrap_or(false) && d.view_size().unwrap_or(0) >= NODES
                })
                .unwrap_or(false)
        })
    }

    /// Issues a get at node `node`; the reply arrives at the sink.
    pub fn get(&self, node: usize, op_id: u64, key: u64) {
        self.nodes[node]
            .put_get
            .trigger(GetRequest {
                id: op_id,
                key: RingKey(key),
            })
            .expect("PutGet accepts GetRequest");
    }

    /// Issues a put at node `node`; the reply arrives at the sink.
    pub fn put(&self, node: usize, op_id: u64, key: u64, value: Vec<u8>) {
        self.nodes[node]
            .put_get
            .trigger(PutRequest {
                id: op_id,
                key: RingKey(key),
                value,
            })
            .expect("PutGet accepts PutRequest");
    }

    /// The logical id of node `node` (the `source.id` of its messages).
    pub fn node_id(&self, node: usize) -> u64 {
        self.nodes[node].addr.id
    }

    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.system.scheduler_stats()
    }

    /// All zero on a `LocalNetwork` cluster.
    pub fn tcp_counters(&self) -> TcpCounters {
        let mut c = TcpCounters::default();
        for tcp in self.nodes.iter().filter_map(|n| n.tcp.as_ref()) {
            let _ = tcp.on_definition(|t| {
                let (sent, received) = t.message_stats();
                let (bytes_sent, _) = t.byte_stats();
                let (dropped, pauses) = t.overload_stats();
                let (_, syscalls, borrowed) = t.wire_stats();
                c.sent += sent;
                c.received += received;
                c.bytes_sent += bytes_sent;
                c.outbound_dropped += dropped;
                c.read_pauses += pauses;
                c.flush_syscalls += syscalls;
                c.borrowed_decodes += borrowed;
            });
        }
        c
    }

    /// Installs observation taps on both halves of every node's `PutGet`
    /// and `Network` ports. Each ABD-relevant event is reported to `sink`
    /// with the instant the tap fired (trigger time, before any mailbox).
    pub fn tap(&self, sink: Arc<dyn Fn(TapEvent) + Send + Sync>) -> Taps {
        let mut taps = Taps {
            put_get: Vec::new(),
            network: Vec::new(),
        };
        for (idx, n) in self.nodes.iter().enumerate() {
            let outside = n.put_get.clone();
            let inside = outside.pair_ref().expect("port pair alive");
            for half in [outside, inside] {
                let sink = Arc::clone(&sink);
                let id = half.tap(move |_dir, event| {
                    if let Some(what) = classify_put_get(event) {
                        sink(TapEvent {
                            at: Instant::now(),
                            node: idx,
                            what,
                        });
                    }
                });
                taps.put_get.push((half, id));
            }
            let outside = n
                .node
                .required_ref::<Network>()
                .expect("node requires Network");
            let inside = outside.pair_ref().expect("port pair alive");
            for (half, sending) in [(outside, true), (inside, false)] {
                let sink = Arc::clone(&sink);
                let id = half.tap(move |_dir, event| {
                    if let Some(what) = classify_network(event, sending) {
                        sink(TapEvent {
                            at: Instant::now(),
                            node: idx,
                            what,
                        });
                    }
                });
                taps.network.push((half, id));
            }
        }
        taps
    }

    /// Stops the scheduler and drops every component; transports and timers
    /// stop their threads when dropped.
    pub fn shutdown(self) {
        self.system.shutdown();
    }
}

/// The four ABD wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    ReadQuery,
    ReadReply,
    WriteQuery,
    WriteAck,
}

/// What a tap saw.
#[derive(Debug, Clone, Copy)]
pub enum Tapped {
    /// A request entered the node's `PutGet` port.
    Request { op_id: u64 },
    /// The node emitted the indication that answers `op_id`.
    Response { op_id: u64 },
    /// The node handed an ABD message to its network.
    Sent { wire: Wire, rid: u64, peer: u64 },
    /// The network delivered an ABD message into the node.
    Received { wire: Wire, rid: u64, peer: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct TapEvent {
    pub at: Instant,
    /// Index of the node whose port was tapped.
    pub node: usize,
    pub what: Tapped,
}

/// Installed taps; [`Taps::remove`] uninstalls them.
pub struct Taps {
    put_get: Vec<(PortRef<PutGet>, HandlerId)>,
    network: Vec<(PortRef<Network>, HandlerId)>,
}

impl Taps {
    pub fn remove(self) {
        for (half, id) in self.put_get {
            half.untap(id);
        }
        for (half, id) in self.network {
            half.untap(id);
        }
    }
}

fn classify_put_get(event: &EventRef) -> Option<Tapped> {
    let e = event.as_ref();
    if let Some(r) = event_as::<GetRequest>(e) {
        return Some(Tapped::Request { op_id: r.id });
    }
    if let Some(r) = event_as::<PutRequest>(e) {
        return Some(Tapped::Request { op_id: r.id });
    }
    if let Some(r) = event_as::<GetResponse>(e) {
        return Some(Tapped::Response { op_id: r.id });
    }
    if let Some(r) = event_as::<PutResponse>(e) {
        return Some(Tapped::Response { op_id: r.id });
    }
    event_as::<OpFailed>(e).map(|r| Tapped::Response { op_id: r.id })
}

/// Anti-entropy repair reuses `WriteQueryMsg` with this bit set in `rid`;
/// those are not part of any client operation.
const REPAIR_RID_BIT: u64 = 1 << 63;

fn classify_network(event: &EventRef, sending: bool) -> Option<Tapped> {
    let e = event.as_ref();
    let (wire, rid, base) = if let Some(m) = event_as::<ReadQueryMsg>(e) {
        (Wire::ReadQuery, m.rid, m.base)
    } else if let Some(m) = event_as::<ReadReplyMsg>(e) {
        (Wire::ReadReply, m.rid, m.base)
    } else if let Some(m) = event_as::<WriteQueryMsg>(e) {
        (Wire::WriteQuery, m.rid, m.base)
    } else if let Some(m) = event_as::<WriteAckMsg>(e) {
        (Wire::WriteAck, m.rid, m.base)
    } else {
        return None;
    };
    if rid & REPAIR_RID_BIT != 0 {
        return None;
    }
    Some(if sending {
        Tapped::Sent {
            wire,
            rid,
            peer: base.destination.id,
        }
    } else {
        Tapped::Received {
            wire,
            rid,
            peer: base.source.id,
        }
    })
}
