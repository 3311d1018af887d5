//! The local interactive stress-test architecture (paper Figure 12,
//! right): the same node assemblies as simulation, but over the in-process
//! [`LocalNetwork`] and real [`ThreadTimer`]s, executing in real time under
//! the multi-core scheduler. Used during development to run a small
//! distributed system in one process, and by the benchmarks to measure
//! throughput and latency.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use kompics_core::channel::connect;
use kompics_core::component::Component;
use kompics_core::port::PortRef;
use kompics_core::prelude::*;
use kompics_network::{Address, LocalNetwork, Network};
use kompics_timer::{ThreadTimer, Timer};
use parking_lot::Mutex;

use crate::abd::{GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse};
use crate::key::RingKey;
use crate::node::{CatsConfig, CatsNode};

/// The outcome of a blocking operation against the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A `get` completed with this value.
    Got(Option<Vec<u8>>),
    /// A `put` completed.
    Put,
    /// The operation failed (no quorum within the retry budget).
    Failed(String),
}

type PendingMap = Arc<Mutex<std::collections::HashMap<u64, SyncSender<OpOutcome>>>>;

/// Collects `PutGet` indications from every node and resolves the blocking
/// callers.
struct OpCollector {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    put_get: RequiredPort<PutGet>,
    pending: PendingMap,
}

impl OpCollector {
    fn new(pending: PendingMap) -> Self {
        let put_get: RequiredPort<PutGet> = RequiredPort::new();
        put_get.subscribe(|this: &mut OpCollector, resp: &GetResponse| {
            if let Some(tx) = this.pending.lock().remove(&resp.id) {
                let _ = tx.send(OpOutcome::Got(resp.value.clone()));
            }
        });
        put_get.subscribe(|this: &mut OpCollector, resp: &PutResponse| {
            if let Some(tx) = this.pending.lock().remove(&resp.id) {
                let _ = tx.send(OpOutcome::Put);
            }
        });
        put_get.subscribe(|this: &mut OpCollector, fail: &OpFailed| {
            if let Some(tx) = this.pending.lock().remove(&fail.id) {
                let _ = tx.send(OpOutcome::Failed(fail.reason.clone()));
            }
        });
        OpCollector {
            ctx: ComponentContext::new(),
            put_get,
            pending,
        }
    }
}

impl ComponentDefinition for OpCollector {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "OpCollector"
    }
}

struct LocalNode {
    node: Component<CatsNode>,
    timer: Component<ThreadTimer>,
    put_get: PortRef<PutGet>,
}

/// An in-process CATS cluster running in real time. See the module
/// documentation.
pub struct LocalCatsCluster {
    system: KompicsSystem,
    lan: Component<LocalNetwork>,
    collector: Component<OpCollector>,
    config: CatsConfig,
    nodes: BTreeMap<u64, LocalNode>,
    pending: PendingMap,
    next_op: AtomicU64,
    clock: ClockRef,
}

impl LocalCatsCluster {
    /// Creates an empty cluster on a fresh multi-core system, timing
    /// convergence waits against the real-time [`SystemClock`].
    pub fn new(system_config: Config, config: CatsConfig) -> Self {
        Self::with_clock(system_config, config, SystemClock::shared())
    }

    /// Like [`new`](LocalCatsCluster::new) but with an injected time source,
    /// so harnesses (and tests) control how deadlines advance.
    pub fn with_clock(system_config: Config, config: CatsConfig, clock: ClockRef) -> Self {
        let system = KompicsSystem::new(system_config);
        let lan = system.create(LocalNetwork::new);
        let pending: PendingMap = Arc::new(Mutex::new(std::collections::HashMap::new()));
        let collector = system.create({
            let p = pending.clone();
            move || OpCollector::new(p)
        });
        system.start(&lan);
        system.start(&collector);
        LocalCatsCluster {
            system,
            lan,
            collector,
            config,
            nodes: BTreeMap::new(),
            pending,
            next_op: AtomicU64::new(1),
            clock,
        }
    }

    /// The underlying system.
    pub fn system(&self) -> &KompicsSystem {
        &self.system
    }

    /// Ids of current nodes.
    pub fn node_ids(&self) -> Vec<u64> {
        self.nodes.keys().copied().collect()
    }

    /// Adds a node with ring id `id`, seeding its join from up to three
    /// existing nodes.
    pub fn add_node(&mut self, id: u64) {
        if self.nodes.contains_key(&id) {
            return;
        }
        let addr = Address::sim(id);
        let timer = self.system.create(ThreadTimer::new);
        let node = self.system.create({
            let config = self.config.clone();
            move || CatsNode::new(addr, config)
        });
        LocalNetwork::attach(
            &self.lan,
            &node
                .required_ref::<Network>()
                .expect("node requires network"),
            addr,
        )
        .expect("attach node");
        connect(
            &timer.provided_ref::<Timer>().expect("timer provides"),
            &node.required_ref::<Timer>().expect("node requires timer"),
        )
        .expect("wire timer");
        let put_get = node
            .provided_ref::<PutGet>()
            .expect("node provides put-get");
        connect(
            &put_get,
            &self.collector.required_ref::<PutGet>().expect("collector"),
        )
        .expect("wire collector");

        let seeds: Vec<Address> = self
            .nodes
            .values()
            .take(3)
            .map(|n| {
                n.node
                    .on_definition(|d| d.self_addr())
                    .expect("node definition alive")
            })
            .collect();
        self.system.start(&timer);
        CatsNode::join(&node, seeds);
        self.nodes.insert(
            id,
            LocalNode {
                node,
                timer,
                put_get,
            },
        );
    }

    /// Kills the node with the given id (crash-stop).
    pub fn kill_node(&mut self, id: u64) {
        if let Some(entry) = self.nodes.remove(&id) {
            self.system.kill(&entry.node);
            self.system.kill(&entry.timer);
        }
    }

    /// Waits until every node's ring join completed and every router view
    /// covers the full membership; returns `false` on timeout.
    pub fn await_converged(&self, timeout: Duration) -> bool {
        let deadline = self.clock.now() + timeout;
        let total = self.nodes.len();
        while self.clock.now() < deadline {
            let ready = self.nodes.values().all(|n| {
                n.node
                    .on_definition(|d| {
                        d.is_joined().unwrap_or(false) && d.view_size().unwrap_or(0) >= total
                    })
                    .unwrap_or(false)
            });
            if ready {
                return true;
            }
            // komlint: allow(blocking-sleep) reason="poll backoff on the caller's thread; the scheduler workers keep running underneath"
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// The outside half of a node's provided `Web` port, for attaching an
    /// HTTP frontend.
    pub fn node_web_ref(&self, id: u64) -> Option<PortRef<kompics_protocols::web::Web>> {
        self.nodes.get(&id).and_then(|n| n.node.provided_ref().ok())
    }

    /// The alive node nearest at-or-after `id` on the ring.
    pub fn nearest(&self, id: u64) -> Option<u64> {
        self.nodes
            .range(id..)
            .next()
            .or_else(|| self.nodes.iter().next())
            .map(|(k, _)| *k)
    }

    fn issue(
        &self,
        node: u64,
        timeout: Duration,
        f: impl FnOnce(u64, &PortRef<PutGet>),
    ) -> OpOutcome {
        let Some(target) = self.nearest(node) else {
            return OpOutcome::Failed("no nodes in cluster".into());
        };
        let opid = self.next_op.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        self.pending.lock().insert(opid, tx);
        f(opid, &self.nodes[&target].put_get);
        // komlint: allow(blocking-recv) reason="this IS the blocking client API; it runs on the caller's thread, never inside a handler"
        match rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(_) => {
                self.pending.lock().remove(&opid);
                OpOutcome::Failed("client timeout".into())
            }
        }
    }

    /// Blocking `put` issued at the node nearest `node`.
    pub fn put(&self, node: u64, key: RingKey, value: Vec<u8>, timeout: Duration) -> OpOutcome {
        self.issue(node, timeout, move |opid, port| {
            let _ = port.trigger(PutRequest {
                id: opid,
                key,
                value,
            });
        })
    }

    /// Blocking `get` issued at the node nearest `node`.
    pub fn get(&self, node: u64, key: RingKey, timeout: Duration) -> OpOutcome {
        self.issue(node, timeout, move |opid, port| {
            let _ = port.trigger(GetRequest { id: opid, key });
        })
    }

    /// Shuts the system down.
    pub fn shutdown(&self) {
        self.system.shutdown();
    }
}
