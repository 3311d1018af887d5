//! The whole-system simulation architecture (paper Figure 12, left).
//!
//! A `CatsSimulator` component interprets experiment commands: it creates
//! and destroys complete CATS node assemblies (each with its own virtual
//! timer) wired to the shared network emulator, and issues `get`/`put`
//! operations at nodes — all in virtual time, driven by the scenario DSL.
//! The node components are exactly those deployed in production; the
//! ability to create and destroy node subtrees at runtime is the dynamic
//! reconfiguration support of §2.6 at work.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kompics_core::port::PortRef;
use kompics_core::prelude::*;
use kompics_network::{Address, Network};
use kompics_simulation::{Des, EmulatorConfig, NetworkEmulator, SimTimer};
use kompics_timer::Timer;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::abd::{GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse};
use crate::experiments::{CatsExperiment, CatsOp, ExperimentOp, OpStats};
use crate::key::RingKey;
use crate::lin::{OpRecord, RegisterOp};
use crate::node::{CatsConfig, CatsNode};

/// Compresses a value to a `u64` fingerprint for history checking.
fn value_fingerprint(value: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    for (i, b) in value.iter().take(8).enumerate() {
        bytes[i] = *b;
    }
    u64::from_le_bytes(bytes) ^ (value.len() as u64) << 56
}

struct PendingOp {
    at: u64,
    key: RingKey,
    write: Option<u64>,
}

/// One completed operation in the recorded history, keyed for the
/// linearizability checker.
#[derive(Debug, Clone, Copy)]
pub struct HistoryEntry {
    /// The key operated on.
    pub key: RingKey,
    /// Timed register operation.
    pub record: OpRecord,
}

struct NodeEntry {
    node: kompics_core::component::Component<CatsNode>,
    timer: kompics_core::component::Component<SimTimer>,
    put_get: PortRef<PutGet>,
    addr: Address,
}

/// The simulation driver component. Create it inside a [`Simulation`]
/// (`kompics_simulation::Simulation`), trigger [`ExperimentOp`]s on its
/// provided [`CatsExperiment`] port (usually from a scenario driver), and
/// inspect [`OpStats`] afterwards.
pub struct CatsSimulator {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    experiment: ProvidedPort<CatsExperiment>,
    des: Arc<Des>,
    rng: Arc<Mutex<StdRng>>,
    emulator: kompics_core::component::Component<NetworkEmulator>,
    config: CatsConfig,
    nodes: BTreeMap<u64, NodeEntry>,
    issued: HashMap<u64, PendingOp>,
    next_op: u64,
    stats: OpStats,
    history: Vec<HistoryEntry>,
}

impl CatsSimulator {
    /// Creates the simulator (inside a `create` closure), with its own
    /// network emulator as a child.
    pub fn new(
        des: Arc<Des>,
        rng: Arc<Mutex<StdRng>>,
        emulator_config: EmulatorConfig,
        config: CatsConfig,
    ) -> Self {
        let ctx = ComponentContext::new();
        let experiment: ProvidedPort<CatsExperiment> = ProvidedPort::new();
        let emulator = ctx.create({
            let (d, r) = (Arc::clone(&des), Arc::clone(&rng));
            move || NetworkEmulator::new(d, r, emulator_config)
        });
        experiment.subscribe(|this: &mut CatsSimulator, op: &ExperimentOp| {
            this.handle_op(&op.0);
        });
        CatsSimulator {
            ctx,
            experiment,
            des,
            rng,
            emulator,
            config,
            nodes: BTreeMap::new(),
            issued: HashMap::new(),
            next_op: 1,
            stats: OpStats::default(),
            history: Vec::new(),
        }
    }

    /// The recorded operation history (for linearizability checking).
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// Number of currently alive nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Ids of currently alive nodes.
    pub fn alive_ids(&self) -> Vec<u64> {
        self.nodes.keys().copied().collect()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Gets the alive nodes' coordinators completed, summed: (in one round,
    /// after a write-back). What a node counted dies with it.
    pub fn get_stats(&self) -> (u64, u64) {
        let mut sum = (0, 0);
        for entry in self.nodes.values() {
            if let Ok(Ok((one_round, imposed))) = entry.node.on_definition(|n| n.get_stats()) {
                sum = (sum.0 + one_round, sum.1 + imposed);
            }
        }
        sum
    }

    /// Whether every alive node's ring join has completed.
    pub fn all_joined(&self) -> bool {
        self.nodes
            .values()
            .all(|entry| entry.node.on_definition(|n| n.is_joined()).ok() == Some(Ok(true)))
    }

    /// How many nodes know (at least) `fraction` of the membership in their
    /// router view.
    pub fn view_convergence(&self, fraction: f64) -> usize {
        let total = self.nodes.len().max(1);
        self.nodes
            .values()
            .filter(|entry| {
                entry
                    .node
                    .on_definition(|n| n.view_size())
                    .map(|r| {
                        r.map(|v| v as f64 >= fraction * total as f64)
                            .unwrap_or(false)
                    })
                    .unwrap_or(false)
            })
            .count()
    }

    fn handle_op(&mut self, op: &CatsOp) {
        match op {
            CatsOp::Join(id) => self.join(*id),
            CatsOp::Fail(id) => self.fail(*id),
            CatsOp::Get { node, key } => self.get(*node, *key),
            CatsOp::Put { node, key, value } => self.put(*node, *key, value.clone()),
        }
    }

    fn join(&mut self, id: u64) {
        if self.nodes.contains_key(&id) {
            return;
        }
        let addr = Address::sim(id);
        let timer = self.ctx.create({
            let des = Arc::clone(&self.des);
            move || SimTimer::new(des)
        });
        let node = self.ctx.create({
            let config = self.config.clone();
            move || CatsNode::new(addr, config)
        });
        NetworkEmulator::attach(
            &self.emulator,
            &node
                .required_ref::<Network>()
                .expect("node requires network"),
            addr,
        )
        .expect("attach node to emulator");
        kompics_core::channel::connect(
            &timer.provided_ref::<Timer>().expect("timer provides"),
            &node.required_ref::<Timer>().expect("node requires timer"),
        )
        .expect("wire node timer");

        // Observe the node's put/get responses for statistics.
        let put_get = node
            .provided_ref::<PutGet>()
            .expect("node provides put-get");
        self.ctx
            .subscribe(&put_get, |this: &mut CatsSimulator, resp: &GetResponse| {
                let observed = resp.value.as_deref().map(value_fingerprint);
                this.complete(resp.id, RegisterOp::Read(observed));
            });
        self.ctx
            .subscribe(&put_get, |this: &mut CatsSimulator, resp: &PutResponse| {
                let Some(pending) = this.issued.get(&resp.id) else {
                    return;
                };
                let write = pending.write.unwrap_or_default();
                this.complete(resp.id, RegisterOp::Write(write));
            });
        self.ctx
            .subscribe(&put_get, |this: &mut CatsSimulator, fail: &OpFailed| {
                if this.issued.remove(&fail.id).is_some() {
                    this.stats.failed += 1;
                }
            });

        // Seed with the ring-nearest alive node (what a bootstrap service
        // consulting the one-hop routing view would return — keeps join
        // lookups O(1) hops) plus up to two random nodes, deterministically
        // under the simulation RNG.
        let seeds: Vec<Address> = {
            let mut seeds = Vec::new();
            if let Some(nearest) = self.nearest(id) {
                seeds.push(self.nodes[&nearest].addr);
            }
            let mut candidates: Vec<Address> = self.nodes.values().map(|e| e.addr).collect();
            candidates.shuffle(&mut *self.rng.lock());
            for c in candidates {
                if seeds.len() >= 3 {
                    break;
                }
                if !seeds.iter().any(|s| s.id == c.id) {
                    seeds.push(c);
                }
            }
            seeds
        };
        self.ctx.start_child(&timer);
        CatsNode::join(&node, seeds);
        self.stats.joins += 1;
        self.nodes.insert(
            id,
            NodeEntry {
                node,
                timer,
                put_get,
                addr,
            },
        );
    }

    fn fail(&mut self, id: u64) {
        // Never fail the last node; the experiment would go nowhere.
        if self.nodes.len() <= 1 {
            return;
        }
        let Some(victim) = self.nearest(id) else {
            return;
        };
        let entry = self.nodes.remove(&victim).expect("nearest exists");
        self.ctx.kill_child(&entry.node);
        self.ctx.kill_child(&entry.timer);
        self.stats.fails += 1;
    }

    fn get(&mut self, node: u64, key: RingKey) {
        let Some(target) = self.nearest(node) else {
            return;
        };
        let opid = self.next_op;
        self.next_op += 1;
        self.issued.insert(
            opid,
            PendingOp {
                at: self.des.now(),
                key,
                write: None,
            },
        );
        self.stats.issued += 1;
        let _ = self.nodes[&target]
            .put_get
            .trigger(GetRequest { id: opid, key });
    }

    fn put(&mut self, node: u64, key: RingKey, value: Vec<u8>) {
        let Some(target) = self.nearest(node) else {
            return;
        };
        let opid = self.next_op;
        self.next_op += 1;
        self.issued.insert(
            opid,
            PendingOp {
                at: self.des.now(),
                key,
                write: Some(value_fingerprint(&value)),
            },
        );
        self.stats.issued += 1;
        let _ = self.nodes[&target].put_get.trigger(PutRequest {
            id: opid,
            key,
            value,
        });
    }

    fn complete(&mut self, opid: u64, op: RegisterOp) {
        if let Some(pending) = self.issued.remove(&opid) {
            let now = self.des.now();
            self.stats.completed += 1;
            self.stats.latencies_ns.push(now.saturating_sub(pending.at));
            self.history.push(HistoryEntry {
                key: pending.key,
                record: OpRecord {
                    invoke: pending.at,
                    response: now,
                    op,
                },
            });
        }
    }

    /// Handle to the node component currently registered under `id`, for
    /// supervision or fault injection.
    pub fn node_component(&self, id: u64) -> Option<kompics_core::component::ComponentRef> {
        self.nodes.get(&id).map(|e| e.node.erased())
    }

    /// The shared network emulator, for fault-plan targets.
    pub fn emulator_component(&self) -> kompics_core::component::Component<NetworkEmulator> {
        self.emulator.clone()
    }

    /// Re-registers a node after a supervised restart: swaps the stored
    /// handle and request port to the replacement instance and re-issues the
    /// ring join with the currently alive seeds. Intended as the supervisor's
    /// `on_restart` hook; the restart machinery itself already re-plugged the
    /// node's network/timer channels and migrated this simulator's response
    /// subscriptions onto the replacement's ports.
    ///
    /// The replacement rejoins with empty storage — authentic CATS recovery,
    /// where a reborn replica is repaired by read-impose and consistent
    /// quorums rather than by state transfer.
    pub fn adopt_restarted_node(
        &mut self,
        id: u64,
        replacement: &kompics_core::component::ComponentRef,
    ) {
        let Some(node) = replacement.downcast::<CatsNode>() else {
            return;
        };
        if !self.nodes.contains_key(&id) {
            return;
        }
        let seeds: Vec<Address> = self
            .nodes
            .values()
            .map(|e| e.addr)
            .filter(|a| a.id != id)
            .take(3)
            .collect();
        let put_get = node
            .provided_ref::<PutGet>()
            .expect("replacement provides put-get");
        CatsNode::join(&node, seeds);
        let entry = self.nodes.get_mut(&id).expect("checked above");
        entry.node = node;
        entry.put_get = put_get;
    }

    /// The alive node nearest at-or-after `id` on the ring.
    fn nearest(&self, id: u64) -> Option<u64> {
        self.nodes
            .range(id..)
            .next()
            .or_else(|| self.nodes.iter().next())
            .map(|(k, _)| *k)
    }
}

impl ComponentDefinition for CatsSimulator {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "CatsSimulator"
    }
}
