//! Consistent ABD: linearizable quorum reads and writes over the
//! replication group resolved by the one-hop router.
//!
//! Implements the multi-writer ABD register per key:
//!
//! * **put** — the read round queries a majority for the highest write tag;
//!   the write round imposes the value under tag `(max.seq + 1, self)` —
//!   or one past the last tag this coordinator minted, if that is higher —
//!   on a majority. The tag is minted once per put: a retry imposes it
//!   again;
//! * **get** — the read round collects `(tag, value)` from a majority. When
//!   every reply carries the same tag the get answers at once: a replica's
//!   tag only grows, so a tag seen at a majority stays at a majority and
//!   every later quorum meets it. When the replies disagree, the write round
//!   first *writes back* the maximum pair, unchanged, to a majority (the
//!   read-impose step that keeps a half-written value from being read and
//!   then un-read).
//!
//! Every node is both a *coordinator* (serving its local clients' `PutGet`
//! requests against any key's group) and a *replica* (serving quorum
//! messages against its local store). One sweep timer per coordinator,
//! armed only while operations are pending, expires attempts that got no
//! quorum; an expired attempt re-resolves the group and retries under the
//! same round id, masking stale views and churn. Replies of an earlier
//! attempt still count when their sender is in the re-resolved group: each
//! was produced after the operation began and tags only grow, so it is a
//! valid lower bound on that replica's state.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use kompics_core::prelude::*;
use kompics_network::{Address, Message, Network};
use kompics_protocols::monitor::{Status, StatusRequest, StatusResponse};
use kompics_timer::{ScheduleTimeout, Timeout, TimeoutId, Timer};

use crate::key::RingKey;
use crate::msgs::{ReadQueryMsg, ReadReplyMsg, Tag, WriteAckMsg, WriteQueryMsg};
use crate::router::{FindGroup, GroupFound, Overloaded, Routing};

// ---------------------------------------------------------------------------
// Port type and events
// ---------------------------------------------------------------------------

/// Request: read `key`.
#[derive(Debug, Clone)]
pub struct GetRequest {
    /// Client-chosen correlation id.
    pub id: u64,
    /// The key to read.
    pub key: RingKey,
}
impl_event!(GetRequest);

/// Request: write `value` under `key`.
#[derive(Debug, Clone)]
pub struct PutRequest {
    /// Client-chosen correlation id.
    pub id: u64,
    /// The key to write.
    pub key: RingKey,
    /// The value.
    pub value: Vec<u8>,
}
impl_event!(PutRequest);

/// Indication: a read completed.
#[derive(Debug, Clone)]
pub struct GetResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// Echoed key.
    pub key: RingKey,
    /// The read value; `None` if the key was never written.
    pub value: Option<Vec<u8>>,
}
impl_event!(GetResponse);

/// Indication: a write completed.
#[derive(Debug, Clone)]
pub struct PutResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// Echoed key.
    pub key: RingKey,
}
impl_event!(PutResponse);

/// Indication: an operation failed after exhausting its retries.
#[derive(Debug, Clone)]
pub struct OpFailed {
    /// Echoed correlation id.
    pub id: u64,
    /// Echoed key.
    pub key: RingKey,
    /// Why the operation failed.
    pub reason: String,
}
impl_event!(OpFailed);

port_type! {
    /// The key-value store API: the port behind which the CATS node hides
    /// all its event-driven control flow.
    pub struct PutGet {
        indication: GetResponse, PutResponse, OpFailed;
        request: GetRequest, PutRequest;
    }
}

// ---------------------------------------------------------------------------
// Component
// ---------------------------------------------------------------------------

/// ABD tuning knobs.
#[derive(Debug, Clone)]
pub struct AbdConfig {
    /// Per-attempt operation timeout. Default 2 s.
    pub op_timeout: Duration,
    /// Retries before reporting [`OpFailed`]. Default 3.
    pub max_retries: u32,
    /// Anti-entropy period: how often the replica walks a slice of its
    /// store and re-imposes each key's `(tag, value)` on the key's current
    /// replication group, migrating data to nodes that joined after the
    /// write. `None` disables repair. Default 1 s.
    pub repair_period: Option<Duration>,
    /// Keys re-imposed per repair tick. Default 64.
    pub repair_batch: usize,
}

impl Default for AbdConfig {
    fn default() -> Self {
        AbdConfig {
            op_timeout: Duration::from_secs(2),
            max_retries: 3,
            repair_period: Some(Duration::from_secs(1)),
            repair_batch: 64,
        }
    }
}

#[derive(Debug, Clone)]
struct SweepTick {
    base: Timeout,
}
impl_event!(SweepTick, extends Timeout, via base);

#[derive(Debug, Clone)]
struct RepairTick {
    base: Timeout,
}
impl_event!(RepairTick, extends Timeout, via base);

/// High bit marks routing requests made by the repair path rather than a
/// client operation.
const REPAIR_RID_BIT: u64 = 1 << 63;

#[derive(Debug, Clone)]
enum OpKind {
    Get,
    /// The value, and the tag once the first attempt to reach a read quorum
    /// has minted it.
    Put(Vec<u8>, Option<Tag>),
}

#[derive(Debug)]
enum Phase {
    Routing,
    /// Read round: who answered, the highest tag among them with its value
    /// (kept for gets only), and how many of them carry exactly that tag.
    Query {
        from: BTreeSet<u64>,
        max: (Tag, Option<Vec<u8>>),
        same: usize,
    },
    Update {
        acks: BTreeSet<u64>,
        result: Option<Vec<u8>>,
    },
}

struct Op {
    client_id: u64,
    key: RingKey,
    kind: OpKind,
    phase: Phase,
    group: Vec<Address>,
    retries: u32,
    /// The sweep firing (see [`ConsistentAbd::sweep`]) that expires this
    /// attempt.
    expires: u64,
}

/// The quorum read/write component: provides [`PutGet`] and [`Status`];
/// requires `Network`, `Timer` and [`Routing`].
pub struct ConsistentAbd {
    ctx: ComponentContext,
    put_get: ProvidedPort<PutGet>,
    status: ProvidedPort<Status>,
    net: RequiredPort<Network>,
    timer: RequiredPort<Timer>,
    routing: RequiredPort<Routing>,
    self_addr: Address,
    config: AbdConfig,
    store: BTreeMap<u64, (Tag, Option<Vec<u8>>)>,
    ops: BTreeMap<u64, Op>,
    next_rid: u64,
    /// Highest sequence number this coordinator put into a tag.
    minted_seq: u64,
    /// Sweep firings so far, and whether one is armed.
    sweeps: u64,
    sweep_armed: bool,
    completed_ops: u64,
    failed_ops: u64,
    one_round_gets: u64,
    imposed_gets: u64,
    /// Lookups the router answered with [`Overloaded`] while the op was
    /// still pending (the sweep retries them).
    shed_lookups: u64,
    repair_cursor: u64,
    repairs_sent: u64,
}

impl ConsistentAbd {
    /// Creates the ABD component for the node at `self_addr`.
    pub fn new(self_addr: Address, config: AbdConfig) -> Self {
        let ctx = ComponentContext::new();
        let put_get: ProvidedPort<PutGet> = ProvidedPort::new();
        let status: ProvidedPort<Status> = ProvidedPort::new();
        let net: RequiredPort<Network> = RequiredPort::new();
        let timer: RequiredPort<Timer> = RequiredPort::new();
        let routing: RequiredPort<Routing> = RequiredPort::new();

        put_get.subscribe(|this: &mut ConsistentAbd, req: &GetRequest| {
            this.begin_op(req.id, req.key, OpKind::Get);
        });
        put_get.subscribe(|this: &mut ConsistentAbd, req: &PutRequest| {
            this.begin_op(req.id, req.key, OpKind::Put(req.value.clone(), None));
        });
        routing.subscribe(|this: &mut ConsistentAbd, found: &GroupFound| {
            this.handle_group(found);
        });
        routing.subscribe(|this: &mut ConsistentAbd, shed: &Overloaded| {
            // The router shed our lookup under overload. The sweep is armed
            // and retries the whole op from scratch, which respects the
            // suggested delay implicitly (op timeouts are an order of
            // magnitude above typical retry-after values); all we add here
            // is visibility.
            if this.ops.contains_key(&shed.reqid) {
                this.shed_lookups += 1;
            }
        });
        net.subscribe(|this: &mut ConsistentAbd, query: &ReadQueryMsg| {
            let (tag, value) = this
                .store
                .get(&query.key.0)
                .cloned()
                .unwrap_or((Tag::default(), None));
            this.net.trigger(ReadReplyMsg {
                base: query.base.reply(),
                rid: query.rid,
                tag,
                value,
            });
        });
        net.subscribe(|this: &mut ConsistentAbd, reply: &ReadReplyMsg| {
            this.handle_read_reply(reply);
        });
        net.subscribe(|this: &mut ConsistentAbd, write: &WriteQueryMsg| {
            let stored = this
                .store
                .entry(write.key.0)
                .or_insert((Tag::default(), None));
            if write.tag > stored.0 {
                *stored = (write.tag, write.value.clone());
            }
            this.net.trigger(WriteAckMsg {
                base: write.base.reply(),
                rid: write.rid,
            });
        });
        net.subscribe(|this: &mut ConsistentAbd, ack: &WriteAckMsg| {
            this.handle_write_ack(ack);
        });
        timer.subscribe(|this: &mut ConsistentAbd, _t: &SweepTick| {
            this.sweep();
        });
        timer.subscribe(|this: &mut ConsistentAbd, _t: &RepairTick| {
            this.repair_round();
        });
        ctx.subscribe_control(|this: &mut ConsistentAbd, _s: &Start| {
            if let Some(period) = this.config.repair_period {
                let id = TimeoutId::fresh();
                this.timer
                    .trigger(kompics_timer::SchedulePeriodicTimeout::new(
                        period,
                        period,
                        id,
                        Arc::new(RepairTick {
                            base: Timeout { id },
                        }),
                    ));
            }
        });
        status.subscribe(|this: &mut ConsistentAbd, req: &StatusRequest| {
            this.status.trigger(StatusResponse {
                tag: req.tag,
                component: "ConsistentAbd".into(),
                entries: vec![
                    ("stored_keys".into(), this.store.len().to_string()),
                    ("pending_ops".into(), this.ops.len().to_string()),
                    ("completed_ops".into(), this.completed_ops.to_string()),
                    ("failed_ops".into(), this.failed_ops.to_string()),
                    ("one_round_gets".into(), this.one_round_gets.to_string()),
                    ("imposed_gets".into(), this.imposed_gets.to_string()),
                    ("shed_lookups".into(), this.shed_lookups.to_string()),
                ],
            });
        });

        ConsistentAbd {
            ctx,
            put_get,
            status,
            net,
            timer,
            routing,
            self_addr,
            config,
            store: BTreeMap::new(),
            ops: BTreeMap::new(),
            next_rid: 1,
            minted_seq: 0,
            sweeps: 0,
            sweep_armed: false,
            completed_ops: 0,
            failed_ops: 0,
            one_round_gets: 0,
            imposed_gets: 0,
            shed_lookups: 0,
            repair_cursor: 0,
            repairs_sent: 0,
        }
    }

    /// Number of keys in the local store (introspection hook).
    pub fn stored_keys(&self) -> usize {
        self.store.len()
    }

    /// (completed, failed) coordinator operations.
    pub fn op_stats(&self) -> (u64, u64) {
        (self.completed_ops, self.failed_ops)
    }

    /// Completed gets that (answered after the read round, needed the
    /// write-back round).
    pub fn get_stats(&self) -> (u64, u64) {
        (self.one_round_gets, self.imposed_gets)
    }

    /// Number of anti-entropy write-impositions sent so far.
    pub fn repairs_sent(&self) -> u64 {
        self.repairs_sent
    }

    /// Number of router-shed lookups observed for pending ops.
    pub fn shed_lookups(&self) -> u64 {
        self.shed_lookups
    }

    fn begin_op(&mut self, client_id: u64, key: RingKey, kind: OpKind) {
        let rid = self.next_rid;
        self.next_rid += 1;
        self.ops.insert(
            rid,
            Op {
                client_id,
                key,
                kind,
                phase: Phase::Routing,
                group: Vec::new(),
                retries: 0,
                // An armed sweep is somewhere inside its period: its next
                // firing may be too early, the one after is not.
                expires: self.sweeps + 1 + u64::from(self.sweep_armed),
            },
        );
        self.routing.trigger(FindGroup { reqid: rid, key });
        self.arm_sweep();
    }

    /// Arms the coordinator's one timer, `op_timeout` from now, unless it is
    /// armed already. Only `begin_op` and `sweep` call this, so an idle
    /// coordinator has no timer.
    fn arm_sweep(&mut self) {
        if self.sweep_armed {
            return;
        }
        self.sweep_armed = true;
        let id = TimeoutId::fresh();
        self.timer.trigger(ScheduleTimeout::new(
            self.config.op_timeout,
            id,
            Arc::new(SweepTick {
                base: Timeout { id },
            }),
        ));
    }

    fn handle_group(&mut self, found: &GroupFound) {
        if found.reqid & REPAIR_RID_BIT != 0 {
            self.repair_group_found(found);
            return;
        }
        let Some(op) = self.ops.get_mut(&found.reqid) else {
            return;
        };
        if !matches!(op.phase, Phase::Routing) {
            return;
        }
        if found.group.is_empty() {
            // View not populated yet; the sweep will retry.
            return;
        }
        op.group = found.group.clone();
        op.phase = Phase::Query {
            from: BTreeSet::new(),
            max: (Tag::default(), None),
            same: 0,
        };
        for replica in &op.group {
            self.net.trigger(ReadQueryMsg {
                base: Message::new(self.self_addr, *replica),
                rid: found.reqid,
                key: op.key,
            });
        }
    }

    fn majority(group: &[Address]) -> usize {
        group.len() / 2 + 1
    }

    fn handle_read_reply(&mut self, reply: &ReadReplyMsg) {
        let Some(op) = self.ops.get_mut(&reply.rid) else {
            return;
        };
        let Phase::Query { from, max, same } = &mut op.phase else {
            return;
        };
        let source = reply.base.source.id;
        if !op.group.iter().any(|a| a.id == source) || !from.insert(source) {
            return; // from outside this attempt's group, or a duplicate
        }
        // `Tag::default()` is below every written tag and means "no value",
        // which is what the fold starts from.
        if reply.tag > max.0 {
            (max.0, *same) = (reply.tag, 0);
            if matches!(op.kind, OpKind::Get) {
                max.1.clone_from(&reply.value);
            }
        }
        *same += usize::from(reply.tag == max.0);
        if from.len() < Self::majority(&op.group) {
            return;
        }
        // Majority collected.
        let (max_tag, max_value, agreed) = (max.0, max.1.take(), *same == from.len());
        let (tag, value) = match &mut op.kind {
            OpKind::Get if agreed => {
                self.one_round_gets += 1;
                self.complete(reply.rid, max_value);
                return;
            }
            OpKind::Get => (max_tag, max_value),
            OpKind::Put(new_value, minted) => {
                // Above the maximum read, and above every tag minted here
                // before: two concurrent puts of this coordinator read the
                // same maximum and must still not share a tag. A retry
                // re-imposes the tag it has — under a fresh one the value
                // would be written a second time, after whatever overwrote
                // the first.
                let tag = *minted.get_or_insert_with(|| {
                    self.minted_seq = self.minted_seq.max(max_tag.seq) + 1;
                    Tag {
                        seq: self.minted_seq,
                        writer: self.self_addr.id,
                    }
                });
                (tag, Some(new_value.clone()))
            }
        };
        let rid = reply.rid;
        let key = op.key;
        for replica in &op.group {
            self.net.trigger(WriteQueryMsg {
                base: Message::new(self.self_addr, *replica),
                rid,
                key,
                tag,
                value: value.clone(),
            });
        }
        op.phase = Phase::Update {
            acks: BTreeSet::new(),
            result: value,
        };
    }

    fn handle_write_ack(&mut self, ack: &WriteAckMsg) {
        let Some(op) = self.ops.get_mut(&ack.rid) else {
            return;
        };
        let Phase::Update { acks, result } = &mut op.phase else {
            return;
        };
        if !op.group.iter().any(|a| a.id == ack.base.source.id) {
            return;
        }
        acks.insert(ack.base.source.id);
        if acks.len() < Self::majority(&op.group) {
            return;
        }
        let result = result.take();
        self.imposed_gets += u64::from(matches!(op.kind, OpKind::Get));
        self.complete(ack.rid, result);
    }

    /// Answers the client of operation `rid`; `value` is what a get read.
    fn complete(&mut self, rid: u64, value: Option<Vec<u8>>) {
        let op = self.ops.remove(&rid).expect("completed ops are pending");
        self.completed_ops += 1;
        match op.kind {
            OpKind::Get => self.put_get.trigger(GetResponse {
                id: op.client_id,
                key: op.key,
                value,
            }),
            OpKind::Put(..) => self.put_get.trigger(PutResponse {
                id: op.client_id,
                key: op.key,
            }),
        }
    }

    /// One anti-entropy round: walk the next slice of the store (cursor
    /// wraps) and ask the router for each key's current group.
    fn repair_round(&mut self) {
        if self.store.is_empty() {
            return;
        }
        let mut keys: Vec<u64> = self
            .store
            .range(self.repair_cursor..)
            .take(self.config.repair_batch)
            .map(|(k, _)| *k)
            .collect();
        if keys.len() < self.config.repair_batch {
            let wrap = self.config.repair_batch - keys.len();
            keys.extend(self.store.range(..).take(wrap).map(|(k, _)| *k));
        }
        self.repair_cursor = keys.last().map(|k| k.wrapping_add(1)).unwrap_or(0);
        for key in keys {
            self.routing.trigger(FindGroup {
                reqid: key | REPAIR_RID_BIT,
                key: RingKey(key),
            });
        }
    }

    /// Re-impose the stored `(tag, value)` of the repaired key on its
    /// current group (fire-and-forget: replicas keep the newest tag, stray
    /// acks are ignored by `handle_write_ack`).
    fn repair_group_found(&mut self, found: &GroupFound) {
        let Some((tag, value)) = self.store.get(&found.key.0).cloned() else {
            return;
        };
        for replica in &found.group {
            if replica.id == self.self_addr.id {
                continue;
            }
            self.repairs_sent += 1;
            self.net.trigger(WriteQueryMsg {
                base: Message::new(self.self_addr, *replica),
                rid: found.reqid,
                key: found.key,
                tag,
                value: value.clone(),
            });
        }
    }

    /// One firing of the coordinator's timer: every attempt whose `expires`
    /// has come is retried from scratch (or failed), and the timer is
    /// re-armed while anything is pending. An attempt begun with no sweep
    /// armed, and every retry, lives exactly `op_timeout`; one begun inside
    /// an armed period lives between one and two `op_timeout`.
    fn sweep(&mut self) {
        self.sweep_armed = false;
        self.sweeps += 1;
        let due = (self.ops.iter()).filter(|(_, op)| op.expires <= self.sweeps);
        for rid in due.map(|(rid, _)| *rid).collect::<Vec<u64>>() {
            let op = self.ops.get_mut(&rid).expect("collected above");
            op.retries += 1;
            if op.retries > self.config.max_retries {
                let op = self.ops.remove(&rid).expect("present above");
                self.failed_ops += 1;
                self.put_get.trigger(OpFailed {
                    id: op.client_id,
                    key: op.key,
                    reason: format!("no quorum after {} attempts", op.retries),
                });
                continue;
            }
            // Retry from scratch: re-resolve the group (it may have changed).
            op.phase = Phase::Routing;
            op.group.clear();
            op.expires = self.sweeps + 1;
            let key = op.key;
            self.routing.trigger(FindGroup { reqid: rid, key });
        }
        if !self.ops.is_empty() {
            self.arm_sweep();
        }
    }
}

impl ComponentDefinition for ConsistentAbd {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "ConsistentAbd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kompics_core::port::{Direction, PortType};

    #[test]
    fn put_get_port_direction_rules() {
        assert!(PutGet::allows(
            &GetRequest {
                id: 1,
                key: RingKey(2)
            },
            Direction::Negative
        ));
        assert!(PutGet::allows(
            &PutRequest {
                id: 1,
                key: RingKey(2),
                value: vec![]
            },
            Direction::Negative
        ));
        assert!(PutGet::allows(
            &GetResponse {
                id: 1,
                key: RingKey(2),
                value: None
            },
            Direction::Positive
        ));
        assert!(PutGet::allows(
            &PutResponse {
                id: 1,
                key: RingKey(2)
            },
            Direction::Positive
        ));
        assert!(PutGet::allows(
            &OpFailed {
                id: 1,
                key: RingKey(2),
                reason: String::new()
            },
            Direction::Positive
        ));
    }

    #[test]
    fn majority_math() {
        let group: Vec<Address> = (1..=5).map(Address::sim).collect();
        assert_eq!(ConsistentAbd::majority(&group), 3);
        assert_eq!(ConsistentAbd::majority(&group[..3]), 2);
        assert_eq!(ConsistentAbd::majority(&group[..1]), 1);
        assert_eq!(ConsistentAbd::majority(&group[..4]), 3);
    }
}
