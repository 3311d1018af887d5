//! Bounded per-component mailboxes with per-port QoS policies.
//!
//! Every component queues its incoming events in a [`Mailbox`] with two
//! priority lanes: [`Lane::Control`] (life-cycle, supervision and
//! reconfiguration events — everything on the control port) and
//! [`Lane::Data`] (everything else). The execution slice always drains
//! control ahead of data, so a data flood can never starve a `Stop`, `Kill`
//! or supervision fault — but without admission control a slow component
//! still grows its data lane without bound. A [`MailboxSpec`] bounds each
//! lane and picks what happens at the bound:
//!
//! * [`OverloadPolicy::Block`] — admit the event but report
//!   [`Feedback::pushback`] to the *synchronous* trigger chain, so
//!   cooperating producers (the TCP read path, flow-controlled components)
//!   slow down. Pushback persists until the lane drains to its low
//!   watermark, giving producers a hysteresis band to resume in. Memory is
//!   bounded only as far as producers honour the signal; for hard bounds
//!   use one of the shedding policies.
//! * [`OverloadPolicy::DropNewest`] — discard the arriving event.
//! * [`OverloadPolicy::DropOldest`] — evict the oldest queued event in the
//!   lane and admit the new one (freshest-data-wins).
//! * [`OverloadPolicy::Sample`]`(n)` — once at capacity, admit every n-th
//!   arriving event in place of the oldest and discard the rest
//!   (deterministic counter, no randomness).
//! * [`OverloadPolicy::Coalesce`]`(f)` — merge the arriving event into the
//!   newest queued event from the same port and direction using `f`;
//!   discard it if nothing is there to merge with.
//!
//! All decisions are pure functions of the arrival order and the spec —
//! no clocks, no RNG — so under the sequential scheduler a same-seed
//! simulation makes byte-identical drop/coalesce decisions on every run.
//!
//! The default spec leaves both lanes unbounded, preserving the semantics
//! the runtime had before mailboxes existed. The control lane should stay
//! unbounded in almost every configuration: a shed `Kill` or `Start` breaks
//! the life-cycle protocol.

use std::any::TypeId;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::component::WorkItem;
use crate::event::EventRef;
use crate::port::PortType;
use crate::system::SystemCore;

/// The two mailbox priority lanes; control always executes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Life-cycle / supervision / reconfiguration events (the control port).
    Control = 0,
    /// Everything else.
    Data = 1,
}

impl Lane {
    /// Lane label used in telemetry exports.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Control => "control",
            Lane::Data => "data",
        }
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Merges an arriving event (second argument) into an already-queued event
/// (first argument) under [`OverloadPolicy::Coalesce`]; returns the event
/// that stays queued.
pub type CoalesceFn = Arc<dyn Fn(&EventRef, &EventRef) -> EventRef + Send + Sync>;

/// What a lane does with an arriving event once it is at capacity. See the
/// [module docs](self) for the full semantics of each strategy.
#[derive(Clone)]
pub enum OverloadPolicy {
    /// Admit and signal [`Feedback::pushback`] until the low watermark.
    Block,
    /// Evict the oldest queued event, admit the new one.
    DropOldest,
    /// Discard the arriving event.
    DropNewest,
    /// Admit every n-th arrival in place of the oldest; discard the rest.
    Sample(u32),
    /// Merge into the newest queued event from the same port half.
    Coalesce(CoalesceFn),
}

impl fmt::Debug for OverloadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverloadPolicy::Block => write!(f, "Block"),
            OverloadPolicy::DropOldest => write!(f, "DropOldest"),
            OverloadPolicy::DropNewest => write!(f, "DropNewest"),
            OverloadPolicy::Sample(n) => write!(f, "Sample({n})"),
            OverloadPolicy::Coalesce(_) => write!(f, "Coalesce(..)"),
        }
    }
}

/// Admission configuration for one lane (or one port's view of a lane).
#[derive(Clone, Debug)]
pub struct LaneSpec {
    /// Maximum queued events before `policy` kicks in; `None` = unbounded.
    pub capacity: Option<usize>,
    /// What to do at capacity.
    pub policy: OverloadPolicy,
    /// Depth at which a saturated [`OverloadPolicy::Block`] lane stops
    /// signalling pushback. Defaults to half the capacity.
    pub low_watermark: Option<usize>,
}

impl Default for LaneSpec {
    /// Unbounded — today's pre-mailbox semantics.
    fn default() -> Self {
        LaneSpec {
            capacity: None,
            policy: OverloadPolicy::Block,
            low_watermark: None,
        }
    }
}

impl LaneSpec {
    /// A bounded lane with the given capacity and policy.
    pub fn bounded(capacity: usize, policy: OverloadPolicy) -> Self {
        LaneSpec {
            capacity: Some(capacity.max(1)),
            policy,
            low_watermark: None,
        }
    }

    /// Overrides the low watermark (only meaningful under
    /// [`OverloadPolicy::Block`]).
    pub fn with_low_watermark(mut self, low: usize) -> Self {
        self.low_watermark = Some(low);
        self
    }

    fn cap(&self) -> Option<usize> {
        self.capacity.map(|c| c.max(1))
    }

    fn low(&self) -> usize {
        match self.low_watermark {
            Some(low) => low,
            None => self.cap().unwrap_or(0) / 2,
        }
    }
}

/// Per-component mailbox configuration: lane defaults plus per-port
/// overrides. Returned by
/// [`ComponentDefinition::mailbox_spec`](crate::component::ComponentDefinition::mailbox_spec);
/// the default preserves the unbounded semantics the runtime always had.
#[derive(Clone, Debug, Default)]
pub struct MailboxSpec {
    /// Admission for the control lane. Keep this unbounded unless you can
    /// afford to lose life-cycle events.
    pub control: LaneSpec,
    /// Admission for the data lane.
    pub data: LaneSpec,
    /// Per-port overrides: events arriving at a port of the given type use
    /// that spec (evaluated against the shared lane depth) instead of the
    /// lane default.
    per_port: Vec<(TypeId, LaneSpec)>,
}

impl MailboxSpec {
    /// Unbounded mailbox (the default).
    pub fn unbounded() -> Self {
        MailboxSpec::default()
    }

    /// Bounds the data lane at `capacity` with the given policy; the
    /// control lane stays unbounded.
    pub fn bounded_data(capacity: usize, policy: OverloadPolicy) -> Self {
        MailboxSpec {
            data: LaneSpec::bounded(capacity, policy),
            ..MailboxSpec::default()
        }
    }

    /// Replaces the data-lane spec.
    pub fn with_data(mut self, spec: LaneSpec) -> Self {
        self.data = spec;
        self
    }

    /// Replaces the control-lane spec.
    pub fn with_control(mut self, spec: LaneSpec) -> Self {
        self.control = spec;
        self
    }

    /// Adds a per-port override: events arriving at a `P` port use `spec`.
    pub fn with_port<P: PortType>(mut self, spec: LaneSpec) -> Self {
        self.per_port.push((TypeId::of::<P>(), spec));
        self
    }
}

/// Snapshot of one lane's depth and monotonic counters, as exported through
/// telemetry and inspected by tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounters {
    /// Events currently queued (may momentarily overstate during a slice).
    pub depth: usize,
    /// Events admitted into the lane, ever.
    pub enqueued: u64,
    /// Events discarded (drop-newest, evictions, sampled-out, unmergeable).
    pub dropped: u64,
    /// Arrivals merged into a queued event.
    pub coalesced: u64,
    /// Admissions that reported pushback.
    pub pushback: u64,
}

/// Outcome of offering one event to a mailbox lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enqueued {
    /// Admitted normally.
    Delivered,
    /// Admitted, but the lane is saturated under `Block` — slow down.
    DeliveredPushback,
    /// Admitted after evicting the oldest queued event.
    DeliveredEvicted,
    /// Merged into an already-queued event.
    Coalesced,
    /// Discarded.
    Dropped,
}

/// Aggregated admission feedback for one trigger: what every mailbox the
/// event fanned out to (directly or through channels) reported. Returned by
/// [`PortRef::trigger`](crate::port::PortRef::trigger).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Feedback {
    /// At least one destination lane is saturated under
    /// [`OverloadPolicy::Block`]; a cooperating producer should pause until
    /// a pushback-free trigger signals the low watermark was reached.
    pub pushback: bool,
    /// Copies admitted for execution.
    pub delivered: u64,
    /// Copies discarded by a shedding policy (including evicted older
    /// events).
    pub dropped: u64,
    /// Copies merged into an already-queued event.
    pub coalesced: u64,
}

impl Feedback {
    /// Folds another fan-out branch's feedback into this one.
    pub fn merge(&mut self, other: Feedback) {
        self.pushback |= other.pushback;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.coalesced += other.coalesced;
    }

    pub(crate) fn note(&mut self, outcome: Enqueued) {
        match outcome {
            Enqueued::Delivered => self.delivered += 1,
            Enqueued::DeliveredPushback => {
                self.delivered += 1;
                self.pushback = true;
            }
            Enqueued::DeliveredEvicted => {
                self.delivered += 1;
                self.dropped += 1;
            }
            Enqueued::Coalesced => self.coalesced += 1,
            Enqueued::Dropped => self.dropped += 1,
        }
    }
}

/// Interior queue state, behind the lane lock. `saturated` and `sample_seq`
/// live here (not in atomics) so admission decisions are serialized with the
/// queue itself — that is what makes them deterministic under the
/// sequential scheduler.
struct LaneQueue {
    items: VecDeque<WorkItem>,
    /// `Block` hysteresis: set at capacity, cleared when a pop drains the
    /// lane to the low watermark.
    saturated: bool,
    /// Deterministic `Sample(n)` arrival counter, advanced only while at
    /// capacity.
    sample_seq: u64,
}

struct LaneState {
    queue: Mutex<LaneQueue>,
    /// The Dekker-handoff counter shared with the scheduler: incremented
    /// (SeqCst) before an item becomes poppable, batch-decremented at the
    /// end of an execution slice. May only ever *over*state queued work.
    pending: AtomicUsize,
    spec: LaneSpec,
    enqueued: AtomicU64,
    dropped: AtomicU64,
    coalesced: AtomicU64,
    pushback: AtomicU64,
}

impl LaneState {
    fn new(spec: LaneSpec) -> LaneState {
        LaneState {
            queue: Mutex::new(LaneQueue {
                items: VecDeque::new(),
                saturated: false,
                sample_seq: 0,
            }),
            pending: AtomicUsize::new(0),
            spec,
            enqueued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            pushback: AtomicU64::new(0),
        }
    }
}

/// A component's bounded, two-lane event queue. Owned by `ComponentCore`;
/// see the [module docs](self).
pub(crate) struct Mailbox {
    lanes: [LaneState; 2],
    per_port: Vec<(TypeId, LaneSpec)>,
}

impl Mailbox {
    pub(crate) fn new(spec: MailboxSpec) -> Mailbox {
        Mailbox {
            lanes: [LaneState::new(spec.control), LaneState::new(spec.data)],
            per_port: spec.per_port,
        }
    }

    fn lane(&self, lane: Lane) -> &LaneState {
        &self.lanes[lane as usize]
    }

    fn spec_for(&self, lane: Lane, port_type: TypeId) -> &LaneSpec {
        self.per_port
            .iter()
            .find(|(ty, _)| *ty == port_type)
            .map(|(_, spec)| spec)
            .unwrap_or(&self.lane(lane).spec)
    }

    /// The lane's pending counter (SeqCst). This is the scheduler-facing
    /// count: it may overstate briefly during a slice, never understate.
    pub(crate) fn pending(&self, lane: Lane) -> usize {
        self.lane(lane).pending.load(Ordering::SeqCst)
    }

    /// Batch-settles `n` popped items off the lane's pending counter
    /// (SeqCst, end of an execution slice).
    pub(crate) fn settle(&self, lane: Lane, n: usize) {
        if n > 0 {
            self.lane(lane).pending.fetch_sub(n, Ordering::SeqCst);
        }
    }

    /// Whether the lane is currently inside a `Block` saturation window
    /// (set at capacity, cleared at the low watermark).
    pub(crate) fn saturated(&self, lane: Lane) -> bool {
        self.lane(lane).queue.lock().saturated
    }

    /// Snapshot of the lane's depth and counters.
    pub(crate) fn counters(&self, lane: Lane) -> LaneCounters {
        let state = self.lane(lane);
        LaneCounters {
            depth: state.queue.lock().items.len(),
            enqueued: state.enqueued.load(Ordering::Relaxed),
            dropped: state.dropped.load(Ordering::Relaxed),
            coalesced: state.coalesced.load(Ordering::Relaxed),
            pushback: state.pushback.load(Ordering::Relaxed),
        }
    }

    /// Offers one event to a lane, applying the admission policy of the
    /// port it arrived at. The lane lock serializes the decision with the
    /// queue; the pending counter and the system-wide quiescence counter are
    /// updated *before* the item becomes poppable (and symmetrically when an
    /// event is evicted), preserving the overstate-only invariant the
    /// scheduler handoff and `await_quiescence` rely on.
    pub(crate) fn offer(&self, lane: Lane, item: WorkItem, system: &Arc<SystemCore>) -> Enqueued {
        let state = self.lane(lane);
        let spec = self.spec_for(lane, item.half.port_type);
        let mut q = state.queue.lock();
        let outcome = match spec.cap() {
            Some(cap) if q.items.len() >= cap => match &spec.policy {
                OverloadPolicy::Block => {
                    q.saturated = true;
                    Self::admit(state, &mut q, item, system);
                    Enqueued::DeliveredPushback
                }
                OverloadPolicy::DropNewest => Enqueued::Dropped,
                OverloadPolicy::DropOldest => {
                    Self::evict_oldest(state, &mut q, system);
                    Self::admit(state, &mut q, item, system);
                    Enqueued::DeliveredEvicted
                }
                OverloadPolicy::Sample(n) => {
                    q.sample_seq += 1;
                    if q.sample_seq.is_multiple_of(u64::from((*n).max(1))) {
                        Self::evict_oldest(state, &mut q, system);
                        Self::admit(state, &mut q, item, system);
                        Enqueued::DeliveredEvicted
                    } else {
                        Enqueued::Dropped
                    }
                }
                OverloadPolicy::Coalesce(merge) => {
                    let slot = q.items.iter_mut().rev().find(|queued| {
                        Arc::ptr_eq(&queued.half, &item.half) && queued.direction == item.direction
                    });
                    match slot {
                        Some(queued) => {
                            queued.event = merge(&queued.event, &item.event);
                            Enqueued::Coalesced
                        }
                        None => Enqueued::Dropped,
                    }
                }
            },
            _ => {
                let pushback = q.saturated && matches!(spec.policy, OverloadPolicy::Block);
                Self::admit(state, &mut q, item, system);
                if pushback {
                    Enqueued::DeliveredPushback
                } else {
                    Enqueued::Delivered
                }
            }
        };
        drop(q);
        match outcome {
            Enqueued::DeliveredPushback => {
                state.pushback.fetch_add(1, Ordering::Relaxed);
            }
            Enqueued::DeliveredEvicted | Enqueued::Dropped => {
                state.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Enqueued::Coalesced => {
                state.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            Enqueued::Delivered => {}
        }
        outcome
    }

    fn admit(state: &LaneState, q: &mut LaneQueue, item: WorkItem, system: &Arc<SystemCore>) {
        // Counter before push: a concurrent consumer's counters then only
        // overstate queued work (same protocol the SegQueue version used).
        state.pending.fetch_add(1, Ordering::SeqCst);
        system.pending_inc();
        // komlint: allow(unbounded-queue-push) reason="the admission check above is what bounds this queue; this is the allowlisted mailbox internal the rule points everyone else at"
        q.items.push_back(item);
        state.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    fn evict_oldest(state: &LaneState, q: &mut LaneQueue, system: &Arc<SystemCore>) {
        if q.items.pop_front().is_some() {
            state.pending.fetch_sub(1, Ordering::SeqCst);
            system.pending_sub(1);
        }
    }

    /// Pops the oldest event in the lane. Does *not* settle the pending
    /// counter — the execution slice batches that via [`Mailbox::settle`].
    pub(crate) fn pop(&self, lane: Lane) -> Option<WorkItem> {
        let state = self.lane(lane);
        let mut q = state.queue.lock();
        let item = q.items.pop_front();
        if q.saturated && q.items.len() <= state.spec.low() {
            q.saturated = false;
        }
        item
    }
}

impl fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mailbox")
            .field("control", &self.counters(Lane::Control))
            .field("data", &self.counters(Lane::Data))
            .finish()
    }
}
