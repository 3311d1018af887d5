//! Components: event-driven state machines that execute concurrently and
//! communicate asynchronously by message passing.
//!
//! A component definition is a plain struct holding the component's local
//! state, its [`ComponentContext`], and its port fields
//! ([`ProvidedPort`]/[`RequiredPort`]). Handlers are subscribed on the port
//! fields (usually in the constructor) and receive `&mut self`, so component
//! state needs no locking: the execution model guarantees that the handlers
//! of one component instance are mutually exclusive.
//!
//! Components form a containment hierarchy: a component creates
//! subcomponents with [`ComponentContext::create`], and activation,
//! passivation and destruction recurse over the subtree
//! (see [`lifecycle`](crate::lifecycle)).
//!
//! [`ProvidedPort`]: crate::port::ProvidedPort
//! [`RequiredPort`]: crate::port::RequiredPort

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::error::CoreError;
use crate::event::{Event, EventRef};
use crate::fault::Fault;
use crate::lifecycle::{ControlPort, Kill, Start, Started, Stop, Stopped};
use crate::mailbox::{Enqueued, Lane, LaneCounters, Mailbox, MailboxSpec};
use crate::port::{
    erase_handler, erase_handler_shared, fresh_handler_id, Direction, PortCore, PortRef, PortType,
    Subscription,
};
use crate::system::SystemCore;
use crate::types::{ComponentId, HandlerId};

/// User-facing component behaviour: implemented by every component
/// definition struct.
///
/// Only two methods are required; the state-transfer hooks have no-op
/// defaults and are used by
/// [dynamic reconfiguration](crate::reconfig::replace_component).
pub trait ComponentDefinition: Any + Send {
    /// Access to the component's context field.
    fn context(&self) -> &ComponentContext;

    /// The definition's type name, used in component names and diagnostics.
    fn type_name(&self) -> &'static str;

    /// Extracts this component's transferable state, for handing over to a
    /// replacement component. Returns `None` if the component does not
    /// support state transfer (the default).
    fn extract_state(&mut self) -> Option<Box<dyn Any + Send>> {
        None
    }

    /// Installs state extracted from a predecessor component. The default
    /// implementation ignores it.
    fn install_state(&mut self, _state: Box<dyn Any + Send>) {}

    /// Builds a fresh definition to replace this one after a fault, used by
    /// [supervision](crate::supervision) when no explicit factory was given.
    /// Like a constructor, implementations may call `ProvidedPort::new` /
    /// `RequiredPort::new` / `ComponentContext::create` — the runtime calls
    /// this inside a construction frame. Returns `None` if the component
    /// cannot be recreated (the default).
    fn recreate(&self) -> Option<Box<dyn ComponentDefinition>> {
        None
    }

    /// The mailbox (queue bounds and overload policies) this component
    /// wants, consulted once at creation. The default is unbounded on both
    /// lanes — exactly the semantics components had before bounded
    /// mailboxes existed. See [`MailboxSpec`].
    fn mailbox_spec(&self) -> MailboxSpec {
        MailboxSpec::default()
    }
}

/// Life-cycle state of a component instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LifecycleState {
    /// Created but not yet started: events queue but do not execute
    /// (control events do execute).
    Passive = 0,
    /// Executing events normally.
    Active = 1,
    /// A handler panicked; the component no longer executes events.
    Faulty = 2,
    /// Destroyed; events toward it are discarded.
    Destroyed = 3,
}

impl LifecycleState {
    fn from_u8(v: u8) -> LifecycleState {
        match v {
            0 => LifecycleState::Passive,
            1 => LifecycleState::Active,
            2 => LifecycleState::Faulty,
            _ => LifecycleState::Destroyed,
        }
    }
}

/// One unit of queued work: an event delivered at a port half for this
/// component's subscribed handlers.
pub(crate) struct WorkItem {
    pub(crate) half: Arc<PortCore>,
    pub(crate) direction: Direction,
    pub(crate) event: EventRef,
    /// Causal span minted at delivery (`enqueue_work`); `0` when telemetry
    /// or tracing is not installed.
    pub(crate) span: u64,
}

impl WorkItem {
    pub(crate) fn new(half: Arc<PortCore>, direction: Direction, event: EventRef) -> WorkItem {
        WorkItem {
            half,
            direction,
            event,
            span: 0,
        }
    }
}

/// Result of one scheduled execution slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecuteResult {
    /// No more work (or another scheduling already claimed it).
    Done,
    /// More work remains and this execution re-claimed the scheduling flag;
    /// the scheduler should run the component again.
    Reschedule,
}

// ---------------------------------------------------------------------------
// Construction frames: how `ProvidedPort::new()` / `RequiredPort::new()`
// register ports with the component whose constructor is running.
// ---------------------------------------------------------------------------

pub(crate) struct PortRecord {
    pub(crate) port_type: TypeId,
    pub(crate) provided: bool,
    pub(crate) inside: Arc<PortCore>,
    pub(crate) outside: Arc<PortCore>,
}

struct ConstructionFrame {
    system: Weak<SystemCore>,
    ports: Vec<PortRecord>,
    /// Children created during the constructor; their parent link is fixed
    /// up once the parent's core exists.
    deferred_children: Vec<Arc<ComponentCore>>,
}

thread_local! {
    static CONSTRUCTION: RefCell<Vec<ConstructionFrame>> = const { RefCell::new(Vec::new()) };
}

/// Called by port constructors to register with the component under
/// construction.
///
/// # Panics
///
/// Panics when no component constructor is running on this thread.
pub(crate) fn construction_frame_attach(
    inside: Arc<PortCore>,
    outside: Arc<PortCore>,
    provided: bool,
) {
    CONSTRUCTION.with(|stack| {
        let mut stack = stack.borrow_mut();
        let frame = stack.last_mut().expect(
            "ProvidedPort::new/RequiredPort::new must be called inside a \
             component constructor closure passed to `create`",
        );
        frame.ports.push(PortRecord {
            port_type: inside.port_type,
            provided,
            inside,
            outside,
        });
    });
}

fn current_frame_system() -> Option<Weak<SystemCore>> {
    CONSTRUCTION.with(|stack| stack.borrow().last().map(|f| f.system.clone()))
}

fn current_frame_defer_child(child: Arc<ComponentCore>) {
    CONSTRUCTION.with(|stack| {
        if let Some(frame) = stack.borrow_mut().last_mut() {
            frame.deferred_children.push(child);
        }
    });
}

// ---------------------------------------------------------------------------
// ComponentContext
// ---------------------------------------------------------------------------

struct CtxInner {
    id: ComponentId,
    core: Weak<ComponentCore>,
    system: Weak<SystemCore>,
}

/// The component's link to the runtime: every component definition holds one
/// as a field and returns it from [`ComponentDefinition::context`].
///
/// Construct it with [`ComponentContext::new`] in the component constructor;
/// the runtime binds it when the component is created.
pub struct ComponentContext {
    inner: OnceLock<CtxInner>,
    pending_control: Mutex<Vec<Arc<Subscription>>>,
}

impl fmt::Debug for ComponentContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.get() {
            Some(inner) => write!(f, "ComponentContext({})", inner.id),
            None => write!(f, "ComponentContext(unbound)"),
        }
    }
}

impl Default for ComponentContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ComponentContext {
    /// Creates an unbound context; the runtime binds it during `create`.
    pub fn new() -> Self {
        ComponentContext {
            inner: OnceLock::new(),
            pending_control: Mutex::new(Vec::new()),
        }
    }

    fn bound(&self) -> &CtxInner {
        self.inner.get().expect("component context not yet bound")
    }

    /// This component's id.
    ///
    /// # Panics
    ///
    /// Panics if called before the component is created (i.e. from within
    /// the constructor).
    pub fn id(&self) -> ComponentId {
        self.bound().id
    }

    #[allow(dead_code)]
    pub(crate) fn system(&self) -> Result<Arc<SystemCore>, CoreError> {
        self.bound()
            .system
            .upgrade()
            .ok_or(CoreError::Defunct { what: "system" })
    }

    #[allow(dead_code)]
    pub(crate) fn core(&self) -> Result<Arc<ComponentCore>, CoreError> {
        self.bound()
            .core
            .upgrade()
            .ok_or(CoreError::Defunct { what: "component" })
    }

    /// Creates a subcomponent of this component. The child is created
    /// passive; it is activated when this component starts (if already
    /// created) or when [`start`](ComponentContext::start_child) is invoked.
    ///
    /// Also callable from within a component constructor, where the new
    /// component becomes a child of the component under construction.
    pub fn create<D, F>(&self, f: F) -> Component<D>
    where
        D: ComponentDefinition,
        F: FnOnce() -> D,
    {
        if let Some(inner) = self.inner.get() {
            let system = inner.system.upgrade().expect("system gone");
            let parent = inner.core.upgrade();
            create_in_system(&system, parent, f)
        } else {
            // Constructor-time creation: the parent core does not exist yet,
            // so create the child unparented and let `create_in_system` fix
            // up the link once the parent core is allocated.
            let system_weak = current_frame_system().expect(
                "ComponentContext::create outside both a bound component and \
                 a component constructor",
            );
            let system = system_weak.upgrade().expect("system gone");
            let child = create_in_system(&system, None, f);
            current_frame_defer_child(Arc::clone(&child.core));
            child
        }
    }

    /// Triggers [`Start`] on a child's control port.
    pub fn start_child<D>(&self, child: &Component<D>) {
        let _ = child
            .core
            .control_outside
            .trigger_new(Direction::Negative, Start);
    }

    /// Triggers [`Stop`] on a child's control port.
    pub fn stop_child<D>(&self, child: &Component<D>) {
        let _ = child
            .core
            .control_outside
            .trigger_new(Direction::Negative, Stop);
    }

    /// Triggers [`Kill`] on a child's control port.
    pub fn kill_child<D>(&self, child: &Component<D>) {
        let _ = child
            .core
            .control_outside
            .trigger_new(Direction::Negative, Kill);
    }

    /// Subscribes a handler (owned by *this* component) on an arbitrary port
    /// half — typically a port of an immediate subcomponent, e.g. a `Fault`
    /// handler on a child's control port.
    pub fn subscribe<C, E, P, F>(&self, port: &PortRef<P>, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        P: PortType,
        F: Fn(&mut C, &E) + Send + Sync + 'static,
    {
        let inner = self.bound();
        let id = fresh_handler_id();
        let sub = Arc::new(Subscription {
            id,
            event_type: TypeId::of::<E>(),
            event_type_name: std::any::type_name::<E>(),
            subscriber: OnceLock::new(),
            handler: erase_handler(f),
        });
        sub.subscriber
            .set((inner.id, inner.core.clone()))
            .expect("fresh subscription");
        port.core().subscribe_raw(sub);
        id
    }

    /// Like [`subscribe`](ComponentContext::subscribe), but the handler
    /// receives the shared, type-erased event (still filtered to `E`
    /// instances) — see
    /// [`ProvidedPort::subscribe_shared`](crate::port::ProvidedPort::subscribe_shared).
    pub fn subscribe_shared<C, E, P, F>(&self, port: &PortRef<P>, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        P: PortType,
        F: Fn(&mut C, &EventRef) + Send + Sync + 'static,
    {
        let inner = self.bound();
        let id = fresh_handler_id();
        let sub = Arc::new(Subscription {
            id,
            event_type: TypeId::of::<E>(),
            event_type_name: std::any::type_name::<E>(),
            subscriber: OnceLock::new(),
            handler: erase_handler_shared(f),
        });
        sub.subscriber
            .set((inner.id, inner.core.clone()))
            .expect("fresh subscription");
        port.core().subscribe_raw(sub);
        id
    }

    /// Removes a subscription previously made with
    /// [`subscribe`](ComponentContext::subscribe).
    pub fn unsubscribe<P: PortType>(&self, port: &PortRef<P>, id: HandlerId) -> bool {
        port.core().unsubscribe_raw(id)
    }

    /// Number of events queued in one of this component's own mailbox
    /// lanes. Handlers use this to shed load early: a request handler that
    /// sees a deep backlog behind it can answer "overloaded, retry later"
    /// instead of letting work queue up.
    pub fn lane_pending(&self, lane: Lane) -> usize {
        self.inner
            .get()
            .and_then(|inner| inner.core.upgrade())
            .map_or(0, |core| core.lane_pending(lane))
    }

    /// Snapshot of one of this component's own mailbox lanes.
    pub fn mailbox_counters(&self, lane: Lane) -> LaneCounters {
        self.inner
            .get()
            .and_then(|inner| inner.core.upgrade())
            .map_or_else(LaneCounters::default, |core| core.mailbox_counters(lane))
    }

    /// Subscribes a handler on this component's **own control port**, for
    /// [`Init`](crate::lifecycle::Init) subtypes, [`Start`], [`Stop`] or
    /// [`Kill`]. Usable from the component constructor.
    pub fn subscribe_control<C, E, F>(&self, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        F: Fn(&mut C, &E) + Send + Sync + 'static,
    {
        let id = fresh_handler_id();
        let sub = Arc::new(Subscription {
            id,
            event_type: TypeId::of::<E>(),
            event_type_name: std::any::type_name::<E>(),
            subscriber: OnceLock::new(),
            handler: erase_handler(f),
        });
        match self.inner.get() {
            Some(inner) => {
                sub.subscriber
                    .set((inner.id, inner.core.clone()))
                    .expect("fresh subscription");
                if let Some(core) = inner.core.upgrade() {
                    core.control_inside.subscribe_raw(sub);
                }
            }
            None => self.pending_control.lock().push(sub),
        }
        id
    }
}

// ---------------------------------------------------------------------------
// ComponentCore
// ---------------------------------------------------------------------------

/// The runtime half of a component: queues, life-cycle state, hierarchy
/// links and the boxed definition. Users interact through [`Component`] /
/// [`ComponentRef`] handles.
pub struct ComponentCore {
    id: ComponentId,
    name: String,
    system: Weak<SystemCore>,
    pub(crate) definition: Mutex<Option<Box<dyn ComponentDefinition>>>,
    lifecycle: AtomicU8,
    scheduled: AtomicBool,
    executing: AtomicBool,
    /// The bounded two-lane event queue (control > data); replaces the old
    /// pair of unbounded queues. Its per-lane pending counters are the
    /// producer side of the Dekker scheduling handoff.
    mailbox: Mailbox,
    /// Home-worker affinity hint consulted by the sharded scheduler when
    /// the ready flag (`scheduled`) is claimed: the readiness handoff
    /// carries this hint so the component keeps executing on one worker.
    /// Purely advisory — delivery correctness never depends on it.
    home: crate::sched::affinity::HomeHint,
    pub(crate) ports: Mutex<Vec<PortRecord>>,
    pub(crate) control_inside: Arc<PortCore>,
    pub(crate) control_outside: Arc<PortCore>,
    parent: Mutex<Option<Weak<ComponentCore>>>,
    children: Mutex<Vec<Arc<ComponentCore>>>,
    /// Instrumentation handles, set once at creation when the system has
    /// telemetry installed. A single `OnceLock::get` when absent.
    metrics: OnceLock<crate::telemetry::ComponentMetrics>,
}

impl fmt::Debug for ComponentCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentCore")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("state", &self.lifecycle())
            .finish_non_exhaustive()
    }
}

impl ComponentCore {
    /// The component's id.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// The component's name: definition type name plus id.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scheduler affinity hint travelling with the ready flag: which
    /// shard this component calls home. Only the scheduler mutates it, and
    /// only while holding the component's scheduling claim.
    pub(crate) fn home_hint(&self) -> &crate::sched::affinity::HomeHint {
        &self.home
    }

    /// Current life-cycle state.
    ///
    /// Deliberately *not* demoted from SeqCst: `runnable()` combines this
    /// load with the pending-counter loads in the lost-wakeup recheck, and
    /// mixing weaker orderings there would void the single-total-order
    /// argument that makes the recheck sound (a Passive→Active transition
    /// racing an enqueue could otherwise strand a work item).
    pub fn lifecycle(&self) -> LifecycleState {
        LifecycleState::from_u8(self.lifecycle.load(Ordering::SeqCst))
    }

    fn set_lifecycle(&self, s: LifecycleState) {
        self.lifecycle.store(s as u8, Ordering::SeqCst);
    }

    /// Number of events currently queued at this component.
    pub fn pending(&self) -> usize {
        self.mailbox.pending(Lane::Control) + self.mailbox.pending(Lane::Data)
    }

    /// Number of events currently queued in one mailbox lane.
    pub fn lane_pending(&self, lane: Lane) -> usize {
        self.mailbox.pending(lane)
    }

    /// Snapshot of one mailbox lane's depth and overload counters.
    pub fn mailbox_counters(&self, lane: Lane) -> LaneCounters {
        self.mailbox.counters(lane)
    }

    /// Whether a lane is inside a `Block` saturation window (at capacity,
    /// not yet drained to the low watermark).
    pub fn lane_saturated(&self, lane: Lane) -> bool {
        self.mailbox.saturated(lane)
    }

    /// Whether an execution slice is currently running.
    pub(crate) fn is_executing(&self) -> bool {
        // Acquire pairs with the Release stores in `execute`; the flag is
        // advisory (introspection), so no stronger order is needed.
        self.executing.load(Ordering::Acquire)
    }

    #[allow(dead_code)]
    pub(crate) fn system(&self) -> Option<Arc<SystemCore>> {
        self.system.upgrade()
    }

    fn runnable(&self) -> bool {
        match self.lifecycle() {
            LifecycleState::Passive => self.mailbox.pending(Lane::Control) > 0,
            LifecycleState::Active => self.pending() > 0,
            // Dead components still get scheduled to drain their queues.
            LifecycleState::Faulty | LifecycleState::Destroyed => self.pending() > 0,
        }
    }

    pub(crate) fn enqueue_work(self: &Arc<Self>, mut item: WorkItem) -> Enqueued {
        let Some(system) = self.system.upgrade() else {
            return Enqueued::Dropped;
        };
        // Delivery is the natural point to mint a causal span: one delivered
        // event becomes one handler execution. The span's parent is whatever
        // handler is executing on *this* thread (channels forward
        // synchronously, so causality flows through the thread-local).
        if let Some(metrics) = self.metrics.get() {
            // `tracing()` first: `event_name()` is a virtual call and must
            // stay off the metrics-only hot path.
            if metrics.tracing() {
                if let Some(span) = metrics.deliver_span(self.id.raw(), item.event.event_name()) {
                    item.span = span;
                }
            }
        }
        let lane = if item.half.port_type == TypeId::of::<ControlPort>() {
            Lane::Control
        } else {
            Lane::Data
        };
        // The mailbox preserves the SegQueue-era Dekker protocol: the lane's
        // pending counter is bumped (SeqCst) *before* the item becomes
        // poppable, so `execute`'s exit recheck only ever overstates queued
        // work. Admission policies may also drop or merge the item instead.
        let outcome = self.mailbox.offer(lane, item, &system);
        if matches!(
            outcome,
            Enqueued::Delivered | Enqueued::DeliveredPushback | Enqueued::DeliveredEvicted
        ) {
            self.try_schedule(&system);
        }
        outcome
    }

    fn try_schedule(self: &Arc<Self>, system: &Arc<SystemCore>) {
        if self.runnable()
            && self
                .scheduled
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            system.scheduler().schedule(Arc::clone(self));
        }
    }

    /// Executes up to the system's throughput worth of queued events.
    /// Called by schedulers only.
    ///
    /// The slice batches its bookkeeping: per-item pops only touch the
    /// queues, and the pending counters (component-local and system-wide)
    /// are settled with one `fetch_sub(n)` each at the end of the slice.
    /// Deferring the decrements is safe because the counters then only ever
    /// *over*-state the amount of queued work — a concurrent `runnable()` or
    /// quiescence check may schedule a spurious slice (which pops nothing
    /// and exits), but can never miss work or report quiescence early.
    pub fn execute(self: &Arc<Self>) -> ExecuteResult {
        let Some(system) = self.system.upgrade() else {
            self.scheduled.store(false, Ordering::SeqCst);
            return ExecuteResult::Done;
        };
        // Release-store / Acquire-load: `executing` is an advisory flag
        // (introspection + fault reporting); it orders nothing but itself,
        // and the definition mutex already synchronizes handler state.
        self.executing.store(true, Ordering::Release);
        // Sampled slice timing: `slice_begin` reads the clock only on every
        // `SLICE_SAMPLE`-th slice, so the common slice adds one counter bump.
        let slice_started = self.metrics.get().and_then(|m| m.slice_begin());
        let throughput = system.throughput().max(1);
        let mut ctl_popped = 0usize;
        let mut work_popped = 0usize;
        while ctl_popped + work_popped < throughput {
            let state = self.lifecycle();
            if matches!(state, LifecycleState::Faulty | LifecycleState::Destroyed) {
                // Faulty components no longer execute handlers, but a `Kill`
                // must still take effect so a faulted subtree can be reaped.
                let saw_kill = self.drain_queues_noting_kill(&system);
                if saw_kill && state == LifecycleState::Faulty {
                    for child in self.children_snapshot() {
                        let _ = child.control_outside.trigger_new(Direction::Negative, Kill);
                    }
                    self.destroy_now();
                }
                break;
            }
            // Counter-guarded pops: skip the lane mutex entirely when the
            // (possibly overstated) counter says it is empty. The counter is
            // a hint; a pop may still come up empty because the producer
            // increments before pushing — falling through is fine, the
            // producer's `try_schedule` or our exit recheck picks it up.
            let item = if self.mailbox.pending(Lane::Control) > ctl_popped {
                self.mailbox.pop(Lane::Control).inspect(|_| ctl_popped += 1)
            } else {
                None
            };
            let item = match item {
                Some(i) => Some(i),
                None if state == LifecycleState::Active
                    && self.mailbox.pending(Lane::Data) > work_popped =>
                {
                    self.mailbox.pop(Lane::Data).inspect(|_| work_popped += 1)
                }
                None => None,
            };
            let Some(item) = item else { break };
            self.handle_item(item);
        }
        // Settle the slice: one fetch_sub per lane counter instead of one
        // per item. SeqCst so the decrements are ordered before the
        // scheduled-flag release and the runnable() recheck below.
        self.mailbox.settle(Lane::Control, ctl_popped);
        self.mailbox.settle(Lane::Data, work_popped);
        system.pending_sub(ctl_popped + work_popped);
        if let Some(metrics) = self.metrics.get() {
            metrics.slice_end(slice_started, ctl_popped + work_popped);
        }
        self.executing.store(false, Ordering::Release);
        // Unschedule, then re-check for work that raced in. Both the store
        // and the loads inside `runnable()` are SeqCst: this is the Dekker
        // handoff with `enqueue_work` (increment pending, then CAS
        // `scheduled`) — either the enqueuer's CAS succeeds, or we observe
        // its increment here and reschedule ourselves. Weakening either
        // side can strand a queued event with no scheduled slice.
        self.scheduled.store(false, Ordering::SeqCst);
        if self.runnable()
            && self
                .scheduled
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            ExecuteResult::Reschedule
        } else {
            ExecuteResult::Done
        }
    }

    fn drain_queues(&self, system: &Arc<SystemCore>) {
        let _ = self.drain_queues_noting_kill(system);
    }

    /// Discards all queued items, reporting whether a [`Kill`] addressed to
    /// this component's own control port was among them.
    fn drain_queues_noting_kill(&self, system: &Arc<SystemCore>) -> bool {
        let mut saw_kill = false;
        let mut note = |item: &WorkItem| {
            if Arc::ptr_eq(&item.half, &self.control_inside)
                && item.direction == Direction::Negative
                && item.event.as_any().type_id() == TypeId::of::<Kill>()
            {
                saw_kill = true;
            }
        };
        let mut ctl = 0usize;
        let mut work = 0usize;
        while let Some(item) = self.mailbox.pop(Lane::Control) {
            note(&item);
            ctl += 1;
        }
        while let Some(item) = self.mailbox.pop(Lane::Data) {
            note(&item);
            work += 1;
        }
        // Settled in one batch per lane counter, like the execute slice.
        self.mailbox.settle(Lane::Control, ctl);
        self.mailbox.settle(Lane::Data, work);
        system.pending_sub(ctl + work);
        saw_kill
    }

    fn handle_item(self: &Arc<Self>, item: WorkItem) {
        // Record the handler execution under the span minted at delivery and
        // make it the thread's current span, so any trigger the handlers
        // perform — including post-handler life-cycle propagation below —
        // is causally parented to this execution. The guard restores the
        // previous span (executions nest through synchronous forwarding).
        // `item.span != 0` short-circuits before the virtual `event_name()`
        // call; spans are only minted when tracing is on.
        let _span_scope = if item.span != 0 {
            self.metrics
                .get()
                .and_then(|m| m.enter_span(item.span, self.id.raw(), item.event.event_name()))
        } else {
            None
        };
        let is_own_control = Arc::ptr_eq(&item.half, &self.control_inside);
        let concrete = item.event.as_any().type_id();

        // Pre-handler life-cycle transitions.
        if is_own_control && item.direction == Direction::Negative {
            if concrete == TypeId::of::<Start>() {
                if self.lifecycle() == LifecycleState::Passive {
                    self.set_lifecycle(LifecycleState::Active);
                }
            } else if concrete == TypeId::of::<Stop>() && self.lifecycle() == LifecycleState::Active
            {
                self.set_lifecycle(LifecycleState::Passive);
            }
        }

        // User handlers, with fault isolation.
        let panic_msg = {
            let mut guard = self.definition.lock();
            match guard.as_mut() {
                Some(def) => {
                    let def = def.as_mut();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        item.half.execute_handlers(self.id, def, &item.event);
                    }));
                    result.err().map(panic_message)
                }
                None => None,
            }
        };
        if let Some(msg) = panic_msg {
            self.fault(msg);
            return;
        }

        // Post-handler life-cycle propagation.
        if is_own_control && item.direction == Direction::Negative {
            if concrete == TypeId::of::<Start>() {
                for child in self.children_snapshot() {
                    let _ = child
                        .control_outside
                        .trigger_new(Direction::Negative, Start);
                }
                let _ = self
                    .control_inside
                    .trigger_new(Direction::Positive, Started);
            } else if concrete == TypeId::of::<Stop>() {
                for child in self.children_snapshot() {
                    let _ = child.control_outside.trigger_new(Direction::Negative, Stop);
                }
                let _ = self
                    .control_inside
                    .trigger_new(Direction::Positive, Stopped);
            } else if concrete == TypeId::of::<Kill>() {
                for child in self.children_snapshot() {
                    let _ = child.control_outside.trigger_new(Direction::Negative, Kill);
                }
                self.destroy_now();
            }
        }
    }

    pub(crate) fn children_snapshot(&self) -> Vec<Arc<ComponentCore>> {
        self.children.lock().clone()
    }

    pub(crate) fn parent(&self) -> Option<Arc<ComponentCore>> {
        self.parent.lock().as_ref().and_then(Weak::upgrade)
    }

    /// Destroys this component and (recursively) its children immediately,
    /// without going through control-port `Kill` delivery. Used by
    /// supervision to reap a [`LifecycleState::Faulty`] subtree, whose
    /// members no longer execute control events.
    pub(crate) fn destroy_subtree(self: &Arc<Self>) {
        for child in self.children_snapshot() {
            child.destroy_subtree();
        }
        self.destroy_now();
    }

    /// Returns a [`LifecycleState::Faulty`] component to
    /// [`LifecycleState::Active`] (the supervision `Resume` strategy). The
    /// events queued at fault time were already discarded; execution resumes
    /// with whatever arrives next.
    pub(crate) fn resume_from_fault(self: &Arc<Self>) {
        let _ = self.lifecycle.compare_exchange(
            LifecycleState::Faulty as u8,
            LifecycleState::Active as u8,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if let Some(system) = self.system.upgrade() {
            self.try_schedule(&system);
        }
    }

    fn destroy_now(self: &Arc<Self>) {
        self.set_lifecycle(LifecycleState::Destroyed);
        if let Some(parent) = self.parent() {
            parent.children.lock().retain(|c| c.id != self.id);
        }
        // Drop the definition (and with it the port field Arcs).
        let def = self.definition.lock().take();
        drop(def);
        self.ports.lock().clear();
        if let Some(system) = self.system.upgrade() {
            self.drain_queues(&system);
            system.forget_root(self.id);
        }
    }

    pub(crate) fn fault(self: &Arc<Self>, error: String) {
        self.set_lifecycle(LifecycleState::Faulty);
        if let Some(system) = self.system.upgrade() {
            self.drain_queues(&system);
        }
        let fault = Fault {
            component: self.id,
            component_name: self.name.clone(),
            error,
        };
        self.deliver_fault_upward(fault);
    }

    /// Walks the ancestor chain starting at `self` looking for the nearest
    /// component with a live [`Fault`] subscription on its control port's
    /// outside half, and dispatches the fault there; at the root, hands the
    /// fault to the system's [`FaultPolicy`](crate::fault::FaultPolicy).
    ///
    /// [`ComponentCore::fault`] starts the walk at the faulty component;
    /// supervision re-enters here at the *parent* of a supervised component
    /// whose restart budget is exhausted, so the exhausted supervisor's own
    /// subscription is skipped.
    pub(crate) fn deliver_fault_upward(self: &Arc<Self>, fault: Fault) {
        let event: EventRef = Arc::new(fault.clone());
        let mut current = Arc::clone(self);
        loop {
            if current.control_outside_has_fault_handler() {
                current
                    .control_outside
                    .dispatch(Direction::Positive, &event);
                return;
            }
            match current.parent() {
                Some(p) => current = p,
                None => {
                    if let Some(system) = current.system.upgrade() {
                        system.unhandled_fault(fault);
                    }
                    return;
                }
            }
        }
    }

    fn control_outside_has_fault_handler(&self) -> bool {
        let inner = self.control_outside.wiring();
        inner.subscriptions.iter().any(|s| {
            s.event_type == TypeId::of::<Fault>()
                && s.subscriber
                    .get()
                    .is_some_and(|(_, w)| w.upgrade().is_some())
        })
    }

    fn find_port(
        &self,
        port_type: TypeId,
        provided: bool,
    ) -> Option<(Arc<PortCore>, Arc<PortCore>)> {
        self.ports
            .lock()
            .iter()
            .find(|r| r.port_type == port_type && r.provided == provided)
            .map(|r| (Arc::clone(&r.inside), Arc::clone(&r.outside)))
    }

    /// Looks up one half of a port by type-erased port type; used by
    /// dynamic reconfiguration.
    pub(crate) fn find_port_half(
        &self,
        port_type: TypeId,
        provided: bool,
        inside: bool,
    ) -> Option<Arc<PortCore>> {
        self.find_port(port_type, provided)
            .map(|(i, o)| if inside { i } else { o })
    }
}

fn panic_message(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "handler panicked with a non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Creation
// ---------------------------------------------------------------------------

/// Creates a component in `system`, optionally under `parent`. Used by
/// [`KompicsSystem::create`](crate::system::KompicsSystem::create) and
/// [`ComponentContext::create`].
pub(crate) fn create_in_system<C, F>(
    system: &Arc<SystemCore>,
    parent: Option<Arc<ComponentCore>>,
    f: F,
) -> Component<C>
where
    C: ComponentDefinition,
    F: FnOnce() -> C,
{
    let erased = try_create_erased_in_system(system, parent, || {
        Some(Box::new(f()) as Box<dyn ComponentDefinition>)
    })
    .expect("constructor returned a definition");
    Component {
        core: erased.core,
        _marker: std::marker::PhantomData,
    }
}

/// Type-erased component creation, used by supervision to instantiate a
/// replacement from a `Box<dyn ComponentDefinition>` factory or a
/// [`ComponentDefinition::recreate`] hook. The closure runs inside a
/// construction frame (so port constructors work); returning `None` aborts
/// the creation and discards the frame.
pub(crate) fn try_create_erased_in_system<F>(
    system: &Arc<SystemCore>,
    parent: Option<Arc<ComponentCore>>,
    f: F,
) -> Option<ComponentRef>
where
    F: FnOnce() -> Option<Box<dyn ComponentDefinition>>,
{
    // Run the constructor inside a fresh construction frame so the port
    // fields (and nested `create` calls) register themselves.
    CONSTRUCTION.with(|stack| {
        stack.borrow_mut().push(ConstructionFrame {
            system: Arc::downgrade(system),
            ports: Vec::new(),
            deferred_children: Vec::new(),
        })
    });
    let definition = f();
    let frame = CONSTRUCTION
        .with(|stack| stack.borrow_mut().pop())
        .expect("construction frame pushed above");
    let definition = definition?;

    let id = system.next_component_id();
    let kind = definition.type_name();
    let name = format!("{kind} {id}");
    let (control_inside, control_outside) = PortCore::new_pair::<ControlPort>(true);

    let core = Arc::new(ComponentCore {
        id,
        name,
        system: Arc::downgrade(system),
        definition: Mutex::new(None),
        lifecycle: AtomicU8::new(LifecycleState::Passive as u8),
        scheduled: AtomicBool::new(false),
        executing: AtomicBool::new(false),
        mailbox: Mailbox::new(definition.mailbox_spec()),
        home: crate::sched::affinity::HomeHint::new(),
        ports: Mutex::new(frame.ports),
        control_inside,
        control_outside,
        parent: Mutex::new(parent.as_ref().map(Arc::downgrade)),
        children: Mutex::new(Vec::new()),
        metrics: OnceLock::new(),
    });
    if let Some(telemetry) = system.telemetry() {
        let _ = core.metrics.set(telemetry.component_metrics(kind));
    }
    let weak = Arc::downgrade(&core);

    // Bind port ownership and constructor-time subscriptions.
    {
        let ports = core.ports.lock();
        for record in ports.iter() {
            for half in [&record.inside, &record.outside] {
                let _ = half.owner.set((id, weak.clone()));
                let inner = half.wiring();
                for sub in inner.subscriptions.iter() {
                    let _ = sub.subscriber.set((id, weak.clone()));
                }
            }
        }
    }
    let _ = core.control_inside.owner.set((id, weak.clone()));
    let _ = core.control_outside.owner.set((id, weak.clone()));

    // Register the runtime's always-on life-cycle subscriptions so Start /
    // Stop / Kill get enqueued even without user handlers.
    for ty in [
        (TypeId::of::<Start>(), "Start"),
        (TypeId::of::<Stop>(), "Stop"),
        (TypeId::of::<Kill>(), "Kill"),
    ] {
        let sub = Arc::new(Subscription {
            id: fresh_handler_id(),
            event_type: ty.0,
            event_type_name: ty.1,
            subscriber: OnceLock::new(),
            handler: Arc::new(|_: &mut dyn ComponentDefinition, _: &EventRef| {}),
        });
        let _ = sub.subscriber.set((id, weak.clone()));
        core.control_inside.subscribe_raw(sub);
    }

    // Bind the context and drain its pending control subscriptions.
    let ctx = definition.context();
    ctx.inner
        .set(CtxInner {
            id,
            core: weak.clone(),
            system: Arc::downgrade(system),
        })
        .unwrap_or_else(|_| panic!("ComponentContext reused across component instances"));
    for sub in ctx.pending_control.lock().drain(..) {
        let _ = sub.subscriber.set((id, weak.clone()));
        core.control_inside.subscribe_raw(sub);
    }

    // Fix up children created during the constructor.
    for child in frame.deferred_children {
        *child.parent.lock() = Some(weak.clone());
        core.children.lock().push(child);
    }

    *core.definition.lock() = Some(definition);

    match parent {
        Some(p) => p.children.lock().push(Arc::clone(&core)),
        None => system.register_root(Arc::clone(&core)),
    }

    Some(ComponentRef { core })
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A typed handle to a created component.
pub struct Component<C> {
    pub(crate) core: Arc<ComponentCore>,
    _marker: std::marker::PhantomData<fn() -> C>,
}

impl<C> Clone for Component<C> {
    fn clone(&self) -> Self {
        Component {
            core: Arc::clone(&self.core),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<C> fmt::Debug for Component<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Component({:?})", self.core)
    }
}

impl<C> Component<C> {
    /// The component's id.
    pub fn id(&self) -> ComponentId {
        self.core.id
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        self.core.name()
    }

    /// Current life-cycle state.
    pub fn lifecycle(&self) -> LifecycleState {
        self.core.lifecycle()
    }

    /// Snapshot of one mailbox lane's depth and overload counters.
    pub fn mailbox_counters(&self, lane: Lane) -> LaneCounters {
        self.core.mailbox_counters(lane)
    }

    /// A type-erased handle to the same component.
    pub fn erased(&self) -> ComponentRef {
        ComponentRef {
            core: Arc::clone(&self.core),
        }
    }

    /// The event types this component actually handles, extracted from its
    /// assembled ports — the role-binding input of the `kompics-choreo`
    /// protocol checker.
    pub fn protocol_surface(&self) -> crate::analyze::ComponentSurface {
        crate::analyze::surface_of(&self.core)
    }

    /// The outside half of the component's provided port of type `P`, for
    /// connecting channels or triggering requests at it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchPort`] if the component declares no such
    /// provided port.
    pub fn provided_ref<P: PortType>(&self) -> Result<PortRef<P>, CoreError> {
        self.erased().provided_ref()
    }

    /// The outside half of the component's required port of type `P`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchPort`] if the component declares no such
    /// required port.
    pub fn required_ref<P: PortType>(&self) -> Result<PortRef<P>, CoreError> {
        self.erased().required_ref()
    }

    /// The outside half of the component's control port.
    pub fn control_ref(&self) -> PortRef<ControlPort> {
        PortRef::new(Arc::clone(&self.core.control_outside))
    }

    /// Runs a closure with exclusive access to the component definition —
    /// for configuration and test inspection.
    ///
    /// Must not be called from within one of this component's own handlers
    /// (the definition is locked during handler execution, so that would
    /// deadlock).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Defunct`] if the component was destroyed.
    pub fn on_definition<R>(&self, f: impl FnOnce(&mut C) -> R) -> Result<R, CoreError>
    where
        C: ComponentDefinition,
    {
        let mut guard = self.core.definition.lock();
        let def = guard.as_mut().ok_or(CoreError::Defunct {
            what: "component definition",
        })?;
        let any: &mut dyn Any = def.as_mut();
        let concrete = any
            .downcast_mut::<C>()
            .expect("Component handle with mismatched definition type");
        Ok(f(concrete))
    }
}

/// A type-erased handle to a created component.
#[derive(Clone)]
pub struct ComponentRef {
    pub(crate) core: Arc<ComponentCore>,
}

impl fmt::Debug for ComponentRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ComponentRef({:?})", self.core)
    }
}

impl ComponentRef {
    /// The component's id.
    pub fn id(&self) -> ComponentId {
        self.core.id
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        self.core.name()
    }

    /// Current life-cycle state.
    pub fn lifecycle(&self) -> LifecycleState {
        self.core.lifecycle()
    }

    /// Number of events currently queued at this component.
    pub fn pending(&self) -> usize {
        self.core.pending()
    }

    /// Snapshot of one mailbox lane's depth and overload counters.
    pub fn mailbox_counters(&self, lane: Lane) -> LaneCounters {
        self.core.mailbox_counters(lane)
    }

    /// See [`Component::provided_ref`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchPort`] if no such provided port exists.
    pub fn provided_ref<P: PortType>(&self) -> Result<PortRef<P>, CoreError> {
        self.core
            .find_port(TypeId::of::<P>(), true)
            .map(|(_, outside)| PortRef::new(outside))
            .ok_or(CoreError::NoSuchPort {
                component: self.core.id,
                port_type: TypeId::of::<P>(),
                provided: true,
            })
    }

    /// See [`Component::required_ref`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchPort`] if no such required port exists.
    pub fn required_ref<P: PortType>(&self) -> Result<PortRef<P>, CoreError> {
        self.core
            .find_port(TypeId::of::<P>(), false)
            .map(|(_, outside)| PortRef::new(outside))
            .ok_or(CoreError::NoSuchPort {
                component: self.core.id,
                port_type: TypeId::of::<P>(),
                provided: false,
            })
    }

    /// The outside half of the component's control port.
    pub fn control_ref(&self) -> PortRef<ControlPort> {
        PortRef::new(Arc::clone(&self.core.control_outside))
    }

    pub(crate) fn from_core(core: Arc<ComponentCore>) -> ComponentRef {
        ComponentRef { core }
    }

    /// Recovers a typed handle if the underlying definition is a `C`.
    ///
    /// Returns `None` while the component is executing (the definition is
    /// checked out) or if the definition is of a different type.
    pub fn downcast<C: ComponentDefinition>(&self) -> Option<Component<C>> {
        let guard = self.core.definition.lock();
        let def = guard.as_ref()?;
        if (def.as_ref() as &dyn Any).is::<C>() {
            Some(Component {
                core: Arc::clone(&self.core),
                _marker: std::marker::PhantomData,
            })
        } else {
            None
        }
    }

    pub(crate) fn core(&self) -> &Arc<ComponentCore> {
        &self.core
    }
}
