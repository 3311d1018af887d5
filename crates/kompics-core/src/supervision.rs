//! Supervision trees with restart strategies, in the style of Erlang/OTP
//! supervisors layered over the paper's fault-escalation and dynamic
//! reconfiguration machinery.
//!
//! A [`Supervisor`] is an ordinary component; create it at the system root
//! ([`KompicsSystem::create`](crate::system::KompicsSystem::create)) or as a
//! child of any composite
//! ([`ComponentContext::create`](crate::component::ComponentContext::create)),
//! start it, then attach children with [`supervise`]. Each supervised child
//! gets a [`RestartStrategy`]:
//!
//! * [`RestartStrategy::Restart`] — tear the faulty child down and swap in a
//!   fresh instance built by the [`SuperviseOptions::factory`] (or the
//!   definition's [`recreate`](crate::component::ComponentDefinition::recreate)
//!   hook), re-plugging every channel that was connected to the old
//!   instance's ports and migrating outside-half subscriptions, exactly like
//!   [`replace_component`](crate::reconfig::replace_component). Optionally
//!   transfers extracted state into the replacement.
//! * [`RestartStrategy::Resume`] — clear the faulty flag and let the
//!   component keep running with whatever state it had (the queued events
//!   that were dropped while faulty stay dropped).
//! * [`RestartStrategy::Stop`] — destroy the child and stop supervising it.
//! * [`RestartStrategy::Escalate`] — destroy nothing; forward the fault to
//!   the child's ancestors (and ultimately the system
//!   [`FaultPolicy`](crate::fault::FaultPolicy)).
//!
//! Restarts are governed by a **restart-intensity budget**: at most
//! [`SupervisorConfig::max_restarts`] within a rolling
//! [`SupervisorConfig::window`]. Exceeding the budget escalates the fault
//! instead of restarting, matching OTP's `intensity`/`period`. Between
//! allowed restarts an exponential backoff
//! ([`SupervisorConfig::backoff_base`] doubling up to
//! [`SupervisorConfig::backoff_cap`]) can defer the replacement; with the
//! default zero base the restart happens synchronously inside the fault
//! handler.
//!
//! Under the simulation crate, use `Simulation::create_supervisor` so both
//! the rolling window clock and the backoff timer run on **virtual time**,
//! keeping fault-injection experiments deterministic.
//!
//! # Event-loss window
//!
//! Like Erlang, a restart is not transparent: events delivered between the
//! fault and the moment the supervisor holds the child's channels are
//! dropped, and (unless state transfer is enabled and the definition
//! implements it) the replacement starts from fresh state. Protocols above a
//! supervised component must tolerate an amnesiac restart — quorum
//! replication, retransmission, or anti-entropy, as in the paper's CATS
//! system.

use std::any::TypeId;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::channel::ChannelRef;
use crate::component::{
    try_create_erased_in_system, Component, ComponentContext, ComponentCore, ComponentDefinition,
    ComponentRef,
};
use crate::error::CoreError;
use crate::fault::Fault;
use crate::lifecycle::Start;
use crate::port::{erase_handler, fresh_handler_id, Direction, Subscription};

// ---------------------------------------------------------------------------
// Policy types
// ---------------------------------------------------------------------------

/// What a [`Supervisor`] does when a supervised child (or one of its
/// descendants) faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartStrategy {
    /// Replace the child with a fresh instance (see module docs).
    Restart {
        /// Transfer state extracted from the old instance into the new one
        /// via [`extract_state`](ComponentDefinition::extract_state) /
        /// [`install_state`](ComponentDefinition::install_state).
        with_state_transfer: bool,
    },
    /// Clear the faulty flag and continue with the existing instance.
    Resume,
    /// Destroy the child and stop supervising it.
    Stop,
    /// Forward the fault toward the root without touching the child.
    Escalate,
}

/// Restart-intensity and backoff settings for a [`Supervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Maximum restarts per child within [`window`](Self::window) before the
    /// supervisor gives up and escalates (default 3).
    pub max_restarts: usize,
    /// Rolling window over which restarts are counted (default 60 s).
    pub window: Duration,
    /// Backoff before the first restart; doubles on each subsequent restart
    /// within the window. `Duration::ZERO` (the default) restarts
    /// synchronously inside the fault handler.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff (default 5 s).
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            window: Duration::from_secs(60),
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// Factory that builds a replacement definition for a supervised child.
pub type Factory = Arc<dyn Fn() -> Box<dyn ComponentDefinition> + Send + Sync>;

/// Callback invoked with the replacement's handle after a successful
/// restart, *before* the replacement is started — a good place to trigger an
/// `Init` or re-register the new instance elsewhere. Must not touch the
/// supervisor's own definition (it is locked while the hook runs).
pub type RestartHook = Arc<dyn Fn(&ComponentRef) + Send + Sync>;

/// Clock used for the rolling restart window; returns time since some fixed
/// origin. Defaults to wall-clock time since supervisor construction;
/// simulations substitute virtual time.
pub type ClockFn = Arc<dyn Fn() -> Duration + Send + Sync>;

/// Timer used to defer backoff restarts. Defaults to a spawned sleeper
/// thread; simulations substitute the discrete-event scheduler.
pub type DeferFn = Arc<dyn Fn(Duration, Box<dyn FnOnce() + Send>) + Send + Sync>;

/// Per-child options for [`supervise`].
#[derive(Clone)]
pub struct SuperviseOptions {
    /// Strategy applied on fault (default
    /// `Restart { with_state_transfer: false }`).
    pub strategy: RestartStrategy,
    /// Explicit replacement factory. When absent, restarts fall back to the
    /// definition's [`recreate`](ComponentDefinition::recreate) hook; if
    /// that also yields nothing the fault escalates.
    pub factory: Option<Factory>,
    /// See [`RestartHook`].
    pub on_restart: Option<RestartHook>,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        SuperviseOptions {
            strategy: RestartStrategy::Restart {
                with_state_transfer: false,
            },
            factory: None,
            on_restart: None,
        }
    }
}

impl std::fmt::Debug for SuperviseOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperviseOptions")
            .field("strategy", &self.strategy)
            .field("factory", &self.factory.as_ref().map(|_| "<fn>"))
            .field("on_restart", &self.on_restart.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl SuperviseOptions {
    /// Options with the given strategy and no factory or hook.
    pub fn strategy(strategy: RestartStrategy) -> Self {
        SuperviseOptions {
            strategy,
            ..Default::default()
        }
    }

    /// Sets the replacement factory.
    pub fn with_factory(
        mut self,
        f: impl Fn() -> Box<dyn ComponentDefinition> + Send + Sync + 'static,
    ) -> Self {
        self.factory = Some(Arc::new(f));
        self
    }

    /// Sets the post-restart hook.
    pub fn with_on_restart(mut self, f: impl Fn(&ComponentRef) + Send + Sync + 'static) -> Self {
        self.on_restart = Some(Arc::new(f));
        self
    }
}

// ---------------------------------------------------------------------------
// Supervision log
// ---------------------------------------------------------------------------

/// What the supervisor did about one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisionAction {
    /// A replacement instance is live (attempt counts restarts within the
    /// current window, starting at 1).
    Restarted { attempt: usize },
    /// A restart was deferred by exponential backoff.
    BackoffScheduled { delay: Duration, attempt: usize },
    /// The faulty component was resumed in place.
    Resumed,
    /// The child was destroyed per [`RestartStrategy::Stop`].
    Stopped,
    /// The fault was forwarded toward the root.
    Escalated { reason: String },
    /// A restart was attempted but no replacement could be built.
    RestartFailed { reason: String },
}

/// One entry in the supervisor's action log (see [`Supervisor::log`]).
#[derive(Debug, Clone)]
pub struct SupervisionEvent {
    /// Clock reading when the action was taken.
    pub at: Duration,
    /// The *faulty* component (possibly a descendant of the supervised one).
    pub component: crate::types::ComponentId,
    /// Its name.
    pub component_name: String,
    /// What was done.
    pub action: SupervisionAction,
}

// ---------------------------------------------------------------------------
// Supervisor component
// ---------------------------------------------------------------------------

struct Entry {
    strategy: RestartStrategy,
    factory: Option<Factory>,
    on_restart: Option<RestartHook>,
    /// The currently-live instance of this supervised child.
    current: Weak<ComponentCore>,
    /// Restart timestamps within the rolling window (pruned lazily).
    restarts: VecDeque<Duration>,
}

struct SupInner {
    config: SupervisorConfig,
    clock: ClockFn,
    defer: DeferFn,
    /// `(id, weak core)` of the supervisor component itself; set on first
    /// [`supervise`] call and reused for subsequent subscriptions.
    identity: Option<(crate::types::ComponentId, Weak<ComponentCore>)>,
    entries: HashMap<u64, Entry>,
    next_entry: u64,
    log: Vec<SupervisionEvent>,
}

/// A component applying [`RestartStrategy`]s to the children attached with
/// [`supervise`]. See the [module docs](self) for the full story.
pub struct Supervisor {
    ctx: ComponentContext,
    inner: Arc<Mutex<SupInner>>,
}

impl Supervisor {
    /// A supervisor with the default wall-clock window and thread-based
    /// backoff timer.
    pub fn new(config: SupervisorConfig) -> Self {
        // komlint: allow(wall-clock) reason="explicitly the wall-clock default; simulation injects a virtual clock via with_hooks"
        let origin = Instant::now();
        Self::with_hooks(
            config,
            Arc::new(move || origin.elapsed()),
            Arc::new(|delay, f: Box<dyn FnOnce() + Send>| {
                // komlint: allow(thread-spawn) reason="default backoff timer for production mode; simulation injects a DES-backed defer via with_hooks"
                std::thread::spawn(move || {
                    // komlint: allow(blocking-sleep) reason="sleeps on its own dedicated timer thread, never a worker"
                    std::thread::sleep(delay);
                    f();
                });
            }),
        )
    }

    /// A supervisor with a custom window clock and backoff timer — used by
    /// the simulation crate to run supervision on virtual time.
    pub fn with_hooks(config: SupervisorConfig, clock: ClockFn, defer: DeferFn) -> Self {
        Supervisor {
            ctx: ComponentContext::new(),
            inner: Arc::new(Mutex::new(SupInner {
                config,
                clock,
                defer,
                identity: None,
                entries: HashMap::new(),
                next_entry: 0,
                log: Vec::new(),
            })),
        }
    }

    /// Snapshot of the actions taken so far.
    pub fn log(&self) -> Vec<SupervisionEvent> {
        self.inner.lock().log.clone()
    }

    /// Number of children currently supervised.
    pub fn supervised_count(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Handles to the *current* instances of all supervised children — after
    /// a restart this is the replacement, not the component originally
    /// passed to [`supervise`].
    pub fn supervised_children(&self) -> Vec<ComponentRef> {
        self.inner
            .lock()
            .entries
            .values()
            .filter_map(|e| e.current.upgrade())
            .map(ComponentRef::from_core)
            .collect()
    }
}

impl ComponentDefinition for Supervisor {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }

    fn type_name(&self) -> &'static str {
        "Supervisor"
    }
}

// ---------------------------------------------------------------------------
// Attaching children
// ---------------------------------------------------------------------------

/// Puts `child` under `supervisor`'s care with the given options.
///
/// Internally this subscribes a [`Fault`] handler, owned by the supervisor,
/// on the child's control port — the standard escalation path of
/// [`fault`](crate::fault) therefore routes faults of the child *and of any
/// descendant without a closer handler* to the supervisor.
///
/// # Errors
///
/// Returns [`CoreError::Defunct`] if the supervisor has already been
/// destroyed.
pub fn supervise(
    supervisor: &Component<Supervisor>,
    child: &ComponentRef,
    options: SuperviseOptions,
) -> Result<(), CoreError> {
    let sup_core = &supervisor.core;
    let inner_arc = supervisor
        .on_definition(|s| Arc::clone(&s.inner))
        .map_err(|_| CoreError::Defunct { what: "supervisor" })?;

    let entry_id = {
        let mut inner = inner_arc.lock();
        if inner.identity.is_none() {
            inner.identity = Some((sup_core.id(), Arc::downgrade(sup_core)));
        }
        let entry_id = inner.next_entry;
        inner.next_entry += 1;
        inner.entries.insert(
            entry_id,
            Entry {
                strategy: options.strategy,
                factory: options.factory,
                on_restart: options.on_restart,
                current: Arc::downgrade(child.core()),
                restarts: VecDeque::new(),
            },
        );
        entry_id
    };

    // Subscribe the supervisor's fault handler on the child's control port.
    // Built manually (rather than via `ComponentContext::subscribe`) so the
    // closure can capture the shared `SupInner` and the entry id: the actual
    // restart work must not touch the supervisor's definition, which is
    // locked while this handler runs.
    let sub = Arc::new(Subscription {
        id: fresh_handler_id(),
        event_type: TypeId::of::<Fault>(),
        event_type_name: "Fault",
        subscriber: OnceLock::new(),
        handler: erase_handler(move |this: &mut Supervisor, fault: &Fault| {
            let inner = Arc::clone(&this.inner);
            process_fault(&inner, entry_id, fault.clone());
        }),
    });
    sub.subscriber
        .set((sup_core.id(), Arc::downgrade(sup_core)))
        .expect("fresh subscription");
    child.core().control_outside.subscribe_raw(sub);
    Ok(())
}

/// Marks `target` faulty as if one of its handlers had panicked with
/// `error`, running the full fault path: queued events are discarded and the
/// fault escalates to the nearest supervisor / fault handler, ultimately the
/// system [`FaultPolicy`](crate::fault::FaultPolicy).
///
/// This is the primitive the simulation crate's `FaultPlan` uses to crash
/// components at virtual times; it is equally usable from tests.
pub fn inject_fault(target: &ComponentRef, error: impl Into<String>) {
    target.core().fault(error.into());
}

// ---------------------------------------------------------------------------
// Fault processing
// ---------------------------------------------------------------------------

fn log_action(inner: &Arc<Mutex<SupInner>>, fault: &Fault, action: SupervisionAction) {
    let mut guard = inner.lock();
    let at = (guard.clock)();
    guard.log.push(SupervisionEvent {
        at,
        component: fault.component,
        component_name: fault.component_name.clone(),
        action,
    });
}

/// Forwards `fault` to the supervised child's ancestors, skipping the
/// supervisor's own subscription (the walk starts at the parent).
fn escalate(child_core: Option<Arc<ComponentCore>>, fault: Fault) {
    if let Some(core) = child_core {
        match core.parent() {
            Some(parent) => parent.deliver_fault_upward(fault),
            None => {
                if let Some(system) = core.system() {
                    system.unhandled_fault(fault);
                }
            }
        }
    }
}

fn process_fault(inner: &Arc<Mutex<SupInner>>, entry_id: u64, fault: Fault) {
    // Decide under the lock, act outside it.
    enum Decision {
        RestartNow {
            with_state: bool,
            attempt: usize,
        },
        RestartLater {
            with_state: bool,
            attempt: usize,
            delay: Duration,
        },
        Resume(Weak<ComponentCore>),
        Stop(Weak<ComponentCore>),
        Escalate(Weak<ComponentCore>, String),
        Ignore,
    }

    let decision = {
        let mut guard = inner.lock();
        let now = (guard.clock)();
        let (max_restarts, window) = (guard.config.max_restarts, guard.config.window);
        let (base, cap) = (guard.config.backoff_base, guard.config.backoff_cap);
        match guard.entries.get_mut(&entry_id) {
            None => Decision::Ignore, // stopped or budget-evicted earlier
            Some(entry) => match entry.strategy {
                RestartStrategy::Resume => Decision::Resume(entry.current.clone()),
                RestartStrategy::Stop => {
                    let current = entry.current.clone();
                    guard.entries.remove(&entry_id);
                    Decision::Stop(current)
                }
                RestartStrategy::Escalate => {
                    Decision::Escalate(entry.current.clone(), "strategy is Escalate".to_string())
                }
                RestartStrategy::Restart {
                    with_state_transfer,
                } => {
                    while entry
                        .restarts
                        .front()
                        .is_some_and(|t| now.saturating_sub(*t) > window)
                    {
                        entry.restarts.pop_front();
                    }
                    if entry.restarts.len() >= max_restarts {
                        let current = entry.current.clone();
                        guard.entries.remove(&entry_id);
                        Decision::Escalate(
                            current,
                            format!("restart budget exhausted ({max_restarts} in {window:?})"),
                        )
                    } else {
                        entry.restarts.push_back(now);
                        let attempt = entry.restarts.len();
                        let exp = attempt.saturating_sub(1).min(32) as u32;
                        let delay = base
                            .checked_mul(2u32.saturating_pow(exp))
                            .map_or(cap, |d| d.min(cap));
                        if delay.is_zero() {
                            Decision::RestartNow {
                                with_state: with_state_transfer,
                                attempt,
                            }
                        } else {
                            Decision::RestartLater {
                                with_state: with_state_transfer,
                                attempt,
                                delay,
                            }
                        }
                    }
                }
            },
        }
    };

    match decision {
        Decision::Ignore => {}
        Decision::Resume(current) => {
            // Resume the *faulty* component, which may be a descendant of
            // the supervised child when the fault escalated from below.
            if let Some(root) = current.upgrade() {
                if let Some(faulty) = find_faulty(&root, fault.component) {
                    faulty.resume_from_fault();
                    log_action(inner, &fault, SupervisionAction::Resumed);
                    return;
                }
            }
            log_action(
                inner,
                &fault,
                SupervisionAction::RestartFailed {
                    reason: "faulty component no longer reachable".to_string(),
                },
            );
        }
        Decision::Stop(current) => {
            if let Some(core) = current.upgrade() {
                core.destroy_subtree();
            }
            log_action(inner, &fault, SupervisionAction::Stopped);
        }
        Decision::Escalate(current, reason) => {
            log_action(inner, &fault, SupervisionAction::Escalated { reason });
            escalate(current.upgrade(), fault);
        }
        Decision::RestartNow {
            with_state,
            attempt,
        } => {
            perform_restart(inner, entry_id, with_state, attempt, fault);
        }
        Decision::RestartLater {
            with_state,
            attempt,
            delay,
        } => {
            log_action(
                inner,
                &fault,
                SupervisionAction::BackoffScheduled { delay, attempt },
            );
            let defer = inner.lock().defer.clone();
            let inner = Arc::clone(inner);
            defer(
                delay,
                Box::new(move || perform_restart(&inner, entry_id, with_state, attempt, fault)),
            );
        }
    }
}

/// Finds the faulty component with the given id in the subtree rooted at
/// `root` (including `root` itself).
fn find_faulty(
    root: &Arc<ComponentCore>,
    id: crate::types::ComponentId,
) -> Option<Arc<ComponentCore>> {
    if root.id() == id {
        return Some(Arc::clone(root));
    }
    for child in root.children_snapshot() {
        if let Some(found) = find_faulty(&child, id) {
            return Some(found);
        }
    }
    None
}

struct HeldChannel {
    channel: ChannelRef,
    sign: Direction,
    port_type: TypeId,
    provided: bool,
}

/// The restart itself: a fault-tolerant variant of
/// [`replace_component`](crate::reconfig::replace_component). Runs either
/// synchronously inside the supervisor's fault handler (zero backoff) or
/// later from the backoff timer; in both cases the old instance is already
/// faulty, so its queues are drained and no drain-wait is needed.
fn perform_restart(
    inner: &Arc<Mutex<SupInner>>,
    entry_id: u64,
    with_state: bool,
    attempt: usize,
    fault: Fault,
) {
    // Snapshot what we need under the lock.
    let (old_core, factory, on_restart) = {
        let guard = inner.lock();
        let Some(entry) = guard.entries.get(&entry_id) else {
            return;
        };
        (
            entry.current.upgrade(),
            entry.factory.clone(),
            entry.on_restart.clone(),
        )
    };
    let Some(old_core) = old_core else {
        log_action(
            inner,
            &fault,
            SupervisionAction::RestartFailed {
                reason: "old instance gone".to_string(),
            },
        );
        return;
    };
    let Some(system) = old_core.system() else {
        return;
    };

    // 1. Hold every channel attached to the old instance's outside halves so
    //    events buffer during the swap instead of reaching a dead port.
    let mut held: Vec<HeldChannel> = Vec::new();
    {
        let records = old_core.ports.lock();
        for record in records.iter() {
            for arc in record.outside.attached_channels() {
                let channel = ChannelRef::from_arc(arc);
                channel.hold();
                held.push(HeldChannel {
                    channel,
                    sign: record.outside.sign,
                    port_type: record.port_type,
                    provided: record.provided,
                });
            }
        }
    }
    let resume_all = |held: &[HeldChannel]| {
        for h in held {
            h.channel.resume();
        }
    };

    // 2. Build the replacement: explicit factory first, else the old
    //    definition's `recreate` hook.
    let parent = old_core.parent();
    let new_ref = try_create_erased_in_system(&system, parent, || match &factory {
        Some(f) => Some(f()),
        None => old_core
            .definition
            .lock()
            .as_ref()
            .and_then(|def| def.recreate()),
    });
    let Some(new_ref) = new_ref else {
        resume_all(&held);
        log_action(
            inner,
            &fault,
            SupervisionAction::RestartFailed {
                reason: "no factory and recreate() returned None".to_string(),
            },
        );
        escalate(Some(old_core), fault);
        return;
    };

    // 3. Validate every target port before unplugging anything (same
    //    discipline as `replace_component`): a partial re-plug must never
    //    leave channels held forever.
    let mut targets = Vec::with_capacity(held.len());
    for h in &held {
        match new_ref
            .core()
            .find_port_half(h.port_type, h.provided, false)
        {
            Some(half) => targets.push(half),
            None => {
                resume_all(&held);
                new_ref.core().destroy_subtree();
                log_action(
                    inner,
                    &fault,
                    SupervisionAction::RestartFailed {
                        reason: "replacement lacks a port of the old instance".to_string(),
                    },
                );
                escalate(Some(old_core), fault);
                return;
            }
        }
    }

    // 4. Optional state transfer.
    if with_state {
        let state = {
            let mut guard = old_core.definition.lock();
            guard.as_mut().and_then(|def| def.extract_state())
        };
        if let Some(state) = state {
            let mut guard = new_ref.core().definition.lock();
            if let Some(def) = guard.as_mut() {
                def.install_state(state);
            }
        }
    }

    // 5. Move the held channels over.
    for (h, new_half) in held.iter().zip(&targets) {
        let moved = h
            .channel
            .unplug_sign(h.sign)
            .and_then(|()| h.channel.plug_core(new_half));
        if moved.is_err() {
            resume_all(&held);
            log_action(
                inner,
                &fault,
                SupervisionAction::RestartFailed {
                    reason: "re-plugging a channel failed".to_string(),
                },
            );
            return;
        }
    }

    // 6. Migrate outside-half subscriptions (other components' handlers on
    //    the old instance's ports — including this supervisor's own fault
    //    handler on its control port) to the new instance, so observers and
    //    the supervision relationship survive the swap.
    {
        let old_records = old_core.ports.lock();
        for record in old_records.iter() {
            if let Some(new_half) =
                new_ref
                    .core()
                    .find_port_half(record.port_type, record.provided, false)
            {
                migrate_subscriptions(&record.outside, &new_half);
            }
        }
    }
    migrate_subscriptions(&old_core.control_outside, &new_ref.core().control_outside);

    // 7. Point the entry at the new instance.
    {
        let mut guard = inner.lock();
        if let Some(entry) = guard.entries.get_mut(&entry_id) {
            entry.current = Arc::downgrade(new_ref.core());
        }
    }

    // 8. Let the user re-wire (e.g. trigger an Init) before Start, then
    //    activate, flush the buffered events, and reap the old subtree.
    if let Some(hook) = on_restart {
        hook(&new_ref);
    }
    let _ = new_ref
        .core()
        .control_outside
        .trigger_new(Direction::Negative, Start);
    resume_all(&held);
    old_core.destroy_subtree();
    log_action(inner, &fault, SupervisionAction::Restarted { attempt });
}

/// Moves every subscription from `old` to `new`, and carries the key
/// extractor over if the new half has none (keyed channels re-plugged in
/// step 5 still consult the *channel's* stored key, but fresh connections
/// benefit).
fn migrate_subscriptions(old: &Arc<crate::port::PortCore>, new: &Arc<crate::port::PortCore>) {
    // Route through PortCore so both halves republish their dispatch
    // snapshots; poking `inner` directly would leave stale snapshots live.
    let moved = old.take_subscriptions();
    if moved.is_empty() {
        return;
    }
    new.append_subscriptions(moved);
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LifecycleState;
    use crate::config::Config;
    use crate::fault::FaultPolicy;
    use crate::port::ProvidedPort;
    use crate::sched::sequential::SequentialScheduler;
    use crate::system::KompicsSystem;
    use crate::{impl_event, port_type};

    #[derive(Debug, Clone)]
    struct Ping(u64);
    impl_event!(Ping);
    #[derive(Debug, Clone)]
    struct Pong(#[allow(dead_code)] u64);
    impl_event!(Pong);

    port_type! {
        pub struct PingPort {
            indication: Pong;
            request: Ping;
        }
    }

    struct Echo {
        ctx: ComponentContext,
        port: ProvidedPort<PingPort>,
        seen: u64,
    }

    impl Echo {
        fn new() -> Self {
            let ctx = ComponentContext::new();
            let port = ProvidedPort::new();
            port.subscribe(|this: &mut Echo, ping: &Ping| {
                if ping.0 == u64::MAX {
                    panic!("poison ping");
                }
                this.seen += 1;
                this.port.trigger(Pong(ping.0));
            });
            Echo { ctx, port, seen: 0 }
        }
    }

    impl ComponentDefinition for Echo {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Echo"
        }
        fn recreate(&self) -> Option<Box<dyn ComponentDefinition>> {
            Some(Box::new(Echo::new()))
        }
    }

    fn settle(sched: &Arc<SequentialScheduler>) {
        sched.run_until_quiescent();
    }

    #[test]
    fn restart_replaces_faulty_child_via_recreate() {
        let (system, sched) = KompicsSystem::sequential(Config::default());
        let sup = system.create(|| Supervisor::new(SupervisorConfig::default()));
        let echo = system.create(Echo::new);
        let echo_ref = echo.erased();
        supervise(&sup, &echo_ref, SuperviseOptions::default()).unwrap();
        system.start(&sup);
        system.start(&echo);
        settle(&sched);

        let port = echo.provided_ref::<PingPort>().unwrap();
        port.trigger(Ping(1)).unwrap();
        settle(&sched);
        assert_eq!(echo.on_definition(|e| e.seen).unwrap(), 1);

        // Poison it; the supervisor should swap in a fresh Echo.
        port.trigger(Ping(u64::MAX)).unwrap();
        settle(&sched);
        assert_eq!(echo_ref.lifecycle(), LifecycleState::Destroyed);
        let log = sup.on_definition(|s| s.log()).unwrap();
        assert!(
            matches!(
                log.last().map(|e| &e.action),
                Some(SupervisionAction::Restarted { attempt: 1 })
            ),
            "unexpected log: {log:?}"
        );
        // The replacement is live and reachable through the supervisor.
        let current = sup.on_definition(|s| s.supervised_children()).unwrap();
        assert_eq!(current.len(), 1);
        assert_eq!(current[0].lifecycle(), LifecycleState::Active);
        assert_ne!(current[0].id(), echo_ref.id());
    }

    #[test]
    fn budget_exhaustion_escalates_to_system_policy() {
        let (system, sched) =
            KompicsSystem::sequential(Config::default().fault_policy(FaultPolicy::Collect));
        let sup = system.create(|| {
            Supervisor::new(SupervisorConfig {
                max_restarts: 2,
                ..Default::default()
            })
        });
        let echo = system.create(Echo::new);
        supervise(&sup, &echo.erased(), SuperviseOptions::default()).unwrap();
        system.start(&sup);
        system.start(&echo);
        settle(&sched);

        // Three poisons: two restarts allowed, the third exhausts the budget
        // and escalates to the system policy. Each poison must go to the
        // *current* instance.
        for round in 0..3 {
            let current = sup.on_definition(|s| s.supervised_children()).unwrap();
            assert_eq!(current.len(), 1, "entry evicted early in round {round}");
            let port = current[0].provided_ref::<PingPort>().unwrap();
            port.trigger(Ping(u64::MAX)).unwrap();
            settle(&sched);
        }
        let faults = system.collected_faults();
        assert_eq!(
            faults.len(),
            1,
            "exactly the third fault escalates: {faults:?}"
        );
        assert!(faults[0].error.contains("poison"));
        assert_eq!(sup.on_definition(|s| s.supervised_count()).unwrap(), 0);
    }

    #[test]
    fn resume_strategy_keeps_state() {
        let (system, sched) = KompicsSystem::sequential(Config::default());
        let sup = system.create(|| Supervisor::new(SupervisorConfig::default()));
        let echo = system.create(Echo::new);
        supervise(
            &sup,
            &echo.erased(),
            SuperviseOptions::strategy(RestartStrategy::Resume),
        )
        .unwrap();
        system.start(&sup);
        system.start(&echo);
        settle(&sched);

        let port = echo.provided_ref::<PingPort>().unwrap();
        port.trigger(Ping(1)).unwrap();
        port.trigger(Ping(2)).unwrap();
        settle(&sched);
        port.trigger(Ping(u64::MAX)).unwrap();
        settle(&sched);
        // Same instance, same state, running again.
        assert_eq!(echo.erased().lifecycle(), LifecycleState::Active);
        port.trigger(Ping(3)).unwrap();
        settle(&sched);
        assert_eq!(echo.on_definition(|e| e.seen).unwrap(), 3);
    }

    #[test]
    fn restart_with_state_transfer_preserves_counters() {
        struct Stateful {
            ctx: ComponentContext,
            port: ProvidedPort<PingPort>,
            seen: u64,
        }
        impl Stateful {
            fn new() -> Self {
                let ctx = ComponentContext::new();
                let port = ProvidedPort::new();
                port.subscribe(|this: &mut Stateful, ping: &Ping| {
                    if ping.0 == u64::MAX {
                        panic!("poison");
                    }
                    this.seen += 1;
                    this.port.trigger(Pong(ping.0));
                });
                Stateful { ctx, port, seen: 0 }
            }
        }
        impl ComponentDefinition for Stateful {
            fn context(&self) -> &ComponentContext {
                &self.ctx
            }
            fn type_name(&self) -> &'static str {
                "Stateful"
            }
            fn extract_state(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
                Some(Box::new(self.seen))
            }
            fn install_state(&mut self, state: Box<dyn std::any::Any + Send>) {
                if let Ok(seen) = state.downcast::<u64>() {
                    self.seen = *seen;
                }
            }
            fn recreate(&self) -> Option<Box<dyn ComponentDefinition>> {
                Some(Box::new(Stateful::new()))
            }
        }

        let (system, sched) = KompicsSystem::sequential(Config::default());
        let sup = system.create(|| Supervisor::new(SupervisorConfig::default()));
        let comp = system.create(Stateful::new);
        supervise(
            &sup,
            &comp.erased(),
            SuperviseOptions::strategy(RestartStrategy::Restart {
                with_state_transfer: true,
            }),
        )
        .unwrap();
        system.start(&sup);
        system.start(&comp);
        settle(&sched);

        let port = comp.provided_ref::<PingPort>().unwrap();
        port.trigger(Ping(1)).unwrap();
        port.trigger(Ping(2)).unwrap();
        settle(&sched);
        port.trigger(Ping(u64::MAX)).unwrap();
        settle(&sched);

        let current = sup.on_definition(|s| s.supervised_children()).unwrap();
        let replacement = current[0].downcast::<Stateful>().unwrap();
        assert_eq!(replacement.on_definition(|s| s.seen).unwrap(), 2);
    }

    #[test]
    fn backoff_defers_restart_until_timer_fires() {
        // Capture deferred closures instead of sleeping.
        type Deferred = Arc<Mutex<Vec<(Duration, Box<dyn FnOnce() + Send>)>>>;
        let deferred: Deferred = Arc::new(Mutex::new(Vec::new()));
        let defer_store = Arc::clone(&deferred);

        let (system, sched) = KompicsSystem::sequential(Config::default());
        let sup = system.create(move || {
            Supervisor::with_hooks(
                SupervisorConfig {
                    backoff_base: Duration::from_millis(100),
                    ..Default::default()
                },
                Arc::new(|| Duration::ZERO),
                Arc::new(move |delay, f| defer_store.lock().push((delay, f))),
            )
        });
        let echo = system.create(Echo::new);
        supervise(&sup, &echo.erased(), SuperviseOptions::default()).unwrap();
        system.start(&sup);
        system.start(&echo);
        settle(&sched);

        let port = echo.provided_ref::<PingPort>().unwrap();
        port.trigger(Ping(u64::MAX)).unwrap();
        settle(&sched);

        // Not restarted yet: only the backoff is logged and a timer queued.
        let log = sup.on_definition(|s| s.log()).unwrap();
        assert!(matches!(
            log.last().map(|e| &e.action),
            Some(SupervisionAction::BackoffScheduled { attempt: 1, .. })
        ));
        let (delay, f) = deferred.lock().pop().expect("deferred restart queued");
        assert_eq!(delay, Duration::from_millis(100));

        // Fire the timer: the replacement appears.
        f();
        settle(&sched);
        let log = sup.on_definition(|s| s.log()).unwrap();
        assert!(matches!(
            log.last().map(|e| &e.action),
            Some(SupervisionAction::Restarted { attempt: 1 })
        ));
        let current = sup.on_definition(|s| s.supervised_children()).unwrap();
        assert_eq!(current[0].lifecycle(), LifecycleState::Active);
    }
}
