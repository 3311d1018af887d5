//! The runtime system: component creation, life-cycle entry points,
//! quiescence detection and system-level fault handling.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::component::{create_in_system, Component, ComponentDefinition};
use crate::config::Config;
use crate::fault::{Fault, FaultPolicy};
use crate::lifecycle::{Kill, Start, Stop};
use crate::sched::sequential::SequentialScheduler;
use crate::sched::work_stealing::WorkStealingScheduler;
use crate::sched::Scheduler;
use crate::types::ComponentId;

/// Internal shared state of a [`KompicsSystem`].
pub struct SystemCore {
    scheduler: Arc<dyn Scheduler>,
    config: Config,
    pending: AtomicUsize,
    /// Number of threads blocked in [`KompicsSystem::await_quiescence`].
    /// Gates the notify in [`SystemCore::pending_sub`]: the common case
    /// (nobody waiting) skips the mutex+condvar entirely.
    quiesce_waiters: AtomicUsize,
    quiesce_mutex: Mutex<()>,
    quiesce_cv: Condvar,
    faults: Mutex<Vec<Fault>>,
    next_component: AtomicU64,
    roots: Mutex<Vec<Arc<crate::component::ComponentCore>>>,
    shut_down: AtomicBool,
    /// Installed at most once by [`KompicsSystem::install_telemetry`];
    /// `None` means every instrumentation site is a single cheap
    /// `OnceLock::get` miss.
    telemetry: std::sync::OnceLock<Arc<crate::telemetry::SystemTelemetry>>,
}

impl SystemCore {
    pub(crate) fn scheduler(&self) -> &Arc<dyn Scheduler> {
        &self.scheduler
    }

    pub(crate) fn throughput(&self) -> usize {
        self.config.throughput_value()
    }

    pub(crate) fn next_component_id(&self) -> ComponentId {
        ComponentId(self.next_component.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn pending_inc(&self) {
        // SeqCst: the increment must be ordered before the waiter's
        // pending-is-zero check in `await_quiescence` (Dekker with the
        // waiter registering then re-reading `pending`).
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// Batched decrement: one atomic op for a whole execution slice.
    pub(crate) fn pending_sub(&self, n: usize) {
        if n == 0 {
            return;
        }
        if self.pending.fetch_sub(n, Ordering::SeqCst) == n {
            // Only wake when someone is actually waiting; the waiter
            // increments `quiesce_waiters` *before* re-checking `pending`
            // (both SeqCst), so either we see the waiter here or the waiter
            // sees pending == 0 and never sleeps.
            if self.quiesce_waiters.load(Ordering::SeqCst) > 0 {
                let _guard = self.quiesce_mutex.lock();
                self.quiesce_cv.notify_all();
            }
        }
    }

    pub(crate) fn register_root(&self, core: Arc<crate::component::ComponentCore>) {
        self.roots.lock().push(core);
    }

    pub(crate) fn roots_snapshot(&self) -> Vec<Arc<crate::component::ComponentCore>> {
        self.roots.lock().clone()
    }

    pub(crate) fn forget_root(&self, id: ComponentId) {
        self.roots.lock().retain(|c| c.id() != id);
    }

    pub(crate) fn telemetry(&self) -> Option<&Arc<crate::telemetry::SystemTelemetry>> {
        self.telemetry.get()
    }

    pub(crate) fn set_telemetry(&self, state: Arc<crate::telemetry::SystemTelemetry>) -> bool {
        self.telemetry.set(state).is_ok()
    }

    pub(crate) fn unhandled_fault(&self, fault: Fault) {
        match self.config.fault_policy_value() {
            FaultPolicy::Log => {
                eprintln!(
                    "kompics: unhandled fault in {}: {}",
                    fault.component_name, fault.error
                );
            }
            FaultPolicy::Collect => self.faults.lock().push(fault),
            FaultPolicy::Halt => {
                eprintln!(
                    "kompics: unhandled fault in {}: {} — halting",
                    fault.component_name, fault.error
                );
                std::process::abort();
            }
        }
    }
}

/// A Kompics runtime instance: owns the scheduler and the root components.
///
/// Cheap to clone (all clones share the same runtime). See the
/// [crate-level example](crate#quickstart).
#[derive(Clone)]
pub struct KompicsSystem {
    core: Arc<SystemCore>,
}

impl std::fmt::Debug for KompicsSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KompicsSystem")
            .field("scheduler", &self.core.scheduler.describe())
            .field("pending", &self.core.pending.load(Ordering::SeqCst))
            .finish()
    }
}

impl KompicsSystem {
    /// Creates a system with the multi-core work-stealing scheduler
    /// (production mode).
    pub fn new(config: Config) -> Self {
        let scheduler = WorkStealingScheduler::with_spec(
            config.worker_count(),
            config.scheduler_spec().clone(),
        );
        Self::with_scheduler(config, scheduler)
    }

    /// Creates a system with a deterministic single-threaded scheduler and
    /// returns both; drive execution with
    /// [`SequentialScheduler::run_until_quiescent`].
    pub fn sequential(config: Config) -> (Self, Arc<SequentialScheduler>) {
        let scheduler = SequentialScheduler::new();
        let system = Self::with_scheduler(config, Arc::clone(&scheduler) as _);
        (system, scheduler)
    }

    /// Creates a system with any custom [`Scheduler`].
    pub fn with_scheduler(config: Config, scheduler: Arc<dyn Scheduler>) -> Self {
        KompicsSystem {
            core: Arc::new(SystemCore {
                scheduler,
                config,
                pending: AtomicUsize::new(0),
                quiesce_waiters: AtomicUsize::new(0),
                quiesce_mutex: Mutex::new(()),
                quiesce_cv: Condvar::new(),
                faults: Mutex::new(Vec::new()),
                next_component: AtomicU64::new(1),
                roots: Mutex::new(Vec::new()),
                shut_down: AtomicBool::new(false),
                telemetry: std::sync::OnceLock::new(),
            }),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &Config {
        &self.core.config
    }

    #[allow(dead_code)]
    pub(crate) fn core(&self) -> &Arc<SystemCore> {
        &self.core
    }

    /// Snapshot of the scheduler's counters (steals, parks, handoffs,
    /// migrations) — the same numbers the telemetry collector exports.
    /// Useful in tests asserting scheduling behaviour (e.g. bounded
    /// park/unpark churn) without installing telemetry.
    pub fn scheduler_stats(&self) -> crate::sched::SchedulerStats {
        self.core.scheduler.stats()
    }

    /// Creates a top-level component from its constructor closure. The
    /// component is created **passive**; activate it with
    /// [`start`](KompicsSystem::start).
    pub fn create<C, F>(&self, f: F) -> Component<C>
    where
        C: ComponentDefinition,
        F: FnOnce() -> C,
    {
        create_in_system(&self.core, None, f)
    }

    /// Triggers [`Start`] on the component's control port, activating it and
    /// (recursively) its subtree.
    pub fn start<C>(&self, component: &Component<C>) {
        let _ = component
            .control_ref()
            .trigger_shared(Arc::new(Start) as crate::event::EventRef);
    }

    /// Triggers [`Stop`] on the component's control port.
    pub fn stop<C>(&self, component: &Component<C>) {
        let _ = component
            .control_ref()
            .trigger_shared(Arc::new(Stop) as crate::event::EventRef);
    }

    /// Triggers [`Kill`] on the component's control port: the component and
    /// its subtree are destroyed after their queued control events execute.
    pub fn kill<C>(&self, component: &Component<C>) {
        let _ = component
            .control_ref()
            .trigger_shared(Arc::new(Kill) as crate::event::EventRef);
    }

    /// Number of events currently queued (or executing) across the whole
    /// system.
    pub fn pending(&self) -> usize {
        self.core.pending.load(Ordering::SeqCst)
    }

    /// Blocks until no events are queued or executing anywhere in the
    /// system.
    ///
    /// Only meaningful under a threaded scheduler; with a
    /// [`SequentialScheduler`] drive execution with
    /// [`run_until_quiescent`](SequentialScheduler::run_until_quiescent)
    /// instead.
    pub fn await_quiescence(&self) {
        if self.core.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Register as a waiter *before* the re-check (SeqCst on both sides):
        // a decrementer that drops `pending` to zero either observes our
        // registration and notifies, or its decrement is ordered before our
        // re-check and we never sleep.
        self.core.quiesce_waiters.fetch_add(1, Ordering::SeqCst);
        loop {
            let mut guard = self.core.quiesce_mutex.lock();
            if self.core.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            // Timed wait bounds any notify race.
            self.core
                .quiesce_cv
                .wait_for(&mut guard, Duration::from_millis(20));
        }
        self.core.quiesce_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Faults recorded under [`FaultPolicy::Collect`].
    pub fn collected_faults(&self) -> Vec<Fault> {
        self.core.faults.lock().clone()
    }

    /// Statically analyzes the assembled component/port/channel/supervision
    /// graph and returns every problem found — dangling required ports,
    /// dead events, duplicate subscriptions or channels, held channels and
    /// supervision escalation cycles. Intended to run after assembly and
    /// before [`start`](KompicsSystem::start); an empty result means the
    /// wiring passed every check. See [`analyze`](crate::analyze) for the
    /// pass catalog and soundness rules.
    pub fn analyze(&self) -> Vec<crate::analyze::Finding> {
        crate::analyze::analyze_system(&self.core)
    }

    /// Installs runtime telemetry (metrics registry, optional causal
    /// tracer, timing clock) on this system. Components created *after*
    /// installation are automatically instrumented; install before
    /// assembling the component tree. Returns `false` if telemetry was
    /// already installed (the first installation wins).
    pub fn install_telemetry(&self, spec: crate::telemetry::TelemetrySpec) -> bool {
        crate::telemetry::install(&self.core, spec)
    }

    /// Stops the scheduler. Components are not individually killed; their
    /// queues simply stop executing.
    pub fn shutdown(&self) {
        if !self.core.shut_down.swap(true, Ordering::SeqCst) {
            self.core.scheduler.shutdown();
        }
    }
}
