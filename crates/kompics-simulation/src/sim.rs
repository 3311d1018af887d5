//! The simulation driver: couples a [`KompicsSystem`] running under the
//! sequential scheduler with the discrete-event core.
//!
//! Execution alternates two phases, exactly as in the paper's simulation
//! mode: (1) execute ready components until the system is quiescent; (2)
//! hand control to the event queue, which advances virtual time to the next
//! timed occurrence (a timeout firing, an emulated message arriving, a
//! scenario operation) and executes it. A run is a deterministic function of
//! the seed.

use std::sync::Arc;
use std::time::Duration;

use kompics_core::analyze::Finding;
use kompics_core::clock::{Clock, ClockRef};
use kompics_core::component::{Component, ComponentDefinition};
use kompics_core::config::Config;
use kompics_core::sched::sequential::SequentialScheduler;
use kompics_core::supervision::{Supervisor, SupervisorConfig};
use kompics_core::system::KompicsSystem;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::des::{Des, SimTime};

/// A [`Clock`] backed by the simulation's discrete-event queue: `now()`
/// reads **virtual** time. Hand this to any component or harness that takes
/// a [`ClockRef`] and its deadlines advance with the simulation instead of
/// the wall.
pub struct SimClock {
    des: Arc<Des>,
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        self.des.now_duration()
    }
}

/// Trace-ring capacity (records per run) used by
/// [`Simulation::install_telemetry`]. Bounded so a long simulation retains
/// the most recent window instead of growing without limit.
const SIM_TRACE_CAPACITY: usize = 65_536;

/// Handles returned by [`Simulation::install_telemetry`]: everything needed
/// to scrape metrics and read the causal trace of a simulated run.
pub struct SimTelemetry {
    /// The registry the runtime (and any protocol components handed a
    /// clone) records into.
    pub registry: Arc<kompics_telemetry::Registry>,
    /// The tracer; disable with `tracer.set_enabled(false)` to keep metrics
    /// but stop tracing.
    pub tracer: Arc<kompics_telemetry::Tracer>,
    /// The bounded ring holding the causal trace.
    pub trace: Arc<kompics_telemetry::RingSink>,
}

/// A deterministic simulation of a kompics system. See the module docs.
///
/// ```rust
/// use kompics_simulation::Simulation;
/// use std::time::Duration;
///
/// let sim = Simulation::new(42);
/// // ... create components via sim.system(), wire SimTimer/NetworkEmulator ...
/// sim.run_for(Duration::from_secs(10)); // 10 s of *virtual* time
/// assert_eq!(sim.now(), Duration::from_secs(10));
/// ```
pub struct Simulation {
    system: KompicsSystem,
    scheduler: Arc<SequentialScheduler>,
    des: Arc<Des>,
    rng: Arc<Mutex<StdRng>>,
    seed: u64,
}

impl Simulation {
    /// Creates a simulation with the given RNG seed and a default
    /// configuration.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, Config::default())
    }

    /// Creates a simulation with an explicit system configuration (the
    /// worker count is ignored; simulation is single-threaded).
    pub fn with_config(seed: u64, config: Config) -> Self {
        let (system, scheduler) = KompicsSystem::sequential(config);
        Simulation {
            system,
            scheduler,
            des: Arc::new(Des::new()),
            rng: Arc::new(Mutex::new(StdRng::seed_from_u64(seed))),
            seed,
        }
    }

    /// The underlying system; create and wire components through it.
    pub fn system(&self) -> &KompicsSystem {
        &self.system
    }

    /// The discrete-event core, shared with `SimTimer` / `NetworkEmulator` /
    /// scenarios.
    pub fn des(&self) -> &Arc<Des> {
        &self.des
    }

    /// The simulation's seeded RNG, shared with the emulator and scenarios.
    pub fn rng(&self) -> &Arc<Mutex<StdRng>> {
        &self.rng
    }

    /// The seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A [`ClockRef`] reading the simulation's virtual time, for injection
    /// into clock-parameterized components ([`SimClock`]).
    pub fn clock(&self) -> ClockRef {
        Arc::new(SimClock {
            des: Arc::clone(&self.des),
        })
    }

    /// Installs runtime telemetry on the simulated system, wired entirely
    /// to *virtual* time: metrics timestamps and trace records read
    /// [`SimClock`], the registry and the trace ring use a single shard
    /// (the simulation is single-threaded), and span ids count per-run from
    /// 1 — so two same-seed runs export byte-identical Prometheus text,
    /// JSON snapshots and trace renderings.
    ///
    /// Call **before** creating components (instrumentation attaches at
    /// component creation). Returns the handles to scrape; panics if
    /// telemetry was already installed on this system.
    pub fn install_telemetry(&self) -> SimTelemetry {
        use kompics_core::telemetry::{time_source, TelemetrySpec};
        use kompics_telemetry::{Registry, RingSink, TraceSink, Tracer};

        let registry = Arc::new(Registry::with_shards(1));
        let trace = Arc::new(RingSink::with_shards(1, SIM_TRACE_CAPACITY));
        let clock = self.clock();
        let tracer = Arc::new(Tracer::new(
            time_source(&clock),
            Arc::clone(&trace) as Arc<dyn TraceSink>,
        ));
        let installed = self.system.install_telemetry(
            TelemetrySpec::new(Arc::clone(&registry), clock).with_tracer(Arc::clone(&tracer)),
        );
        assert!(
            installed,
            "telemetry already installed on this simulation's system"
        );
        SimTelemetry {
            registry,
            tracer,
            trace,
        }
    }

    /// Statically analyzes the assembled component graph (see
    /// [`KompicsSystem::analyze`]): dangling required ports, dead events,
    /// duplicate subscriptions or channels, held channels, supervision
    /// escalation cycles.
    pub fn analyze(&self) -> Vec<Finding> {
        self.system.analyze()
    }

    /// Like [`analyze`](Simulation::analyze), but wrapped in the shared
    /// [`Report`](kompics_core::analyze::Report) container so graph findings
    /// and protocol-checker findings (`kompics-choreo`) merge into a single
    /// severity-sorted summary with one text/JSON rendering.
    pub fn analyze_report(&self) -> kompics_core::analyze::Report {
        kompics_core::analyze::Report::from_findings(self.analyze())
    }

    /// Starts a component like [`KompicsSystem::start`], but in debug builds
    /// first runs [`analyze`](Simulation::analyze) and panics on any
    /// error-severity finding. Simulation is where wiring mistakes are
    /// cheapest to surface — a dangling required port or duplicate channel
    /// caught here never reaches a cluster.
    pub fn start<C: ComponentDefinition>(&self, component: &Component<C>) {
        #[cfg(debug_assertions)]
        {
            let errors: Vec<String> = self
                .analyze()
                .iter()
                .filter(|f| f.severity == kompics_core::analyze::Severity::Error)
                .map(|f| f.to_string())
                .collect();
            assert!(
                errors.is_empty(),
                "simulation start refused; graph analysis found errors:\n  {}",
                errors.join("\n  ")
            );
        }
        self.system.start(component);
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.des.now_duration()
    }

    /// Executes ready components until quiescent, without advancing time.
    /// Returns the number of execution slices run.
    pub fn settle(&self) -> u64 {
        self.scheduler.run_until_quiescent()
    }

    /// Runs one simulation step: settle components, then execute the next
    /// timed action. Returns `false` when no timed actions remain.
    pub fn step(&self) -> bool {
        self.settle();
        let advanced = self.des.step().is_some();
        if advanced {
            self.settle();
        }
        advanced
    }

    /// Runs until virtual time reaches `deadline` (absolute, nanoseconds) or
    /// the event queue empties, whichever comes first; the clock ends at
    /// `deadline` in either case.
    pub fn run_until(&self, deadline: SimTime) {
        loop {
            self.settle();
            match self.des.peek_next_time() {
                Some(t) if t <= deadline => {
                    self.des.step();
                }
                _ => break,
            }
        }
        self.des.advance_to(deadline);
        self.settle();
    }

    /// Runs `duration` of virtual time from the current instant.
    pub fn run_for(&self, duration: Duration) {
        self.run_until(self.des.now().saturating_add(duration.as_nanos() as u64));
    }

    /// Settles the system, then advances virtual time to the next timed
    /// action **only if** it is due at or before `deadline` (absolute,
    /// nanoseconds). Returns whether a step was taken; `false` means the
    /// system is quiescent and nothing more happens by the deadline.
    ///
    /// This is the primitive behind virtual-time deadlines in
    /// `kompics-testing`: a spec waiting for the next observation calls this
    /// in a loop, and a `false` return is a deterministic timeout — the same
    /// spec that would block on a wall clock under the threaded scheduler
    /// instead fails (or passes) identically on every run.
    pub fn advance_within(&self, deadline: SimTime) -> bool {
        self.settle();
        match self.des.peek_next_time() {
            Some(t) if t <= deadline => {
                self.des.step();
                self.settle();
                true
            }
            _ => false,
        }
    }

    /// Runs until `condition` holds (checked after every timed action), the
    /// event queue empties, or virtual time reaches `deadline`. Returns
    /// whether the condition was met — the "global view" termination check
    /// of simulation experiments.
    pub fn run_until_condition(
        &self,
        deadline: SimTime,
        mut condition: impl FnMut() -> bool,
    ) -> bool {
        loop {
            self.settle();
            if condition() {
                return true;
            }
            match self.des.peek_next_time() {
                Some(t) if t <= deadline => {
                    self.des.step();
                }
                _ => return condition(),
            }
        }
    }

    /// Runs until both the component system and the event queue are
    /// exhausted. Returns the final virtual time.
    pub fn run_to_completion(&self) -> Duration {
        while self.step() {}
        self.settle();
        self.now()
    }

    /// Creates and starts a [`Supervisor`] whose restart window and backoff
    /// timer both run on **virtual time**: the rolling restart-intensity
    /// window reads the simulated clock, and deferred (backoff) restarts are
    /// scheduled on the event queue instead of a sleeper thread. This keeps
    /// supervised-restart experiments fully deterministic.
    pub fn create_supervisor(&self, config: SupervisorConfig) -> Component<Supervisor> {
        let clock_des = Arc::clone(&self.des);
        let defer_des = Arc::clone(&self.des);
        let supervisor = self.system.create(move || {
            Supervisor::with_hooks(
                config,
                Arc::new(move || clock_des.now_duration()),
                Arc::new(move |delay, f: Box<dyn FnOnce() + Send>| {
                    defer_des.schedule_in(delay, f);
                }),
            )
        });
        self.system.start(&supervisor);
        supervisor
    }

    /// Shuts the underlying system down.
    pub fn shutdown(&self) {
        self.system.shutdown();
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("seed", &self.seed)
            .field("now", &self.now())
            .field("pending_actions", &self.des.pending())
            .finish()
    }
}
