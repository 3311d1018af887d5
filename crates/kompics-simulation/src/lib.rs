//! # kompics-simulation
//!
//! Reproducible whole-system simulation for the kompics component model
//! (§3 "Deterministic Simulation Mode" and §4.2/§4.4 of the paper).
//!
//! The same *unchanged* component code that runs under the multi-core
//! scheduler in production runs here under a sequential scheduler in
//! **simulated time**: the [`Simulation`](sim::Simulation) driver alternates
//! between executing ready components to quiescence and advancing a virtual
//! clock to the next timed occurrence in a discrete-event queue
//! ([`des`]). Time sources and randomness are injected structurally — the
//! [`SimTimer`](sim_timer::SimTimer) serves the `Timer` port from the
//! virtual clock and the [`NetworkEmulator`](emulator::NetworkEmulator)
//! serves the `Network` port with configurable latency/loss/partition
//! models drawn from one seeded RNG — so a simulation run is a deterministic
//! function of its seed. (The paper achieves the same property by bytecode
//! instrumentation; see DESIGN.md §4.)
//!
//! Experiment scenarios — stochastic processes with distributions of
//! inter-arrival times and operation parameters, composed sequentially and
//! in parallel — are expressed with the [`scenario`] DSL, mirroring the
//! paper's §4.4 Java DSL.

//!
//! Fault-injection experiments — crashing components, partitioning the
//! emulated network, degrading links, all at scripted virtual times — are
//! expressed with the [`fault_plan`] DSL and pair with the supervision
//! module of `kompics-core` via
//! [`Simulation::create_supervisor`](sim::Simulation::create_supervisor).

pub mod des;
pub mod dist;
pub mod emulator;
pub mod fault_plan;
pub mod scenario;
pub mod sim;
pub mod sim_timer;

pub use des::{Des, DesEventId, SimTime};
pub use dist::Dist;
pub use emulator::{EmulatorConfig, LatencyModel, LinkFault, NetworkEmulator};
pub use fault_plan::{FaultOp, FaultPlan, FaultTargets, InstalledFaultPlan};
pub use scenario::{Scenario, StartRule, StochasticProcess};
pub use sim::SimTelemetry;
pub use sim::{SimClock, Simulation};
pub use sim_timer::SimTimer;
