//! # kompics-core
//!
//! A message-passing, concurrent, hierarchical component model with support
//! for dynamic reconfiguration, reproducing the system described in:
//!
//! > Cosmin Arad, Jim Dowling, Seif Haridi.
//! > *Message-Passing Concurrency for Scalable, Stateful, Reconfigurable
//! > Middleware.* MIDDLEWARE 2012.
//!
//! Components are reactive state machines that execute concurrently and
//! communicate by passing data-carrying typed [events](event::Event) through
//! typed bidirectional [ports](port), connected by [channels](channel).
//! Handlers of a single component execute mutually exclusively, so component
//! state needs no internal synchronization. The execution model is decoupled
//! from component code through the [`Scheduler`](sched::Scheduler) trait,
//! which is what lets the *same unchanged component code* run under the
//! multi-core [work-stealing scheduler](sched::work_stealing) in production
//! and under the [sequential scheduler](sched::sequential) in deterministic
//! simulation.
//!
//! ## Quickstart
//!
//! ```rust
//! use kompics_core::prelude::*;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! #[derive(Debug, Clone)]
//! pub struct Ping(pub u64);
//! impl_event!(Ping);
//!
//! port_type! {
//!     /// A toy service abstraction.
//!     pub struct PingPort {
//!         indication: ;
//!         request: Ping;
//!     }
//! }
//!
//! pub struct Ponger {
//!     ctx: ComponentContext,
//!     ping_port: ProvidedPort<PingPort>,
//!     seen: Arc<AtomicUsize>,
//! }
//!
//! impl Ponger {
//!     fn new(seen: Arc<AtomicUsize>) -> Self {
//!         let ping_port = ProvidedPort::new();
//!         ping_port.subscribe(|this: &mut Ponger, _ping: &Ping| {
//!             this.seen.fetch_add(1, Ordering::SeqCst);
//!         });
//!         Ponger { ctx: ComponentContext::new(), ping_port, seen }
//!     }
//! }
//!
//! impl ComponentDefinition for Ponger {
//!     fn context(&self) -> &ComponentContext { &self.ctx }
//!     fn type_name(&self) -> &'static str { "Ponger" }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let seen = Arc::new(AtomicUsize::new(0));
//! let system = KompicsSystem::new(Config::default());
//! let ponger = system.create({ let seen = seen.clone(); move || Ponger::new(seen) });
//! system.start(&ponger);
//! let port = ponger.provided_ref::<PingPort>()?;
//! port.trigger(Ping(1))?;
//! port.trigger(Ping(2))?;
//! system.await_quiescence();
//! assert_eq!(seen.load(Ordering::SeqCst), 2);
//! system.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod analyze;
pub mod channel;
pub mod clock;
pub mod component;
pub mod config;
pub mod error;
pub mod event;
pub mod fault;
pub mod lifecycle;
pub mod mailbox;
pub mod port;
pub(crate) mod rcu;
pub mod reconfig;
pub(crate) mod route;
pub mod sched;
pub mod supervision;
pub mod system;
pub mod telemetry;
pub mod testing;
pub mod types;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::analyze::{ComponentSurface, Finding, FindingKind, Report, Severity};
    pub use crate::channel::{ChannelRef, ChannelSelector};
    pub use crate::clock::{Clock, ClockRef, ManualClock, SystemClock};
    pub use crate::component::{Component, ComponentContext, ComponentDefinition, ComponentRef};
    pub use crate::config::{Config, SchedulerSpec, WorkerStall};
    pub use crate::error::CoreError;
    pub use crate::event::{event_as, Event, EventRef};
    pub use crate::fault::{Fault, FaultPolicy};
    pub use crate::lifecycle::{Init, Kill, Start, Started, Stop, Stopped};
    pub use crate::mailbox::{
        CoalesceFn, Feedback, Lane, LaneCounters, LaneSpec, MailboxSpec, OverloadPolicy,
    };
    pub use crate::port::{Direction, PortRef, PortType, ProvidedPort, RequiredPort};
    pub use crate::supervision::{
        inject_fault, supervise, RestartStrategy, SuperviseOptions, SupervisionAction,
        SupervisionEvent, Supervisor, SupervisorConfig,
    };
    pub use crate::system::KompicsSystem;
    pub use crate::types::{ChannelId, ComponentId, HandlerId, PortId};
    pub use crate::{impl_event, port_type};
}

pub use prelude::*;
