//! # kompics
//!
//! Facade crate re-exporting the complete reproduction of
//! *Message-Passing Concurrency for Scalable, Stateful, Reconfigurable
//! Middleware* (MIDDLEWARE 2012):
//!
//! * [`core`] — the component model and schedulers;
//! * [`timer`] — the Timer abstraction and real-time implementation;
//! * [`codec`] — the binary wire format and compression;
//! * [`network`] — the Network abstraction and transports;
//! * [`simulation`] — deterministic simulation and the scenario DSL;
//! * [`testing`] — the event-stream unit-testing DSL for components;
//! * [`protocols`] — failure detector, bootstrap, Cyclon, monitoring, web;
//! * [`telemetry`] — metrics registry, causal tracing, exporters (call
//!   `install_telemetry` on a system or simulation to also turn on the
//!   runtime's automatic per-component instrumentation);
//! * [`cats`] — the CATS key-value store case study.
//!
//! For a guided tour start at [`core`] and the repository's `examples/`.

pub use cats;
pub use kompics_codec as codec;
pub use kompics_core as core;
pub use kompics_network as network;
pub use kompics_protocols as protocols;
pub use kompics_simulation as simulation;
pub use kompics_telemetry as telemetry;
pub use kompics_testing as testing;
pub use kompics_timer as timer;

/// Commonly used items across all crates.
pub mod prelude {
    pub use kompics_core::prelude::*;
}
