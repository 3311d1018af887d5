//! # kompics-network
//!
//! The **Network** abstraction from the paper's component library: a port
//! type that accepts [`Message`] events at a sending node and delivers
//! [`Message`] events at the receiving node, plus interchangeable transport
//! components behind it:
//!
//! * [`LocalNetwork`](local::LocalNetwork) — in-process routing between
//!   nodes hosted in one OS process (the "local interactive stress-test"
//!   execution mode of the paper's §4.3);
//! * [`TcpNetwork`](tcp::TcpNetwork) — a real transport over `std::net` TCP
//!   with length-prefixed framing, automatic connection management and
//!   optional payload compression, driven by one `poll(2)` readiness loop
//!   per transport, hence Unix-only (substituting for the paper's pluggable
//!   Grizzly/Netty/MINA NIO frameworks, see DESIGN.md §4);
//! * [`UdpNetwork`](udp::UdpNetwork) — a second real transport with
//!   best-effort datagram semantics, demonstrating the same pluggability
//!   the paper shows with its three NIO frameworks;
//! * the deterministic network *emulator* lives in `kompics-simulation`.
//!
//! Because all three provide the same [`Network`] port, protocol components
//! cannot tell which one serves them — which is precisely what lets the same
//! system run deployed, locally, or in reproducible simulation.
//!
//! Message types that cross a real wire implement [`serde::Serialize`] /
//! [`serde::Deserialize`] and are registered in a
//! [`MessageRegistry`](registry::MessageRegistry) with a stable numeric tag.

pub mod address;
pub mod error;
mod frame;
#[cfg(unix)]
mod io_loop;
pub mod local;
pub mod net;
#[cfg(unix)]
mod poll;
mod recv_buf;
pub mod registry;
#[cfg(unix)]
pub mod tcp;
pub mod telemetry;
pub mod udp;

pub use address::Address;
pub use error::NetworkError;
pub use local::LocalNetwork;
pub use net::{DeadLetter, Message, Network};
pub use registry::MessageRegistry;
#[cfg(unix)]
pub use tcp::{TcpConfig, TcpNetwork};
pub use udp::UdpNetwork;
