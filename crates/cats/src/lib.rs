//! # cats
//!
//! **CATS** — the paper's case study (§4): a scalable, self-organizing
//! key-value store with linearizable consistency, built entirely from
//! kompics components:
//!
//! * [`key`] — ring-key arithmetic (consistent hashing on a `u64` ring);
//! * [`ring`] — the **CATS Ring** component: join protocol, successor
//!   lists, periodic stabilization, failure handling via the ping failure
//!   detector;
//! * [`router`] — the **One-Hop Router**: a full-membership view fed by the
//!   ring and the Cyclon node-sampling service, resolving any key to its
//!   replication group in one hop;
//! * [`abd`] — **Consistent ABD**: quorum-based linearizable `get`/`put`
//!   over majority quorums of the replication group; a `get` whose read
//!   quorum agrees on one tag answers after that one round, any other
//!   writes the maximum back first;
//! * [`choreo`] — the ABD wire protocol as a session-typed **choreography**
//!   (a read round, then the coordinator's choice between ending and a
//!   write round) for the `kompics-choreo` checker, plus its runtime
//!   conformance hooks;
//! * [`node`] — the **CATS Node** composite of Figure 11: encapsulates the
//!   failure detector, ring, router, Cyclon, ABD, bootstrap and monitoring
//!   clients behind `PutGet`/`Status`/`Web` ports, hiding all event-driven
//!   control flow from clients;
//! * [`sim`] — the whole-system **simulation architecture** of Figure 12
//!   (left): a `CatsSimulator` that creates/kills node assemblies on
//!   scenario commands over the shared network emulator;
//! * [`local`] — the **local interactive stress-test architecture** of
//!   Figure 12 (right): the same assemblies over the in-process network and
//!   real timers;
//! * [`deployment`] — the standard wire registry and the one-per-machine
//!   node assembly (Figure 10's `CatsNodeMain`);
//! * [`experiments`] — scenario operations and workload/statistics helpers
//!   used by the benchmark harness;
//! * [`lin`] — a Wing&ndash;Gong linearizability checker used by the test
//!   suite to validate consistency under concurrency and churn.

pub mod abd;
pub mod choreo;
pub mod deployment;
pub mod experiments;
pub mod key;
pub mod lin;
pub mod local;
pub mod msgs;
pub mod node;
pub mod ring;
pub mod router;
pub mod sim;

pub use abd::{GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse};
pub use key::RingKey;
pub use node::{CatsConfig, CatsNode};
pub use sim::CatsSimulator;
