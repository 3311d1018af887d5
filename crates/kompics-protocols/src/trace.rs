//! Network-event tracing (paper §4.1: the monitoring client "may also log
//! all network events for tracing", in the spirit of Dapper).
//!
//! [`NetworkTap`] demonstrates Kompics-style *interposition*: a component
//! that both **provides** and **requires** the `Network` port and forwards
//! every message unchanged while recording it. Insert it between any
//! component and its transport — neither side can tell it is there, because
//! both only see a `Network` port:
//!
//! ```text
//!   node ──required──▶ [ NetworkTap ] ──required──▶ transport
//!                        (records)
//! ```
//!
//! Since the introduction of `kompics-telemetry`, the tap's primary output
//! is a pair of registry counters (`kompics_net_tap_messages` by
//! direction); causal per-event tracing is now the job of the runtime's own
//! span tracer (`kompics_core::telemetry`). The original
//! `Vec`-of-records sink is kept as a thin compat layer for callers that
//! want the full message log (tests, ad-hoc debugging).

use std::sync::Arc;
use std::time::Duration;

use kompics_core::event::{event_as, EventRef};
use kompics_core::prelude::*;
use kompics_network::{Message, Network};
use kompics_telemetry::{Counter, Registry};
use parking_lot::Mutex;

/// One recorded network event (compat record type; the registry counters
/// carry the aggregate view).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Capture time as read from the tap's injected [`ClockRef`] — real
    /// elapsed time in production, virtual time under simulation.
    pub at: Duration,
    /// `true` for messages leaving the tapped component, `false` for
    /// messages delivered to it.
    pub outgoing: bool,
    /// Sender id.
    pub source: u64,
    /// Receiver id.
    pub destination: u64,
    /// Concrete event type name.
    pub event: &'static str,
}

/// Shared sink for full trace records (compat; prefer the registry
/// counters plus the runtime's causal tracer for new code).
pub type TraceSink = Arc<Mutex<Vec<TraceRecord>>>;

/// The transparent network interceptor. Provides `Network` (to the tapped
/// component) and requires `Network` (from the real transport).
pub struct NetworkTap {
    ctx: ComponentContext,
    upper: ProvidedPort<Network>,
    lower: RequiredPort<Network>,
    sink: Option<TraceSink>,
    clock: ClockRef,
    outgoing: Counter,
    incoming: Counter,
}

impl NetworkTap {
    /// Creates a tap writing full records into `sink`, stamping them with
    /// real elapsed time (inside a `create` closure). Counters are
    /// standalone (not registered anywhere).
    pub fn new(sink: TraceSink) -> Self {
        Self::with_clock(sink, SystemClock::shared())
    }

    /// Like [`new`](NetworkTap::new) but stamping records from an injected
    /// clock — pass the simulation's virtual clock to trace in virtual time.
    pub fn with_clock(sink: TraceSink, clock: ClockRef) -> Self {
        Self::build(Some(sink), clock, None)
    }

    /// Creates a tap that reports through `registry` only: message counts
    /// land in `kompics_net_tap_messages{direction="out"|"in"}` and no
    /// per-message log is kept. This is the telemetry-era configuration.
    pub fn with_registry(registry: &Registry, clock: ClockRef) -> Self {
        Self::build(None, clock, Some(registry))
    }

    /// Full constructor: optional per-message sink, optional registry for
    /// the direction counters.
    pub fn build(sink: Option<TraceSink>, clock: ClockRef, registry: Option<&Registry>) -> Self {
        let upper: ProvidedPort<Network> = ProvidedPort::new();
        let lower: RequiredPort<Network> = RequiredPort::new();
        // Outgoing: requests from the tapped component pass down.
        upper.subscribe_shared::<NetworkTap, Message, _>(
            |this: &mut NetworkTap, event: &EventRef| {
                this.record(event, true);
                this.lower.trigger_shared(Arc::clone(event));
            },
        );
        // Incoming: indications from the transport pass up.
        lower.subscribe_shared::<NetworkTap, Message, _>(
            |this: &mut NetworkTap, event: &EventRef| {
                this.record(event, false);
                this.upper.trigger_shared(Arc::clone(event));
            },
        );
        let (outgoing, incoming) = match registry {
            Some(reg) => (
                reg.counter("kompics_net_tap_messages", &[("direction", "out")]),
                reg.counter("kompics_net_tap_messages", &[("direction", "in")]),
            ),
            None => (Counter::standalone(), Counter::standalone()),
        };
        NetworkTap {
            ctx: ComponentContext::new(),
            upper,
            lower,
            sink,
            clock,
            outgoing,
            incoming,
        }
    }

    fn record(&mut self, event: &EventRef, outgoing: bool) {
        if outgoing {
            self.outgoing.inc();
        } else {
            self.incoming.inc();
        }
        let Some(sink) = &self.sink else {
            return;
        };
        if let Some(header) = event_as::<Message>(event.as_ref()) {
            sink.lock().push(TraceRecord {
                at: self.clock.now(),
                outgoing,
                source: header.source.id,
                destination: header.destination.id,
                event: event.event_name(),
            });
        }
    }

    /// Messages forwarded so far (both directions).
    pub fn forwarded(&self) -> u64 {
        self.outgoing.value() + self.incoming.value()
    }
}

impl ComponentDefinition for NetworkTap {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "NetworkTap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kompics_core::channel::connect;
    use kompics_network::{Address, LocalNetwork};
    use serde::{Deserialize, Serialize};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Ping {
        base: Message,
        round: u32,
    }
    kompics_core::impl_event!(Ping, extends Message, via base);

    struct Node {
        ctx: ComponentContext,
        net: RequiredPort<Network>,
        #[allow(dead_code)]
        addr: Address,
        received: Arc<AtomicUsize>,
    }
    impl Node {
        fn new(addr: Address, received: Arc<AtomicUsize>) -> Self {
            let net = RequiredPort::new();
            net.subscribe(|this: &mut Node, ping: &Ping| {
                this.received.fetch_add(1, Ordering::SeqCst);
                if ping.round < 2 {
                    this.net.trigger(Ping {
                        base: ping.base.reply(),
                        round: ping.round + 1,
                    });
                }
            });
            Node {
                ctx: ComponentContext::new(),
                net,
                addr,
                received,
            }
        }
    }
    impl ComponentDefinition for Node {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Node"
        }
    }

    fn ping_through_tap(tap_factory: impl FnOnce() -> NetworkTap + Send + 'static) -> u64 {
        let system = KompicsSystem::new(Config::default().workers(2));
        let lan = system.create(LocalNetwork::new);
        let received = Arc::new(AtomicUsize::new(0));

        // Node 1 behind a tap; node 2 directly attached.
        let a1 = Address::sim(1);
        let a2 = Address::sim(2);
        let n1 = system.create({
            let r = received.clone();
            move || Node::new(a1, r)
        });
        let tap = system.create(tap_factory);
        connect(
            &tap.provided_ref::<Network>().unwrap(),
            &n1.required_ref::<Network>().unwrap(),
        )
        .unwrap();
        LocalNetwork::attach(&lan, &tap.required_ref::<Network>().unwrap(), a1).unwrap();
        let n2 = system.create({
            let r = received.clone();
            move || Node::new(a2, r)
        });
        LocalNetwork::attach(&lan, &n2.required_ref::<Network>().unwrap(), a2).unwrap();
        system.start(&lan);
        system.start(&tap);
        system.start(&n1);
        system.start(&n2);

        // n1 → n2 (r0), n2 → n1 (r1), n1 → n2 (r2): three deliveries.
        n1.on_definition(|n| {
            n.net.trigger(Ping {
                base: Message::new(a1, a2),
                round: 0,
            })
        })
        .unwrap();
        system.await_quiescence();
        assert_eq!(received.load(Ordering::SeqCst), 3, "tap is transparent");
        let forwarded = tap.on_definition(|t| t.forwarded()).unwrap();
        system.shutdown();
        forwarded
    }

    #[test]
    fn tap_is_transparent_and_records_both_directions() {
        let sink: TraceSink = Arc::new(Mutex::new(Vec::new()));
        let forwarded = ping_through_tap({
            let s = sink.clone();
            move || NetworkTap::new(s)
        });

        let records = sink.lock();
        // The tap sees n1's traffic only: out r0, in r1, out r2.
        assert_eq!(records.len(), 3);
        assert!(records[0].outgoing && records[0].source == 1);
        assert!(!records[1].outgoing && records[1].destination == 1);
        assert!(records[2].outgoing);
        assert!(records.iter().all(|r| r.event.ends_with("Ping")));
        assert_eq!(forwarded, 3);
    }

    #[test]
    fn registry_backed_tap_counts_by_direction() {
        let registry = Arc::new(Registry::with_shards(1));
        let forwarded = ping_through_tap({
            let reg = registry.clone();
            move || NetworkTap::with_registry(&reg, SystemClock::shared())
        });
        assert_eq!(forwarded, 3);
        let out = registry.counter("kompics_net_tap_messages", &[("direction", "out")]);
        let inc = registry.counter("kompics_net_tap_messages", &[("direction", "in")]);
        assert_eq!(out.value(), 2);
        assert_eq!(inc.value(), 1);
    }
}
