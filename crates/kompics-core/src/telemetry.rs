//! Glue between the component runtime and the `kompics-telemetry` crate.
//!
//! Installing telemetry on a system ([`KompicsSystem::install_telemetry`])
//! hands the runtime a metrics [`Registry`], an optional causal [`Tracer`]
//! and a [`ClockRef`]; from then on every *newly created* component gets:
//!
//! * a per-component-type `kompics_component_events_handled` counter and a
//!   sampled `kompics_component_slice_ns` execution-slice histogram,
//!   recorded from [`execute`](crate::component::ComponentCore::execute);
//! * causal trace records: a span minted per delivered event in
//!   `enqueue_work`, an `exec` record and a thread-local span scope around
//!   each handler execution — so events triggered from inside a handler
//!   (including through channels, which forward synchronously on the
//!   triggering thread) are parented to the handler's span.
//!
//! Scrape-time collectors (zero hot-path cost) add per-instance queue
//! depths and scheduler steal/park totals. All timestamps flow through the
//! injected clock, never `Instant::now()` directly — with `SimClock` the
//! instrumentation is fully deterministic.
//!
//! Install telemetry **before** creating components; components created
//! earlier simply stay uninstrumented (their queue depth still shows up via
//! the collector).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use kompics_telemetry::trace::TimeSource;
use kompics_telemetry::{Counter, Histogram, Registry, Sample, SpanId, SpanScope, Tracer};

use crate::clock::ClockRef;
use crate::component::ComponentCore;
use crate::mailbox::Lane;
use crate::system::SystemCore;

/// Record a slice-duration sample every `SLICE_SAMPLE`-th execution slice.
/// Timing every slice would put two clock reads on the hot path; sampling
/// keeps the common slice at one counter bump while still populating the
/// histogram at a useful rate.
const SLICE_SAMPLE: u32 = 32;

/// Adapts the runtime's [`ClockRef`] to the telemetry crate's closure-based
/// [`TimeSource`] (kompics-telemetry is a leaf crate and cannot name
/// `ClockRef` itself).
pub fn time_source(clock: &ClockRef) -> TimeSource {
    let clock = Arc::clone(clock);
    Arc::new(move || clock.now())
}

/// What [`KompicsSystem::install_telemetry`] installs.
///
/// [`KompicsSystem::install_telemetry`]: crate::system::KompicsSystem::install_telemetry
pub struct TelemetrySpec {
    /// Where runtime metrics are registered.
    pub registry: Arc<Registry>,
    /// Causal tracer; `None` disables tracing but keeps metrics.
    pub tracer: Option<Arc<Tracer>>,
    /// Clock used to time handler execution slices. Use the system clock in
    /// deployment and `SimClock` in simulation.
    pub clock: ClockRef,
}

impl TelemetrySpec {
    /// Metrics-only spec.
    pub fn new(registry: Arc<Registry>, clock: ClockRef) -> Self {
        TelemetrySpec {
            registry,
            tracer: None,
            clock,
        }
    }

    /// Adds a causal tracer.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

/// Per-system telemetry state, shared by all instrumentation sites.
pub(crate) struct SystemTelemetry {
    registry: Arc<Registry>,
    tracer: Option<Arc<Tracer>>,
    time: TimeSource,
}

impl SystemTelemetry {
    /// Instruments one freshly created component. `kind` is the definition
    /// type name — a bounded label set (per component *type*, not per
    /// instance).
    pub(crate) fn component_metrics(&self, kind: &'static str) -> ComponentMetrics {
        ComponentMetrics {
            events: self
                .registry
                .counter("kompics_component_events_handled", &[("component", kind)]),
            slice_ns: self
                .registry
                .histogram("kompics_component_slice_ns", &[("component", kind)]),
            time: Arc::clone(&self.time),
            tracer: self.tracer.clone(),
            slice_counter: AtomicU32::new(0),
        }
    }
}

/// Per-component instrumentation handles, created once at component
/// creation so the dispatch path never touches the registry.
pub(crate) struct ComponentMetrics {
    events: Counter,
    slice_ns: Histogram,
    time: TimeSource,
    tracer: Option<Arc<Tracer>>,
    /// Slice sampling counter. Only ever written from inside an execution
    /// slice, which the `scheduled` flag makes single-writer — so a plain
    /// load/store pair (no RMW) is sound and cheap.
    slice_counter: AtomicU32,
}

impl ComponentMetrics {
    /// Whether causal tracing is live — callers check this before doing any
    /// span-only work (like the virtual `event_name()` call).
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        match &self.tracer {
            Some(t) => t.enabled(),
            None => false,
        }
    }

    /// Called at the start of an execution slice; returns a start timestamp
    /// when this slice is one of the sampled ones.
    #[inline]
    pub(crate) fn slice_begin(&self) -> Option<std::time::Duration> {
        let n = self.slice_counter.load(Ordering::Relaxed);
        self.slice_counter
            .store(n.wrapping_add(1), Ordering::Relaxed);
        if n.is_multiple_of(SLICE_SAMPLE) {
            Some((self.time)())
        } else {
            None
        }
    }

    /// Called at the end of an execution slice with the number of events
    /// the slice handled and the timestamp from [`slice_begin`].
    ///
    /// [`slice_begin`]: ComponentMetrics::slice_begin
    #[inline]
    pub(crate) fn slice_end(&self, started: Option<std::time::Duration>, handled: usize) {
        if handled > 0 {
            self.events.add(handled as u64);
        }
        if let Some(t0) = started {
            let elapsed = (self.time)().saturating_sub(t0);
            self.slice_ns.record(elapsed.as_nanos() as u64);
        }
    }

    /// Mints and records a delivery span for an event being enqueued at
    /// this component; `None` when tracing is off.
    #[inline]
    pub(crate) fn deliver_span(&self, component: u64, event: &'static str) -> Option<u64> {
        let tracer = self.tracer.as_ref()?;
        if !tracer.enabled() {
            return None;
        }
        Some(tracer.deliver(component, event).0)
    }

    /// Records the start of a handler execution for a delivered span and
    /// installs it as the thread's current span for the duration of the
    /// returned scope.
    #[inline]
    pub(crate) fn enter_span(
        &self,
        span: u64,
        component: u64,
        event: &'static str,
    ) -> Option<SpanScope> {
        if span == 0 {
            return None;
        }
        let tracer = self.tracer.as_ref()?;
        if tracer.enabled() {
            tracer.exec(SpanId(span), component, event);
        }
        Some(SpanScope::enter(SpanId(span)))
    }
}

/// Builds the shared state and registers the scrape-time collectors.
/// Returns `false` (and installs nothing) if telemetry was already
/// installed on this system.
pub(crate) fn install(core: &Arc<SystemCore>, spec: TelemetrySpec) -> bool {
    let state = Arc::new(SystemTelemetry {
        registry: Arc::clone(&spec.registry),
        tracer: spec.tracer,
        time: time_source(&spec.clock),
    });
    if !core.set_telemetry(state) {
        return false;
    }

    // Per-instance queue depths and per-lane mailbox counters, sampled at
    // scrape by walking the component tree. Weak system reference: the
    // registry outliving the system must not keep it alive (and must not
    // cycle through SystemCore's own telemetry slot).
    let weak = Arc::downgrade(core);
    spec.registry.register_collector(move |out| {
        let Some(system) = weak.upgrade() else {
            return;
        };
        fn walk(core: &Arc<ComponentCore>, out: &mut Vec<Sample>) {
            out.push(Sample::gauge(
                "kompics_component_queue_depth",
                &[("component", core.name())],
                core.pending() as i64,
            ));
            for lane in [Lane::Control, Lane::Data] {
                let c = core.mailbox_counters(lane);
                let labels = &[("component", core.name()), ("lane", lane.label())];
                out.push(Sample::gauge(
                    "kompics_mailbox_depth",
                    labels,
                    c.depth as i64,
                ));
                out.push(Sample::counter(
                    "kompics_mailbox_enqueued_total",
                    labels,
                    c.enqueued,
                ));
                out.push(Sample::counter(
                    "kompics_mailbox_dropped_total",
                    labels,
                    c.dropped,
                ));
                out.push(Sample::counter(
                    "kompics_mailbox_coalesced_total",
                    labels,
                    c.coalesced,
                ));
                out.push(Sample::counter(
                    "kompics_mailbox_pushback_total",
                    labels,
                    c.pushback,
                ));
            }
            for child in core.children_snapshot() {
                walk(&child, out);
            }
        }
        for root in system.roots_snapshot() {
            walk(&root, out);
        }
    });

    // Scheduler counters (steals, parks, handoffs, migrations) plus
    // per-shard depth/traffic gauges — already maintained by the
    // scheduler; just exposed.
    let weak = Arc::downgrade(core);
    spec.registry.register_collector(move |out| {
        let Some(system) = weak.upgrade() else {
            return;
        };
        let stats = system.scheduler().stats();
        out.push(Sample::counter(
            "kompics_sched_steal_attempts",
            &[],
            stats.steal_attempts,
        ));
        out.push(Sample::counter(
            "kompics_sched_steal_successes",
            &[],
            stats.steal_successes,
        ));
        out.push(Sample::counter("kompics_sched_parks", &[], stats.parks));
        out.push(Sample::counter(
            "kompics_sched_handoffs_total",
            &[],
            stats.handoffs,
        ));
        out.push(Sample::counter(
            "kompics_sched_handoff_overflows_total",
            &[],
            stats.overflows,
        ));
        out.push(Sample::counter(
            "kompics_sched_migrations_total",
            &[],
            stats.migrations,
        ));
        for (index, shard) in system.scheduler().shard_stats().into_iter().enumerate() {
            let index = index.to_string();
            let labels = &[("shard", index.as_str())];
            out.push(Sample::gauge(
                "kompics_sched_shard_depth",
                labels,
                shard.depth as i64,
            ));
            out.push(Sample::counter(
                "kompics_sched_shard_executed_total",
                labels,
                shard.executed,
            ));
            out.push(Sample::counter(
                "kompics_sched_shard_stolen_total",
                labels,
                shard.stolen,
            ));
        }
    });
    true
}
