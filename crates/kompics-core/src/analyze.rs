//! Pre-execution analysis of the assembled component graph.
//!
//! Port/channel compatibility and reconfiguration safety are runtime
//! properties in the paper's Java runtime: a mis-wired assembly is only
//! discovered when an event has nowhere to go. Following the
//! model-checking-before-execution discipline of the reconfigurable-
//! component literature, this module walks the **live** component / port /
//! channel / supervision graph — as assembled, before `Start` — and reports
//! structural problems as [`Finding`]s:
//!
//! * **Dangling required ports** — a component requires an abstraction but
//!   nothing is wired to serve it: requests would exit into the void.
//! * **Dead events** — an event type a port can deliver at a half where
//!   handlers are subscribed, but which no subscription matches and no
//!   channel forwards onward. Sound only where the port's
//!   [event catalog](crate::port::PortType::event_catalog) is statically
//!   known *and* every subscription at the half is recognizable against it;
//!   undeclared-subtype subscriptions make the pass skip the half rather
//!   than guess.
//! * **Duplicate subscriptions / duplicate channels** — the same
//!   (component, event type) subscribed twice at one half, or two
//!   unfiltered same-key channels joining the same two halves: both deliver
//!   every event twice.
//! * **Held channels** — a channel still on `hold` at analysis time buffers
//!   events forever unless a `resume` is reachable; structural
//!   hold/resume balance of scripted reconfigurations is checked by
//!   [`ReconfigPlan::validate`](crate::reconfig::ReconfigPlan::validate).
//! * **Escalation cycles** — supervision edges that loop (a supervisor
//!   supervising itself, an ancestor of itself, or a ring of supervisors):
//!   a fault entering the loop would bounce between supervisors instead of
//!   reaching the system fault policy.
//!
//! Entry point: [`KompicsSystem::analyze`](crate::system::KompicsSystem::analyze).
//! The simulation crate runs the error-severity subset as a debug assertion
//! when starting components, so a mis-assembled experiment fails fast and
//! deterministically.

use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::channel::Channel;
use crate::component::ComponentCore;
use crate::lifecycle::ControlPort;
use crate::port::PortCore;
use crate::supervision::Supervisor;
use crate::system::SystemCore;
use crate::types::{ChannelId, ComponentId};

/// How severe a finding is.
///
/// [`Error`](Severity::Error) findings describe assemblies that will
/// misbehave (lost or duplicated events, unreachable faults); the
/// simulation crate's start-time debug assertion fails on them.
/// [`Warning`](Severity::Warning) findings are suspicious but may be
/// intentional (e.g. a channel deliberately held across a reconfiguration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious; review recommended.
    Warning,
    /// The assembly will misbehave at runtime.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// What the analyzer found. See the [module docs](self) for pass semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// A required port with no channel on either half and no external
    /// subscription: requests triggered on it go nowhere.
    DanglingRequiredPort {
        /// The component declaring the port.
        component: ComponentId,
        /// Its name.
        component_name: String,
        /// The port type's name.
        port: &'static str,
    },
    /// A deliverable event type that no subscription at the half matches
    /// and no channel forwards.
    DeadEvent {
        /// The component owning the port half.
        component: ComponentId,
        /// Its name.
        component_name: String,
        /// The port type's name.
        port: &'static str,
        /// The unreachable event type's name.
        event: &'static str,
    },
    /// The same (component, event type) subscribed more than once at one
    /// half — matching handlers all execute, so events are processed
    /// multiple times.
    DuplicateSubscription {
        /// The subscribing component.
        component: ComponentId,
        /// Its name.
        component_name: String,
        /// The port type's name.
        port: &'static str,
        /// The subscribed event type's name.
        event: &'static str,
        /// How many identical subscriptions exist.
        count: usize,
    },
    /// Two unfiltered channels with the same key joining the same two port
    /// halves: every event crossing them is delivered twice.
    DuplicateChannel {
        /// The port type's name.
        port: &'static str,
        /// The first (lower-id) duplicate.
        left: ChannelId,
        /// The second duplicate.
        right: ChannelId,
    },
    /// A channel on `hold` at analysis time; unless a `resume` is reachable
    /// it buffers events forever.
    HeldChannel {
        /// The held channel.
        channel: ChannelId,
        /// Events already buffered on it.
        queued: usize,
    },
    /// A reconfiguration plan holds a channel and never resumes it.
    HoldWithoutResume {
        /// The channel held without a later resume.
        channel: ChannelId,
    },
    /// A reconfiguration plan resumes a channel it never held.
    ResumeWithoutHold {
        /// The channel resumed without a prior hold.
        channel: ChannelId,
    },
    /// Supervision edges form a loop; the names walk the cycle, first
    /// element repeated at the end.
    EscalationCycle {
        /// Component names along the cycle.
        path: Vec<String>,
    },
    /// A provided port that the outside world can reach (channels or
    /// external subscriptions at the outside half) but whose inside half
    /// has no handler for *any* of its request events and no channel
    /// forwarding them onward: every request is silently dropped.
    DeadHandler {
        /// The component declaring the port.
        component: ComponentId,
        /// Its name.
        component_name: String,
        /// The port type's name.
        port: &'static str,
        /// The request (negative) event types that have nowhere to go.
        events: Vec<&'static str>,
    },
    /// A choreography that is not a well-formed global protocol (self
    /// message, unbound recursion variable, unguarded loop, malformed
    /// choice, …). Reported by the `kompics-choreo` checker.
    ProtocolMalformed {
        /// The choreography's name.
        choreography: String,
        /// What is wrong with it.
        detail: String,
    },
    /// Projection is unsound for a role: at some local state the role
    /// cannot tell which protocol branch it is in (same label from two
    /// branches with diverging continuations, receives from different
    /// senders at one choice, or a state mixing sends and receives).
    ProtocolAmbiguousChoice {
        /// The choreography's name.
        choreography: String,
        /// The role whose projection is ambiguous.
        role: String,
        /// The offending state, rendered.
        detail: String,
    },
    /// The product of the projected role automata reaches a state where no
    /// role can move and at least one role is not finished: the protocol
    /// can deadlock.
    ProtocolStuck {
        /// The choreography's name.
        choreography: String,
        /// What each unfinished role is waiting for.
        waiting: Vec<String>,
        /// A shortest event trace reaching the stuck state.
        trace: Vec<String>,
    },
    /// The protocol can terminate with a message still in flight that its
    /// destination will never consume.
    ProtocolOrphanMessage {
        /// The choreography's name.
        choreography: String,
        /// The sending role instance.
        from: String,
        /// The receiving role instance.
        to: String,
        /// The orphaned payload event type.
        event: String,
    },
    /// The choreography requires a role to receive an event its bound
    /// component never subscribes a handler for.
    ProtocolUnhandledMessage {
        /// The choreography's name.
        choreography: String,
        /// The role that must receive the event.
        role: String,
        /// The component bound to the role.
        component: String,
        /// The unhandled payload event type.
        event: String,
    },
    /// A role is absent from some branches of a choice: locally it cannot
    /// distinguish "the other branch was taken" from "the message is still
    /// coming", so it may wait on a branch that never arrives.
    ProtocolNonExhaustiveChoice {
        /// The choreography's name.
        choreography: String,
        /// The role that cannot locally decide.
        role: String,
        /// The offending state, rendered.
        detail: String,
    },
}

impl FindingKind {
    /// A stable kebab-case identifier for the finding's rule, used by the
    /// JSON report format and the fixture corpora.
    pub fn name(&self) -> &'static str {
        match self {
            FindingKind::DanglingRequiredPort { .. } => "dangling-required-port",
            FindingKind::DeadEvent { .. } => "dead-event",
            FindingKind::DuplicateSubscription { .. } => "duplicate-subscription",
            FindingKind::DuplicateChannel { .. } => "duplicate-channel",
            FindingKind::HeldChannel { .. } => "held-channel",
            FindingKind::HoldWithoutResume { .. } => "hold-without-resume",
            FindingKind::ResumeWithoutHold { .. } => "resume-without-hold",
            FindingKind::EscalationCycle { .. } => "escalation-cycle",
            FindingKind::DeadHandler { .. } => "dead-handler",
            FindingKind::ProtocolMalformed { .. } => "protocol-malformed",
            FindingKind::ProtocolAmbiguousChoice { .. } => "protocol-ambiguous-choice",
            FindingKind::ProtocolStuck { .. } => "protocol-stuck",
            FindingKind::ProtocolOrphanMessage { .. } => "protocol-orphan-message",
            FindingKind::ProtocolUnhandledMessage { .. } => "protocol-unhandled-message",
            FindingKind::ProtocolNonExhaustiveChoice { .. } => "protocol-non-exhaustive-choice",
        }
    }
}

/// One problem found in the assembled graph (or a reconfiguration plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How severe it is.
    pub severity: Severity,
    /// What was found.
    pub kind: FindingKind,
}

impl Finding {
    /// An error-severity finding (public so external checkers — the
    /// `kompics-choreo` protocol passes — report through the same type).
    pub fn error(kind: FindingKind) -> Finding {
        Finding {
            severity: Severity::Error,
            kind,
        }
    }

    /// A warning-severity finding.
    pub fn warning(kind: FindingKind) -> Finding {
        Finding {
            severity: Severity::Warning,
            kind,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: ", self.severity, self.kind.name())?;
        match &self.kind {
            FindingKind::DanglingRequiredPort {
                component,
                component_name,
                port,
            } => write!(
                f,
                "`{component_name}` ({component}) requires port `{port}` but nothing is \
                 connected to it; requests triggered on it are lost"
            ),
            FindingKind::DeadEvent {
                component,
                component_name,
                port,
                event,
            } => write!(
                f,
                "event `{event}` deliverable at `{component_name}` ({component}) port \
                 `{port}` matches no subscription and no channel forwards it"
            ),
            FindingKind::DuplicateSubscription {
                component,
                component_name,
                port,
                event,
                count,
            } => write!(
                f,
                "`{component_name}` ({component}) subscribes `{event}` {count} times at \
                 one `{port}` half; each event executes every matching handler"
            ),
            FindingKind::DuplicateChannel { port, left, right } => write!(
                f,
                "channels {left} and {right} both join the same two `{port}` halves; \
                 every event crossing them is delivered twice"
            ),
            FindingKind::HeldChannel { channel, queued } => write!(
                f,
                "channel {channel} is held ({queued} events buffered); without a \
                 reachable resume it buffers forever"
            ),
            FindingKind::HoldWithoutResume { channel } => write!(
                f,
                "reconfiguration plan holds channel {channel} but never resumes it"
            ),
            FindingKind::ResumeWithoutHold { channel } => write!(
                f,
                "reconfiguration plan resumes channel {channel} it never held"
            ),
            FindingKind::EscalationCycle { path } => {
                write!(f, "supervision escalation cycle: {}", path.join(" -> "))
            }
            FindingKind::DeadHandler {
                component,
                component_name,
                port,
                events,
            } => write!(
                f,
                "`{component_name}` ({component}) provides reachable port `{port}` but \
                 handles none of its request events ({}); every request is silently \
                 dropped",
                events.join(", ")
            ),
            FindingKind::ProtocolMalformed {
                choreography,
                detail,
            } => write!(f, "choreography `{choreography}` is malformed: {detail}"),
            FindingKind::ProtocolAmbiguousChoice {
                choreography,
                role,
                detail,
            } => write!(
                f,
                "choreography `{choreography}`: projection onto role `{role}` is \
                 ambiguous — {detail}"
            ),
            FindingKind::ProtocolStuck {
                choreography,
                waiting,
                trace,
            } => {
                write!(
                    f,
                    "choreography `{choreography}` can get stuck: {}",
                    waiting.join("; ")
                )?;
                if !trace.is_empty() {
                    write!(f, " [trace: {}]", trace.join(" -> "))?;
                }
                Ok(())
            }
            FindingKind::ProtocolOrphanMessage {
                choreography,
                from,
                to,
                event,
            } => write!(
                f,
                "choreography `{choreography}` can terminate with `{event}` from \
                 `{from}` still undelivered at `{to}`"
            ),
            FindingKind::ProtocolUnhandledMessage {
                choreography,
                role,
                component,
                event,
            } => write!(
                f,
                "choreography `{choreography}`: role `{role}` must receive `{event}` \
                 but its bound component `{component}` subscribes no handler for it"
            ),
            FindingKind::ProtocolNonExhaustiveChoice {
                choreography,
                role,
                detail,
            } => write!(
                f,
                "choreography `{choreography}`: role `{role}` does not participate in \
                 every branch of a choice — {detail}"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared report path
// ---------------------------------------------------------------------------

/// A merged, severity-sorted collection of [`Finding`]s with one text and
/// one JSON rendering — the single report path shared by the graph analyzer
/// ([`KompicsSystem::analyze`](crate::system::KompicsSystem::analyze) /
/// `Simulation::analyze_report`) and the `kompics-choreo` protocol checker,
/// so CI prints one summary instead of two formats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    findings: Vec<Finding>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Wraps existing findings.
    pub fn from_findings(findings: Vec<Finding>) -> Report {
        Report { findings }
    }

    /// Adds one finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Absorbs another report.
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
    }

    /// All findings, errors first (insertion order within a severity).
    pub fn sorted(&self) -> Vec<&Finding> {
        let mut out: Vec<&Finding> = self.findings.iter().collect();
        out.sort_by_key(|f| std::cmp::Reverse(f.severity));
        out
    }

    /// The findings in insertion order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// True when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The human-readable rendering: one line per finding, errors first,
    /// then a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for finding in self.sorted() {
            out.push_str(&finding.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "analysis: {} error(s), {} warning(s)\n",
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// The machine-readable rendering (stable across runs: severity-sorted,
    /// insertion order within a severity).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"errors\":");
        out.push_str(&self.errors().to_string());
        out.push_str(",\"warnings\":");
        out.push_str(&self.warnings().to_string());
        out.push_str(",\"findings\":[");
        for (i, finding) in self.sorted().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"severity\":{},\"rule\":{},\"message\":{}}}",
                json_str(&finding.severity.to_string()),
                json_str(finding.kind.name()),
                json_str(&finding.to_string())
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Protocol surface extraction
// ---------------------------------------------------------------------------

/// The event types a live component actually handles, extracted from its
/// assembled port graph — what the `kompics-choreo` checker binds protocol
/// roles against. Names are unqualified type names (`ReadQueryMsg`, not the
/// full path), matching choreography label declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSurface {
    /// The component's instance name.
    pub component: String,
    /// Unqualified names of every event type the component subscribes a
    /// handler for, on any of its non-control ports (inside halves only:
    /// the component's own handlers, not its parent's).
    pub handled: std::collections::BTreeSet<String>,
}

pub(crate) fn surface_of(core: &Arc<ComponentCore>) -> ComponentSurface {
    let mut handled = std::collections::BTreeSet::new();
    let records: Vec<Arc<PortCore>> = {
        let guard = core.ports.lock();
        guard.iter().map(|r| Arc::clone(&r.inside)).collect()
    };
    for inside in records {
        let inner = inside.wiring();
        for sub in &inner.subscriptions {
            handled.insert(short_name(sub.event_type_name).to_string());
        }
    }
    ComponentSurface {
        component: core.name().to_string(),
        handled,
    }
}

fn short_name(full: &str) -> &str {
    full.rsplit("::").next().unwrap_or(full)
}

/// Runs every pass over the live graph reachable from the system roots.
pub(crate) fn analyze_system(system: &Arc<SystemCore>) -> Vec<Finding> {
    let mut components = Vec::new();
    for root in system.roots_snapshot() {
        collect_components(&root, &mut components);
    }
    analyze_components(&components)
}

fn collect_components(core: &Arc<ComponentCore>, out: &mut Vec<Arc<ComponentCore>>) {
    out.push(Arc::clone(core));
    for child in core.children_snapshot() {
        collect_components(&child, out);
    }
}

fn analyze_components(components: &[Arc<ComponentCore>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Channels keyed by id so each is examined once even though both of its
    // ends list it; a BTreeMap keeps the report order deterministic.
    let mut channels: BTreeMap<ChannelId, Arc<Channel>> = BTreeMap::new();

    for comp in components {
        let records: Vec<(bool, Arc<PortCore>, Arc<PortCore>)> = {
            let guard = comp.ports.lock();
            guard
                .iter()
                .map(|r| (r.provided, Arc::clone(&r.inside), Arc::clone(&r.outside)))
                .collect()
        };
        for (provided, inside, outside) in &records {
            if !provided && required_port_is_dangling(inside, outside) {
                findings.push(Finding::error(FindingKind::DanglingRequiredPort {
                    component: comp.id(),
                    component_name: comp.name().to_string(),
                    port: outside.type_name,
                }));
            }
            if *provided {
                dead_handler_at(comp, inside, outside, &mut findings);
            }
            for half in [inside, outside] {
                for channel in half.attached_channels() {
                    channels.entry(channel.channel_id()).or_insert(channel);
                }
                dead_events_at(comp, half, &mut findings);
                duplicate_subscriptions_at(half, &mut findings);
            }
        }
    }

    duplicate_channels(&channels, &mut findings);
    for (id, channel) in &channels {
        let (held, queued) = channel.held_info();
        if held {
            findings.push(Finding::warning(FindingKind::HeldChannel {
                channel: *id,
                queued,
            }));
        }
    }
    escalation_cycles(components, &mut findings);
    findings
}

/// A required port is dangling when no channel is attached to either half
/// and nobody subscribed handlers at its outside half (a parent can consume
/// a child's requests directly).
fn required_port_is_dangling(inside: &Arc<PortCore>, outside: &Arc<PortCore>) -> bool {
    let outside_inner = outside.wiring();
    if !outside_inner.channels.is_empty() || !outside_inner.subscriptions.is_empty() {
        return false;
    }
    drop(outside_inner);
    inside.wiring().channels.is_empty()
}

/// Flags a provided port that the outside world can reach (channels or
/// subscriptions at the outside half) while the inside half handles nothing
/// at all — no subscriptions and no channel forwarding into a child. The
/// per-event case (some requests handled, others not) is covered by
/// [`dead_events_at`]; this pass catches the all-dead provider, where every
/// request vanishes. Requires a known, non-empty request catalog so a pure
/// indication-only port (empty `request:` set) is not a finding.
fn dead_handler_at(
    comp: &Arc<ComponentCore>,
    inside: &Arc<PortCore>,
    outside: &Arc<PortCore>,
    findings: &mut Vec<Finding>,
) {
    if inside.port_type == TypeId::of::<ControlPort>() {
        return;
    }
    let Some(catalog) = (inside.catalog)(inside.sign) else {
        return;
    };
    if catalog.is_empty() {
        return;
    }
    {
        let inner = inside.wiring();
        if !inner.subscriptions.is_empty() || !inner.channels.is_empty() {
            return;
        }
    }
    let reachable = {
        let outer = outside.wiring();
        !outer.subscriptions.is_empty() || !outer.channels.is_empty()
    };
    if !reachable {
        return;
    }
    findings.push(Finding::error(FindingKind::DeadHandler {
        component: comp.id(),
        component_name: comp.name().to_string(),
        port: inside.type_name,
        events: catalog.iter().map(|e| e.name).collect(),
    }));
}

/// Flags catalog event types with no matching subscription at a half that
/// has handlers but no onward channels. Bails out (reports nothing) when the
/// catalog is unknown or any subscription is unrecognized against it —
/// an undeclared subtype subscription would make every conclusion unsound.
fn dead_events_at(comp: &Arc<ComponentCore>, half: &Arc<PortCore>, findings: &mut Vec<Finding>) {
    if half.port_type == TypeId::of::<ControlPort>() {
        return;
    }
    let Some(catalog) = (half.catalog)(half.sign) else {
        return;
    };
    let inner = half.wiring();
    if !inner.channels.is_empty() || inner.subscriptions.is_empty() {
        return;
    }
    let recognized = inner
        .subscriptions
        .iter()
        .all(|s| catalog.iter().any(|c| c.matched_by(s.event_type)));
    if !recognized {
        return;
    }
    for entry in &catalog {
        let reachable = inner
            .subscriptions
            .iter()
            .any(|s| entry.matched_by(s.event_type));
        if !reachable {
            findings.push(Finding::warning(FindingKind::DeadEvent {
                component: comp.id(),
                component_name: comp.name().to_string(),
                port: half.type_name,
                event: entry.name,
            }));
        }
    }
}

/// Flags identical (component, event type) subscriptions at one half. The
/// control port is exempt: the runtime itself installs always-on life-cycle
/// subscriptions there alongside any user `subscribe_control` handlers.
fn duplicate_subscriptions_at(half: &Arc<PortCore>, findings: &mut Vec<Finding>) {
    if half.port_type == TypeId::of::<ControlPort>() {
        return;
    }
    let inner = half.wiring();
    let mut counts: BTreeMap<(ComponentId, &'static str), (usize, TypeId, String)> =
        BTreeMap::new();
    for sub in &inner.subscriptions {
        let Some((cid, weak)) = sub.subscriber.get() else {
            continue;
        };
        let Some(core) = weak.upgrade() else { continue };
        let entry = counts.entry((*cid, sub.event_type_name)).or_insert((
            0,
            sub.event_type,
            core.name().to_string(),
        ));
        if entry.1 == sub.event_type {
            entry.0 += 1;
        }
    }
    for ((cid, event), (count, _, name)) in counts {
        if count > 1 {
            findings.push(Finding::error(FindingKind::DuplicateSubscription {
                component: cid,
                component_name: name,
                port: half.type_name,
                event,
                count,
            }));
        }
    }
}

/// Channels keyed by (positive half, negative half, filter key) identity.
type ChannelGroups = HashMap<(usize, usize, Option<u64>), Vec<(ChannelId, &'static str)>>;

/// Flags pairs of unfiltered same-key channels joining the same two halves.
fn duplicate_channels(channels: &BTreeMap<ChannelId, Arc<Channel>>, findings: &mut Vec<Finding>) {
    let mut groups: ChannelGroups = HashMap::new();
    for (id, channel) in channels {
        if !channel.is_unfiltered() {
            continue;
        }
        let [a, b] = channel.end_halves();
        let (Some(a), Some(b)) = (a, b) else { continue };
        groups
            .entry((
                Arc::as_ptr(&a) as usize,
                Arc::as_ptr(&b) as usize,
                channel.key(),
            ))
            .or_default()
            .push((*id, channel.type_name()));
    }
    let mut duplicates: Vec<Finding> = Vec::new();
    for group in groups.values() {
        if group.len() > 1 {
            // Channel ids within a group arrive sorted (BTreeMap iteration).
            duplicates.push(Finding::error(FindingKind::DuplicateChannel {
                port: group[0].1,
                left: group[0].0,
                right: group[1].0,
            }));
        }
    }
    duplicates.sort_by_key(|f| match &f.kind {
        FindingKind::DuplicateChannel { left, .. } => *left,
        _ => ChannelId(u64::MAX),
    });
    findings.extend(duplicates);
}

/// Detects loops in the supervision graph. An edge runs from supervisor `S`
/// to supervisor `T` when `S` supervises a component whose subtree
/// (including itself) contains `T`; a self-edge therefore also covers `S`
/// supervising itself or one of its own ancestors.
fn escalation_cycles(components: &[Arc<ComponentCore>], findings: &mut Vec<Finding>) {
    let mut edges: BTreeMap<ComponentId, Vec<ComponentId>> = BTreeMap::new();
    let mut names: HashMap<ComponentId, String> = HashMap::new();

    for comp in components {
        let Some(children) = supervised_cores(comp) else {
            continue;
        };
        names.insert(comp.id(), comp.name().to_string());
        let targets = edges.entry(comp.id()).or_default();
        for child in children {
            let mut subtree_supervisors = Vec::new();
            collect_supervisors(&child, &mut subtree_supervisors);
            for sup in subtree_supervisors {
                names
                    .entry(sup.id())
                    .or_insert_with(|| sup.name().to_string());
                if !targets.contains(&sup.id()) {
                    targets.push(sup.id());
                }
            }
        }
        targets.sort();
    }

    // Iterative-friendly DFS with colors; each cycle is reported once, from
    // its smallest-id entry node thanks to the ordered outer iteration.
    let mut done: HashSet<ComponentId> = HashSet::new();
    let node_ids: Vec<ComponentId> = edges.keys().copied().collect();
    for start in node_ids {
        if done.contains(&start) {
            continue;
        }
        let mut stack: Vec<ComponentId> = Vec::new();
        let mut on_stack: HashSet<ComponentId> = HashSet::new();
        dfs_cycle(
            start,
            &edges,
            &mut stack,
            &mut on_stack,
            &mut done,
            &names,
            findings,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs_cycle(
    node: ComponentId,
    edges: &BTreeMap<ComponentId, Vec<ComponentId>>,
    stack: &mut Vec<ComponentId>,
    on_stack: &mut HashSet<ComponentId>,
    done: &mut HashSet<ComponentId>,
    names: &HashMap<ComponentId, String>,
    findings: &mut Vec<Finding>,
) {
    stack.push(node);
    on_stack.insert(node);
    for next in edges.get(&node).map(Vec::as_slice).unwrap_or(&[]) {
        if on_stack.contains(next) {
            let from = stack.iter().position(|id| id == next).unwrap_or(0);
            let mut path: Vec<String> = stack[from..]
                .iter()
                .map(|id| names.get(id).cloned().unwrap_or_else(|| id.to_string()))
                .collect();
            path.push(names.get(next).cloned().unwrap_or_else(|| next.to_string()));
            findings.push(Finding::error(FindingKind::EscalationCycle { path }));
        } else if !done.contains(next) {
            dfs_cycle(*next, edges, stack, on_stack, done, names, findings);
        }
    }
    on_stack.remove(&node);
    stack.pop();
    done.insert(node);
}

/// The current instances supervised by `comp`, if its definition is a
/// [`Supervisor`].
fn supervised_cores(comp: &Arc<ComponentCore>) -> Option<Vec<Arc<ComponentCore>>> {
    let guard = comp.definition.lock();
    let def = guard.as_ref()?;
    let sup = (def.as_ref() as &dyn Any).downcast_ref::<Supervisor>()?;
    Some(
        sup.supervised_children()
            .iter()
            .map(|r| Arc::clone(r.core()))
            .collect(),
    )
}

fn collect_supervisors(core: &Arc<ComponentCore>, out: &mut Vec<Arc<ComponentCore>>) {
    let is_sup = core
        .definition
        .lock()
        .as_ref()
        .is_some_and(|d| (d.as_ref() as &dyn Any).is::<Supervisor>());
    if is_sup {
        out.push(Arc::clone(core));
    }
    for child in core.children_snapshot() {
        collect_supervisors(&child, out);
    }
}
