//! Ports: bidirectional, event-based component interfaces.
//!
//! A port is a gate through which a component communicates with its
//! environment. A *port type* specifies which event types may pass in the
//! **positive** (indication/response) and **negative** (request) directions.
//! By convention a component *provides* a port representing an abstraction it
//! implements (requests flow in, indications flow out) and *requires* a port
//! for each abstraction it uses (requests flow out, indications flow in).
//!
//! ## Implementation model
//!
//! Like the Java runtime the paper describes, every logical port is a **pair
//! of halves**: an *inside* half (in the scope of the declaring component)
//! and an *outside* half (in the scope of the parent). Triggering an event on
//! one half makes it *exit* through the pair half, where it is delivered to
//! that half's subscriptions and forwarded into that half's channels. This
//! single rule yields all the paper's composition patterns:
//!
//! * sibling wiring — channels between two components' outside halves,
//! * parents handling events of immediate children — subscriptions on a
//!   child's outside half,
//! * hierarchical pass-through — a channel from a composite's own inside half
//!   to a child's outside half.
//!
//! Each half has a *sign*: the direction of events that are delivered to
//! subscribers **at** that half. For a provided port the inside half has
//! negative sign (the owner handles requests) and the outside half positive
//! sign (the world handles indications); for a required port it is the
//! reverse.

use std::any::TypeId;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::channel::Channel;
use crate::component::{construction_frame_attach, ComponentCore, ComponentDefinition};
use crate::error::CoreError;
use crate::event::{event_as, Event, EventRef};
use crate::lifecycle::ControlPort;
use crate::mailbox::Feedback;
use crate::rcu::{RcuCell, RcuGuard};
use crate::route::{Live, Recorder, Route, Sink, Version};
use crate::types::{ChannelId, ComponentId, HandlerId, PortId};

static NEXT_PORT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_HANDLER_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_port_id() -> PortId {
    PortId(NEXT_PORT_ID.fetch_add(1, Ordering::Relaxed))
}

pub(crate) fn fresh_handler_id() -> HandlerId {
    HandlerId(NEXT_HANDLER_ID.fetch_add(1, Ordering::Relaxed))
}

/// The direction in which an event traverses a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Indications and responses; flows *out of* a provided port.
    Positive,
    /// Requests; flows *into* a provided port.
    Negative,
}

impl Direction {
    /// Returns the opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Positive => Direction::Negative,
            Direction::Negative => Direction::Positive,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Positive => write!(f, "positive"),
            Direction::Negative => write!(f, "negative"),
        }
    }
}

/// Static description of one event type admitted by a port direction,
/// including its declared ancestor chain — the data the
/// [`analyze`](crate::analyze) graph passes reason over.
#[derive(Debug, Clone)]
pub struct EventTypeInfo {
    /// The concrete event type.
    pub id: TypeId,
    /// Its type name, for diagnostics.
    pub name: &'static str,
    /// Declared proper ancestors, nearest parent first (see
    /// [`Event::ancestors`]).
    pub ancestors: Vec<(TypeId, &'static str)>,
}

impl EventTypeInfo {
    /// Whether a subscription for `subscribed` would match instances of this
    /// event type: true when `subscribed` is the type itself or a declared
    /// ancestor of it.
    pub fn matched_by(&self, subscribed: TypeId) -> bool {
        self.id == subscribed || self.ancestors.iter().any(|(id, _)| *id == subscribed)
    }
}

/// A port type: a service or protocol abstraction with an event-based
/// interface, specifying the event types allowed in each direction.
///
/// Define port types with the [`port_type!`](crate::port_type) macro. There
/// is no subtyping relationship between port types, but the direction checks
/// honour the *event* subtype chains declared with
/// [`impl_event!`](crate::impl_event).
pub trait PortType: Sized + Send + Sync + 'static {
    /// May `event` pass in the positive (indication) direction?
    fn allows_positive(event: &dyn Event) -> bool;
    /// May `event` pass in the negative (request) direction?
    fn allows_negative(event: &dyn Event) -> bool;
    /// The port type's name, for diagnostics.
    fn port_name() -> &'static str;

    /// May `event` pass in direction `dir`?
    fn allows(event: &dyn Event, dir: Direction) -> bool {
        match dir {
            Direction::Positive => Self::allows_positive(event),
            Direction::Negative => Self::allows_negative(event),
        }
    }

    /// The declared event set for direction `dir`, when statically known.
    ///
    /// `None` means "unknown" — the analyzer must not draw per-event-type
    /// conclusions for this port. The [`port_type!`](crate::port_type) macro
    /// generates `Some(...)`; only hand-written implementations fall back to
    /// the default.
    fn event_catalog(dir: Direction) -> Option<Vec<EventTypeInfo>> {
        let _ = dir;
        None
    }
}

/// Defines a [`PortType`]: a unit struct plus the positive/negative event
/// sets.
///
/// ```rust
/// use kompics_core::{impl_event, port_type};
///
/// #[derive(Debug)] pub struct ScheduleTimeout(pub u64);
/// impl_event!(ScheduleTimeout);
/// #[derive(Debug)] pub struct CancelTimeout(pub u64);
/// impl_event!(CancelTimeout);
/// #[derive(Debug)] pub struct Timeout(pub u64);
/// impl_event!(Timeout);
///
/// port_type! {
///     /// The timer abstraction.
///     pub struct Timer {
///         indication: Timeout;
///         request: ScheduleTimeout, CancelTimeout;
///     }
/// }
/// ```
#[macro_export]
macro_rules! port_type {
    ($(#[$meta:meta])* pub struct $name:ident {
        indication: $($pos:ty),* $(,)? ;
        request: $($neg:ty),* $(,)? ;
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name;

        impl $crate::port::PortType for $name {
            fn allows_positive(event: &dyn $crate::event::Event) -> bool {
                $(
                    if event.is_instance_of(::std::any::TypeId::of::<$pos>()) {
                        return true;
                    }
                )*
                let _ = event;
                false
            }
            fn allows_negative(event: &dyn $crate::event::Event) -> bool {
                $(
                    if event.is_instance_of(::std::any::TypeId::of::<$neg>()) {
                        return true;
                    }
                )*
                let _ = event;
                false
            }
            fn port_name() -> &'static str {
                ::std::stringify!($name)
            }
            fn event_catalog(
                dir: $crate::port::Direction,
            ) -> ::std::option::Option<::std::vec::Vec<$crate::port::EventTypeInfo>> {
                let mut catalog = ::std::vec::Vec::new();
                match dir {
                    $crate::port::Direction::Positive => {
                        $(
                            catalog.push($crate::port::EventTypeInfo {
                                id: ::std::any::TypeId::of::<$pos>(),
                                name: ::std::any::type_name::<$pos>(),
                                ancestors:
                                    <$pos as $crate::event::Event>::ancestors(),
                            });
                        )*
                    }
                    $crate::port::Direction::Negative => {
                        $(
                            catalog.push($crate::port::EventTypeInfo {
                                id: ::std::any::TypeId::of::<$neg>(),
                                name: ::std::any::type_name::<$neg>(),
                                ancestors:
                                    <$neg as $crate::event::Event>::ancestors(),
                            });
                        )*
                    }
                }
                ::std::option::Option::Some(catalog)
            }
        }
    };
}

/// The type-erased handler invoked for a delivered event: downcasts the
/// component definition and the event, then calls the user function.
pub(crate) type HandlerFn = Arc<dyn Fn(&mut dyn ComponentDefinition, &EventRef) + Send + Sync>;

/// One handler subscription at a port half.
pub(crate) struct Subscription {
    pub(crate) id: HandlerId,
    pub(crate) event_type: TypeId,
    pub(crate) event_type_name: &'static str,
    /// The component whose handler this is. Filled in at component creation
    /// for subscriptions made in the component constructor.
    pub(crate) subscriber: OnceLock<(ComponentId, Weak<ComponentCore>)>,
    pub(crate) handler: HandlerFn,
}

impl fmt::Debug for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .field("event_type", &self.event_type_name)
            .finish_non_exhaustive()
    }
}

/// Extracts a routing key from an event, used by keyed channel dispatch
/// (e.g. a network emulator indexing channels by destination address).
pub type KeyExtractor = Arc<dyn Fn(&dyn Event, Direction) -> Option<u64> + Send + Sync>;

/// A tap callback: observes every event that *exits* via a port half,
/// without participating in routing. Installed with [`PortRef::tap`];
/// the testing harness uses taps to record a component's event stream.
pub type TapFn = Arc<dyn Fn(Direction, &EventRef) + Send + Sync>;

#[derive(Clone)]
pub(crate) struct ChannelAttachment {
    pub(crate) id: ChannelId,
    pub(crate) key: Option<u64>,
    pub(crate) channel: Arc<Channel>,
}

/// Keyed channel selection at a half with a key extractor: which of
/// `PortInner::channels` an event with a given key is forwarded into, found
/// without looking at the others.
#[derive(Clone)]
pub(crate) struct KeyedDispatch {
    pub(crate) extractor: KeyExtractor,
    /// Positions in `channels` of the attachments without a key, ascending.
    unkeyed: Vec<usize>,
    /// Positions in `channels` of the attachments with each key, ascending.
    by_key: HashMap<u64, Vec<usize>>,
}

impl KeyedDispatch {
    fn index(&mut self, position: usize, key: Option<u64>) {
        match key {
            Some(k) => self.by_key.entry(k).or_default().push(position),
            None => self.unkeyed.push(position),
        }
    }

    fn reindex(&mut self, channels: &[ChannelAttachment]) {
        self.unkeyed.clear();
        self.by_key.clear();
        for (position, attachment) in channels.iter().enumerate() {
            self.index(position, attachment.key);
        }
    }
}

#[derive(Default, Clone)]
pub(crate) struct PortInner {
    pub(crate) subscriptions: Vec<Arc<Subscription>>,
    pub(crate) channels: Vec<ChannelAttachment>,
    /// Present once a key extractor is installed; boxed because few halves
    /// have one.
    pub(crate) keyed: Option<Box<KeyedDispatch>>,
    /// Observation taps, invoked on every dispatch through this half.
    pub(crate) taps: Vec<(HandlerId, TapFn)>,
    /// What triggering into this half comes to, per (direction, concrete
    /// event type). See [`crate::route`].
    routes: Option<Arc<[Route]>>,
}

impl PortInner {
    pub(crate) fn routes(&self) -> &[Route] {
        self.routes.as_deref().unwrap_or(&[])
    }
}

/// One half of a port pair. See the module documentation for the event-flow
/// rules.
pub struct PortCore {
    pub(crate) id: PortId,
    pub(crate) port_type: TypeId,
    pub(crate) type_name: &'static str,
    /// Sign of events delivered to subscribers at this half.
    pub(crate) sign: Direction,
    /// Whether the logical port is provided (`true`) or required.
    pub(crate) provided: bool,
    /// Whether this is the inside half (owner scope).
    pub(crate) inside: bool,
    pub(crate) allows: fn(&dyn Event, Direction) -> bool,
    /// Static event catalog per direction, for the graph analyzer.
    pub(crate) catalog: fn(Direction) -> Option<Vec<EventTypeInfo>>,
    pub(crate) owner: OnceLock<(ComponentId, Weak<ComponentCore>)>,
    pub(crate) pair: OnceLock<Weak<PortCore>>,
    /// Serializes writers: every mutation copies the current `snap`, changes
    /// the copy and publishes it under this lock. The dispatch fast path
    /// never touches it.
    pub(crate) writer: Mutex<()>,
    /// The half's wiring, read lock-free by [`PortCore::trigger_in`],
    /// [`PortCore::exit`] and [`PortCore::execute_handlers`] — the trigger
    /// fan-out fast path — and by everything else through
    /// [`PortCore::wiring`].
    snap: RcuCell<PortInner>,
    /// Bumped after every publish of `snap` that changed the wiring, and
    /// when this half or its pair dies; see [`crate::route`].
    version: Version,
}

impl Drop for PortCore {
    fn drop(&mut self) {
        // A walk stops at a dead half, but nothing publishes a death: tell
        // the routes that exit via this half, and those that enter it and
        // exit via its pair.
        self.version.bump();
        if let Some(pair) = self.pair() {
            pair.version.bump();
        }
    }
}

impl fmt::Debug for PortCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PortCore")
            .field("id", &self.id)
            .field("type", &self.type_name)
            .field("sign", &self.sign)
            .field("provided", &self.provided)
            .field("inside", &self.inside)
            .finish_non_exhaustive()
    }
}

impl PortCore {
    /// Creates the (inside, outside) pair for a logical port.
    pub(crate) fn new_pair<P: PortType>(provided: bool) -> (Arc<PortCore>, Arc<PortCore>) {
        let id = fresh_port_id();
        // Provided: owner handles requests (inside sign −), world handles
        // indications (outside sign +). Required: the reverse.
        let inside_sign = if provided {
            Direction::Negative
        } else {
            Direction::Positive
        };
        let make = |sign: Direction, inside: bool| {
            Arc::new(PortCore {
                id,
                port_type: TypeId::of::<P>(),
                type_name: P::port_name(),
                sign,
                provided,
                inside,
                allows: P::allows,
                catalog: P::event_catalog,
                owner: OnceLock::new(),
                pair: OnceLock::new(),
                writer: Mutex::new(()),
                snap: RcuCell::new(PortInner::default()),
                version: Version::new(),
            })
        };
        let inside = make(inside_sign, true);
        let outside = make(inside_sign.opposite(), false);
        inside
            .pair
            .set(Arc::downgrade(&outside))
            .expect("fresh port pair");
        outside
            .pair
            .set(Arc::downgrade(&inside))
            .expect("fresh port pair");
        (inside, outside)
    }

    /// The id shared by both halves of the pair.
    pub fn port_id(&self) -> PortId {
        self.id
    }

    /// The other half of the pair, if still alive.
    pub(crate) fn pair(&self) -> Option<Arc<PortCore>> {
        self.pair.get().and_then(Weak::upgrade)
    }

    /// The current wiring of this half.
    pub(crate) fn wiring(&self) -> RcuGuard<'_, PortInner> {
        self.snap.pin()
    }

    /// Applies a mutation to a copy of the wiring under the writer lock,
    /// publishes the copy as the snapshot the dispatch fast path reads, and
    /// announces it to the routes that exit via this half.
    /// In-flight dispatches keep their pinned (pre-mutation) snapshot; the
    /// next dispatch observes the new one — the same linearization a plain
    /// mutex would give, without readers ever blocking.
    pub(crate) fn mutate<R>(&self, f: impl FnOnce(&mut PortInner) -> R) -> R {
        let _writer = self.writer.lock();
        // The pin is dropped before the publish, which can then free the
        // snapshot it replaces.
        let mut next = PortInner::clone(&self.snap.pin());
        let out = f(&mut next);
        self.snap.publish(next);
        self.version.bump();
        out
    }

    /// Installs a key extractor used to index channels by a routing key.
    pub(crate) fn set_key_extractor(&self, extractor: KeyExtractor) {
        self.mutate(|inner| {
            let mut keyed = KeyedDispatch {
                extractor,
                unkeyed: Vec::new(),
                by_key: HashMap::new(),
            };
            keyed.reindex(&inner.channels);
            inner.keyed = Some(Box::new(keyed));
        });
    }

    /// An event *enters* this half: triggered on it by a component in this
    /// half's scope, or delivered by a channel plugged into this half. It
    /// exits through the pair half. Returns the aggregated mailbox
    /// [`Feedback`] of every component the event was delivered to — the
    /// end of the synchronous trigger→channel→mailbox chain, which is what
    /// carries back-pressure back to the producer.
    ///
    /// Hot path: one RCU pin, zero Mutex acquisitions, zero allocations —
    /// the [`Route`] resolved for this (direction, event type) is replayed
    /// while the wiring it crossed is unchanged. Otherwise the walk is
    /// resolved again, and runs live if no route can express it.
    pub(crate) fn trigger_in(
        &self,
        dir: Direction,
        event: &EventRef,
    ) -> Result<Feedback, CoreError> {
        if !(self.allows)(event.as_ref(), dir) {
            return Err(CoreError::EventNotAllowed {
                event: event.event_name(),
                port: self.type_name,
                direction: dir,
            });
        }
        let event_type = event.as_any().type_id();
        // A control port carries each life-cycle event once per component:
        // a route there would be resolved and never replayed.
        let memoise = self.port_type != TypeId::of::<ControlPort>();
        if memoise {
            let snap = self.snap.pin();
            let kept = snap.routes().iter().find(|r| r.is_for(dir, event_type));
            if let Some(route) = kept.filter(|route| route.is_current()) {
                return Ok(route.replay(dir, event));
            }
        }
        let Some(pair) = self.pair() else {
            return Ok(Feedback::default());
        };
        if memoise {
            let mut recorder = Recorder::new();
            pair.exit(dir, event, &mut recorder);
            if let Some(route) = recorder.finish(dir, event_type) {
                let feedback = route.replay(dir, event);
                self.keep_route(route);
                return Ok(feedback);
            }
        }
        Ok(pair.dispatch(dir, event))
    }

    /// [`PortCore::trigger_in`] for an event nobody else holds yet.
    pub(crate) fn trigger_new(
        &self,
        dir: Direction,
        event: impl Event,
    ) -> Result<Feedback, CoreError> {
        self.trigger_in(dir, &(Arc::new(event) as EventRef))
    }

    /// Adds `route` to the routes this half keeps. Best effort: dispatch
    /// never waits for the writer lock, and a trigger that finds it taken
    /// resolves again next time.
    fn keep_route(&self, route: Route) {
        let Some(_writer) = self.writer.try_lock() else {
            return;
        };
        let mut inner = PortInner::clone(&self.snap.pin());
        inner.routes = Some(Route::table_with(inner.routes(), route));
        // The wiring is unchanged, so the version is not bumped.
        self.snap.publish(inner);
    }

    /// An event *exits* via this half, live: deliver to this half's
    /// subscriptions (if the direction matches this half's sign) and forward
    /// into this half's channels. Returns the aggregated admission feedback
    /// of every mailbox reached (channels forward synchronously, so the
    /// whole fan-out completes before this returns).
    pub(crate) fn dispatch(self: &Arc<Self>, dir: Direction, event: &EventRef) -> Feedback {
        let mut live = Live::default();
        self.exit(dir, event, &mut live);
        live.feedback
    }

    /// The port half of the one walk described in [`crate::route`]: what an
    /// event exiting via this half comes to, handed to `sink` in order.
    pub(crate) fn exit<S: Sink>(self: &Arc<Self>, dir: Direction, event: &EventRef, sink: &mut S) {
        sink.crossing(&self.version);
        // One RCU pin, zero Mutex acquisitions, zero allocations.
        // Subscriptions/channels/taps are read from the pinned snapshot;
        // concurrent subscribe/connect/reconfig publish a fresh snapshot
        // without invalidating this one.
        let snap = self.snap.pin();
        if snap.keyed.is_some() && !snap.channels.is_empty() && sink.defer_exit(self) {
            return;
        }
        // Taps observe before subscriber work is enqueued, so a recorded
        // stream orders an event ahead of anything its handlers emit.
        for (_, tap) in &snap.taps {
            sink.tap(tap, dir, event);
        }
        if dir == self.sign {
            let subs = &snap.subscriptions;
            for (i, sub) in subs.iter().enumerate() {
                if !event.is_instance_of(sub.event_type) {
                    continue;
                }
                let Some((cid, weak)) = sub.subscriber.get() else {
                    sink.unbound();
                    continue;
                };
                // Deliver once per component even when several of its
                // handlers match: skip if an earlier matching subscription
                // already enqueued for the same component. The backward scan
                // replaces the old allocated dedup list; subscription counts
                // per half are small.
                let duplicate = subs[..i].iter().any(|prev| {
                    event.is_instance_of(prev.event_type)
                        && prev.subscriber.get().is_some_and(|(pcid, _)| pcid == cid)
                });
                if !duplicate {
                    sink.deliver(weak, self, dir, event);
                }
            }
        }
        for_each_selected_channel(&snap, event.as_ref(), dir, |channel| {
            channel.forward(self, dir, event, sink);
        });
    }

    /// Adds a subscription at this half.
    ///
    /// Returns an error if `event_type` cannot pass in this half's sign
    /// direction (checked with a probe at subscribe time is impossible for
    /// type-level sets, so the check happens per-event at trigger time; here
    /// we only record the subscription).
    pub(crate) fn subscribe_raw(&self, sub: Arc<Subscription>) {
        self.mutate(|inner| inner.subscriptions.push(sub));
    }

    /// Removes the subscription with the given id. Returns `true` if found.
    pub(crate) fn unsubscribe_raw(&self, id: HandlerId) -> bool {
        self.mutate(|inner| {
            let before = inner.subscriptions.len();
            inner.subscriptions.retain(|s| s.id != id);
            inner.subscriptions.len() != before
        })
    }

    /// Drains all subscriptions from this half (supervision moves them onto
    /// a restarted replacement).
    pub(crate) fn take_subscriptions(&self) -> Vec<Arc<Subscription>> {
        self.mutate(|inner| std::mem::take(&mut inner.subscriptions))
    }

    /// Appends subscriptions migrated from another half.
    pub(crate) fn append_subscriptions(&self, subs: Vec<Arc<Subscription>>) {
        self.mutate(|inner| inner.subscriptions.extend(subs));
    }

    pub(crate) fn attach_channel(&self, id: ChannelId, key: Option<u64>, channel: Arc<Channel>) {
        self.mutate(|inner| {
            if let Some(keyed) = &mut inner.keyed {
                keyed.index(inner.channels.len(), key);
            }
            inner.channels.push(ChannelAttachment { id, key, channel });
        });
    }

    /// Snapshot of the channels attached to this half.
    pub(crate) fn attached_channels(&self) -> Vec<Arc<Channel>> {
        let wiring = self.wiring();
        wiring.channels.iter().map(|a| a.channel.clone()).collect()
    }

    pub(crate) fn detach_channel(&self, id: ChannelId) -> bool {
        self.mutate(|inner| {
            let before = inner.channels.len();
            inner.channels.retain(|a| a.id != id);
            if let Some(keyed) = &mut inner.keyed {
                keyed.reindex(&inner.channels);
            }
            inner.channels.len() != before
        })
    }

    /// Installs an observation tap. See [`PortRef::tap`].
    pub(crate) fn add_tap(&self, id: HandlerId, tap: TapFn) {
        self.mutate(|inner| inner.taps.push((id, tap)));
    }

    /// Removes a tap. Returns whether it was present.
    pub(crate) fn remove_tap(&self, id: HandlerId) -> bool {
        self.mutate(|inner| {
            let before = inner.taps.len();
            inner.taps.retain(|(tid, _)| *tid != id);
            inner.taps.len() != before
        })
    }

    /// Runs all matching handlers of `owner_def` (belonging to component
    /// `component`) for a delivered event, in subscription order. Returns the
    /// number of handlers executed.
    ///
    /// Matching is re-evaluated at execution time so that `unsubscribe`
    /// performed by an earlier event takes effect for queued events, exactly
    /// as in the paper's reply-once example.
    pub(crate) fn execute_handlers(
        &self,
        component: ComponentId,
        owner_def: &mut dyn ComponentDefinition,
        event: &EventRef,
    ) -> usize {
        // Pin once: the snapshot current at execution time decides the
        // matching set (so unsubscribe by an earlier event takes effect),
        // and stays valid even if a handler re-subscribes mid-iteration —
        // exactly the collect-then-run semantics of the old locked version,
        // minus the lock and the allocation.
        let snap = self.snap.pin();
        let mut count = 0;
        for sub in &snap.subscriptions {
            if sub
                .subscriber
                .get()
                .is_some_and(|(cid, _)| *cid == component)
                && event.is_instance_of(sub.event_type)
            {
                (sub.handler)(owner_def, event);
                count += 1;
            }
        }
        count
    }
}

/// Invokes `f` for each channel the event should be forwarded into, in
/// attach order, honouring keyed dispatch when a key extractor is installed:
/// an event with a key skips the channels attached under another key.
fn for_each_selected_channel(
    inner: &PortInner,
    event: &dyn Event,
    dir: Direction,
    mut f: impl FnMut(&Arc<Channel>),
) {
    let selection = inner.keyed.as_ref().and_then(|keyed| {
        let key = (keyed.extractor)(event, dir)?;
        let matching = keyed.by_key.get(&key).map_or(&[][..], Vec::as_slice);
        Some((keyed.unkeyed.as_slice(), matching))
    });
    let Some((unkeyed, matching)) = selection else {
        for a in &inner.channels {
            f(&a.channel);
        }
        return;
    };
    // Merge the two ascending position lists.
    let (mut u, mut m) = (0, 0);
    loop {
        let position = match (unkeyed.get(u), matching.get(m)) {
            (Some(&a), Some(&b)) if a < b => {
                u += 1;
                a
            }
            (_, Some(&b)) => {
                m += 1;
                b
            }
            (Some(&a), None) => {
                u += 1;
                a
            }
            (None, None) => return,
        };
        f(&inner.channels[position].channel);
    }
}

/// Builds the type-erased wrapper around a typed handler function.
pub(crate) fn erase_handler<C, E, F>(f: F) -> HandlerFn
where
    C: ComponentDefinition,
    E: Event,
    F: Fn(&mut C, &E) + Send + Sync + 'static,
{
    Arc::new(move |def: &mut dyn ComponentDefinition, event: &EventRef| {
        let any_def: &mut dyn std::any::Any = def;
        let concrete = any_def
            .downcast_mut::<C>()
            .expect("handler subscribed on a component of a different type");
        let view =
            event_as::<E>(event.as_ref()).expect("event delivered to handler of incompatible type");
        f(concrete, view);
    })
}

/// Builds a wrapper for a handler that receives the *shared, type-erased*
/// event instead of a typed view — used by transports that must re-serialize
/// or re-trigger the concrete event (filtering still honours the subscribed
/// event type `E`).
pub(crate) fn erase_handler_shared<C, F>(f: F) -> HandlerFn
where
    C: ComponentDefinition,
    F: Fn(&mut C, &EventRef) + Send + Sync + 'static,
{
    Arc::new(move |def: &mut dyn ComponentDefinition, event: &EventRef| {
        let any_def: &mut dyn std::any::Any = def;
        let concrete = any_def
            .downcast_mut::<C>()
            .expect("handler subscribed on a component of a different type");
        f(concrete, event);
    })
}

/// A shareable reference to one port half, used for connecting channels,
/// triggering events from outside the owner (e.g. a parent sending lifecycle
/// requests), and subscribing parent handlers on child ports.
pub struct PortRef<P: PortType> {
    pub(crate) half: Arc<PortCore>,
    pub(crate) _marker: PhantomData<P>,
}

impl<P: PortType> Clone for PortRef<P> {
    fn clone(&self) -> Self {
        PortRef {
            half: Arc::clone(&self.half),
            _marker: PhantomData,
        }
    }
}

impl<P: PortType> fmt::Debug for PortRef<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PortRef<{}>({:?})", P::port_name(), self.half)
    }
}

impl<P: PortType> PortRef<P> {
    pub(crate) fn new(half: Arc<PortCore>) -> Self {
        PortRef {
            half,
            _marker: PhantomData,
        }
    }

    /// The id of the underlying port pair.
    pub fn port_id(&self) -> PortId {
        self.half.port_id()
    }

    /// Triggers an event *into* this half. The event travels in the
    /// direction opposite to the half's sign: triggering on the outside half
    /// of a provided port sends a request in; triggering on the inside half
    /// of a required port sends a request out.
    ///
    /// Returns the aggregated mailbox [`Feedback`] of every component the
    /// event reached. Producers that cooperate with back-pressure (the TCP
    /// read path, the timer thread, rate-limited generators) check
    /// [`Feedback::pushback`] and slow down; producers that don't care
    /// ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EventNotAllowed`] if the port type does not allow
    /// the event in that direction.
    pub fn trigger(&self, event: impl Event) -> Result<Feedback, CoreError> {
        self.trigger_shared(Arc::new(event))
    }

    /// Like [`PortRef::trigger`] but takes an already-shared event.
    pub fn trigger_shared(&self, event: EventRef) -> Result<Feedback, CoreError> {
        self.half.trigger_in(self.half.sign.opposite(), &event)
    }

    /// Installs a key extractor on this half, enabling keyed channel
    /// dispatch: channels connected with
    /// [`connect_keyed`](crate::channel::connect_keyed) whose key does not
    /// match an event's extracted key are skipped.
    pub fn set_key_extractor(&self, extractor: KeyExtractor) {
        self.half.set_key_extractor(extractor);
    }

    /// Installs an observation tap on this half: `f` is invoked, with the
    /// travel direction and the shared event, for every event that exits via
    /// this half — before the event is handed to subscribers or channels.
    ///
    /// Taps observe without altering routing: they cannot consume, reorder
    /// or mutate events, and an event with no subscribers is still seen.
    /// Tapping the *outside* half of a component's port records everything
    /// the component emits through it; tapping the *inside* half records
    /// everything the environment sends in. This is the primitive behind
    /// the `kompics-testing` event-stream harness.
    ///
    /// Returns a handle for [`PortRef::untap`]. Taps run synchronously on
    /// the triggering thread and must not trigger into the same port.
    pub fn tap(&self, f: impl Fn(Direction, &EventRef) + Send + Sync + 'static) -> HandlerId {
        let id = fresh_handler_id();
        self.half.add_tap(id, Arc::new(f));
        id
    }

    /// Removes a tap installed with [`PortRef::tap`]. Returns whether it was
    /// present.
    pub fn untap(&self, id: HandlerId) -> bool {
        self.half.remove_tap(id)
    }

    /// The other half of this port pair, if still alive.
    pub fn pair_ref(&self) -> Option<PortRef<P>> {
        self.half.pair().map(PortRef::new)
    }

    /// Whether this is the inside (owner-scope) half.
    pub fn is_inside(&self) -> bool {
        self.half.inside
    }

    /// The sign of events delivered to subscribers at this half.
    pub fn sign(&self) -> Direction {
        self.half.sign
    }

    pub(crate) fn core(&self) -> &Arc<PortCore> {
        &self.half
    }
}

/// Common implementation of the owner-facing port fields.
struct OwnedPort<P: PortType> {
    inside: Arc<PortCore>,
    outside: Arc<PortCore>,
    _marker: PhantomData<P>,
}

impl<P: PortType> OwnedPort<P> {
    fn new(provided: bool) -> Self {
        let (inside, outside) = PortCore::new_pair::<P>(provided);
        construction_frame_attach(Arc::clone(&inside), Arc::clone(&outside), provided);
        OwnedPort {
            inside,
            outside,
            _marker: PhantomData,
        }
    }

    fn trigger(&self, event: impl Event) {
        self.trigger_shared(Arc::new(event));
    }

    fn trigger_shared(&self, event: EventRef) {
        let dir = self.inside.sign.opposite();
        if let Err(err) = self.inside.trigger_in(dir, &event) {
            // A disallowed event type is a programming error, mirroring the
            // Java runtime exception; inside a handler this panics into the
            // fault-handling machinery.
            panic!("{err}");
        }
    }

    fn subscribe<C, E, F>(&self, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        F: Fn(&mut C, &E) + Send + Sync + 'static,
    {
        let id = fresh_handler_id();
        let sub = Arc::new(Subscription {
            id,
            event_type: TypeId::of::<E>(),
            event_type_name: std::any::type_name::<E>(),
            subscriber: OnceLock::new(),
            handler: erase_handler(f),
        });
        self.inside.subscribe_raw(sub);
        id
    }

    fn subscribe_shared<C, E, F>(&self, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        F: Fn(&mut C, &EventRef) + Send + Sync + 'static,
    {
        let id = fresh_handler_id();
        let sub = Arc::new(Subscription {
            id,
            event_type: TypeId::of::<E>(),
            event_type_name: std::any::type_name::<E>(),
            subscriber: OnceLock::new(),
            handler: erase_handler_shared(f),
        });
        self.inside.subscribe_raw(sub);
        id
    }

    fn unsubscribe(&self, id: HandlerId) -> bool {
        self.inside.unsubscribe_raw(id)
    }
}

impl<P: PortType> fmt::Debug for OwnedPort<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Port<{}>({})", P::port_name(), self.inside.id)
    }
}

/// A **provided** port field: declare one in a component definition for each
/// abstraction the component implements.
///
/// Construct it with [`ProvidedPort::new`] *inside the component's
/// constructor closure* passed to
/// [`KompicsSystem::create`](crate::system::KompicsSystem::create) or
/// [`ComponentContext::create`](crate::component::ComponentContext::create);
/// the runtime registers it with the component under construction.
pub struct ProvidedPort<P: PortType> {
    port: OwnedPort<P>,
}

impl<P: PortType> ProvidedPort<P> {
    /// Creates (and registers with the component under construction) a
    /// provided port.
    ///
    /// # Panics
    ///
    /// Panics if called outside a component constructor closure.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        ProvidedPort {
            port: OwnedPort::new(true),
        }
    }

    /// Triggers an indication (positive) event out through this port.
    ///
    /// # Panics
    ///
    /// Panics if the port type does not allow the event in the positive
    /// direction — a programming error, which inside a handler becomes a
    /// component [`Fault`](crate::fault::Fault).
    pub fn trigger(&self, event: impl Event) {
        self.port.trigger(event);
    }

    /// Like [`ProvidedPort::trigger`] with an already-shared event.
    pub fn trigger_shared(&self, event: EventRef) {
        self.port.trigger_shared(event);
    }

    /// Subscribes a handler for request events arriving at this port. The
    /// handler belongs to the declaring component `C`.
    pub fn subscribe<C, E, F>(&self, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        F: Fn(&mut C, &E) + Send + Sync + 'static,
    {
        self.port.subscribe(f)
    }

    /// Like [`ProvidedPort::subscribe`] but the handler receives the shared,
    /// type-erased event (still filtered to `E` instances) — for transports
    /// that re-serialize or re-trigger the concrete event.
    pub fn subscribe_shared<C, E, F>(&self, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        F: Fn(&mut C, &EventRef) + Send + Sync + 'static,
    {
        self.port.subscribe_shared::<C, E, F>(f)
    }

    /// Removes a subscription made with [`ProvidedPort::subscribe`].
    /// Returns `true` if the handler was subscribed.
    pub fn unsubscribe(&self, id: HandlerId) -> bool {
        self.port.unsubscribe(id)
    }

    /// The outside half, for wiring by the parent.
    pub fn share(&self) -> PortRef<P> {
        PortRef::new(Arc::clone(&self.port.outside))
    }

    /// The inside half, for hierarchical pass-through: connect a composite's
    /// own provided port (inside) to a child's provided port (outside).
    pub fn inside_ref(&self) -> PortRef<P> {
        PortRef::new(Arc::clone(&self.port.inside))
    }
}

impl<P: PortType> fmt::Debug for ProvidedPort<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Provided{:?}", self.port)
    }
}

/// A **required** port field: declare one in a component definition for each
/// lower-level abstraction the component uses.
///
/// See [`ProvidedPort`] for construction rules.
pub struct RequiredPort<P: PortType> {
    port: OwnedPort<P>,
}

impl<P: PortType> RequiredPort<P> {
    /// Creates (and registers with the component under construction) a
    /// required port.
    ///
    /// # Panics
    ///
    /// Panics if called outside a component constructor closure.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        RequiredPort {
            port: OwnedPort::new(false),
        }
    }

    /// Triggers a request (negative) event out through this port.
    ///
    /// # Panics
    ///
    /// Panics if the port type does not allow the event in the negative
    /// direction (see [`ProvidedPort::trigger`]).
    pub fn trigger(&self, event: impl Event) {
        self.port.trigger(event);
    }

    /// Like [`RequiredPort::trigger`] with an already-shared event.
    pub fn trigger_shared(&self, event: EventRef) {
        self.port.trigger_shared(event);
    }

    /// Subscribes a handler for indication events arriving at this port.
    pub fn subscribe<C, E, F>(&self, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        F: Fn(&mut C, &E) + Send + Sync + 'static,
    {
        self.port.subscribe(f)
    }

    /// Like [`RequiredPort::subscribe`] but the handler receives the shared,
    /// type-erased event (still filtered to `E` instances).
    pub fn subscribe_shared<C, E, F>(&self, f: F) -> HandlerId
    where
        C: ComponentDefinition,
        E: Event,
        F: Fn(&mut C, &EventRef) + Send + Sync + 'static,
    {
        self.port.subscribe_shared::<C, E, F>(f)
    }

    /// Removes a subscription made with [`RequiredPort::subscribe`].
    /// Returns `true` if the handler was subscribed.
    pub fn unsubscribe(&self, id: HandlerId) -> bool {
        self.port.unsubscribe(id)
    }

    /// The outside half, for wiring by the parent.
    pub fn share(&self) -> PortRef<P> {
        PortRef::new(Arc::clone(&self.port.outside))
    }

    /// The inside half, for hierarchical pass-through of required ports.
    pub fn inside_ref(&self) -> PortRef<P> {
        PortRef::new(Arc::clone(&self.port.inside))
    }
}

impl<P: PortType> fmt::Debug for RequiredPort<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Required{:?}", self.port)
    }
}
