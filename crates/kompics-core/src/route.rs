//! Resolved routes: a trigger's fan-out, worked out once per wiring.
//!
//! Triggering an event walks port pairs and channels until it reaches the
//! mailboxes of the subscribed components (see [`crate::port`]). What that
//! walk finds depends on the wiring — subscriptions, taps, attached
//! channels, plugged ends, held flags — and on the event's concrete type,
//! but not on the event's content, except at two kinds of hop: a half with
//! a [key extractor](crate::port::PortRef::set_key_extractor) and a channel
//! with a [selector](crate::channel::connect_with_selector). Wiring changes
//! at assembly and reconfiguration time only, so the half an event *enters*
//! keeps, per (direction, concrete event type), the flat list of [`Step`]s
//! the walk came to — a [`Route`] — and replays it for every later event of
//! that type for as long as the wiring it crossed is unchanged.
//!
//! There is one walk ([`PortCore::exit`] and [`Channel::forward`]) with two
//! [`Sink`]s: [`Live`] acts on what the walk finds, [`Recorder`] writes it
//! down. Subscription matching, per-component de-duplication and channel
//! selection therefore exist once.
//!
//! ## Validity is local
//!
//! Every half and every channel carries a [`Version`]. Its writer bumps it
//! *after* publishing the RCU snapshot the bump announces
//! ([`PortCore::mutate`], `Channel::mutate_state`); the recorder reads it
//! *before* pinning the snapshot it resolves from. All four operations are
//! `SeqCst`, so a recorder that read the bumped value also pins the
//! published snapshot (or a later one), and a route whose recorded values
//! all still equal the cells' describes snapshots no completed mutation has
//! replaced. A mutation still between its publish and its bump is
//! concurrent with the trigger and may linearize after it, exactly as for a
//! walk that pinned the old snapshot. A route that crossed a held channel
//! or met a subscription whose subscriber is not bound yet is not kept at
//! all: that trigger walks live, so hold → buffer → resume is untouched.
//!
//! Routes hold only weak references (and version cells): a route that kept
//! a half or a channel alive would close a cycle through the halves that
//! store routes to each other and leak whole component trees.

use std::any::TypeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::channel::Channel;
use crate::component::{ComponentCore, WorkItem};
use crate::event::EventRef;
use crate::mailbox::Feedback;
use crate::port::{Direction, PortCore, TapFn};

/// The mutation counter of one half or one channel. See the module
/// documentation for the ordering rule.
pub(crate) struct Version(Arc<AtomicU64>);

impl Version {
    pub(crate) fn new() -> Version {
        Version(Arc::new(AtomicU64::new(0)))
    }

    /// Announces a mutation. Call after publishing the snapshot it made.
    pub(crate) fn bump(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A version cell and the value a route was resolved under.
#[derive(Clone)]
struct Dep {
    cell: Arc<AtomicU64>,
    seen: u64,
}

/// What a walk does with what it finds. Methods with a default body are the
/// ones only the [`Recorder`] cares about.
pub(crate) trait Sink {
    /// The walk is about to read the snapshot `version` guards.
    fn crossing(&mut self, _version: &Version) {}

    /// The walk reached a half whose channel selection depends on the
    /// event's content. Returning `true` ends the walk here: the sink will
    /// have it continued from `half` for each event.
    fn defer_exit(&mut self, _half: &Arc<PortCore>) -> bool {
        false
    }

    /// Like [`Sink::defer_exit`], for a channel with a selector, which
    /// `from` is about to forward into.
    fn defer_forward(&mut self, _channel: &Arc<Channel>, _from: &Arc<PortCore>) -> bool {
        false
    }

    /// A matching subscription whose subscriber is not bound yet (its
    /// component is still under construction) was skipped.
    fn unbound(&mut self) {}

    fn tap(&mut self, tap: &TapFn, dir: Direction, event: &EventRef);

    /// `to` has a matching handler at `at`.
    fn deliver(
        &mut self,
        to: &Weak<ComponentCore>,
        at: &Arc<PortCore>,
        dir: Direction,
        event: &EventRef,
    );

    /// `channel`, which `from` forwards into, is on hold.
    fn held(
        &mut self,
        channel: &Arc<Channel>,
        from: &Arc<PortCore>,
        dir: Direction,
        event: &EventRef,
    );

    /// A channel delivered the event into `dest`.
    fn arrive(&mut self, dest: &Arc<PortCore>, dir: Direction, event: &EventRef);
}

/// The sink that acts: runs taps, enqueues work, buffers into held
/// channels, and triggers into the half a channel leads to — which has
/// routes of its own.
#[derive(Default)]
pub(crate) struct Live {
    pub(crate) feedback: Feedback,
}

impl Live {
    fn enqueue(
        &mut self,
        to: &Arc<ComponentCore>,
        at: Arc<PortCore>,
        dir: Direction,
        event: &EventRef,
    ) {
        let outcome = to.enqueue_work(WorkItem::new(at, dir, Arc::clone(event)));
        self.feedback.note(outcome);
    }
}

impl Sink for Live {
    fn tap(&mut self, tap: &TapFn, dir: Direction, event: &EventRef) {
        tap(dir, event);
    }

    fn deliver(
        &mut self,
        to: &Weak<ComponentCore>,
        at: &Arc<PortCore>,
        dir: Direction,
        event: &EventRef,
    ) {
        if let Some(to) = to.upgrade() {
            self.enqueue(&to, Arc::clone(at), dir, event);
        }
    }

    fn held(
        &mut self,
        channel: &Arc<Channel>,
        from: &Arc<PortCore>,
        dir: Direction,
        event: &EventRef,
    ) {
        self.feedback.merge(channel.forward_held(from, dir, event));
    }

    fn arrive(&mut self, dest: &Arc<PortCore>, dir: Direction, event: &EventRef) {
        // Halves joined by channels share a port type, so `dest` allows
        // whatever the entered half allowed.
        self.feedback
            .merge(dest.trigger_in(dir, event).unwrap_or_default());
    }
}

/// A [`TapFn`], held weakly.
type WeakTap = Weak<dyn Fn(Direction, &EventRef) + Send + Sync>;

/// One thing a walk came to, in walk order.
#[derive(Clone)]
enum Step {
    Tap(WeakTap),
    Deliver {
        to: Weak<ComponentCore>,
        at: Weak<PortCore>,
    },
    /// Content-dependent from here: exit `half` live.
    Exit(Weak<PortCore>),
    /// Content-dependent from here: forward from `from` into `channel` live.
    Forward {
        channel: Weak<Channel>,
        from: Weak<PortCore>,
    },
}

/// A route's steps without a heap block for the common single-step case.
#[derive(Clone)]
enum Steps {
    One(Step),
    Many(Box<[Step]>),
}

impl Steps {
    fn as_slice(&self) -> &[Step] {
        match self {
            Steps::One(step) => std::slice::from_ref(step),
            Steps::Many(steps) => steps,
        }
    }
}

/// The sink that writes the walk down instead of acting on it.
pub(crate) struct Recorder {
    deps: Vec<Dep>,
    steps: Vec<Step>,
    cacheable: bool,
}

impl Recorder {
    pub(crate) fn new() -> Recorder {
        Recorder {
            deps: Vec::new(),
            steps: Vec::new(),
            cacheable: true,
        }
    }

    /// The route the walk came to, or `None` if the walk met something a
    /// route cannot express.
    pub(crate) fn finish(mut self, dir: Direction, event_type: TypeId) -> Option<Route> {
        if !self.cacheable {
            return None;
        }
        let steps = if self.steps.len() == 1 {
            Steps::One(self.steps.pop().expect("length checked"))
        } else {
            Steps::Many(self.steps.into_boxed_slice())
        };
        Some(Route {
            dir,
            event_type,
            deps: self.deps.into(),
            steps,
        })
    }
}

impl Sink for Recorder {
    fn crossing(&mut self, version: &Version) {
        self.deps.push(Dep {
            cell: Arc::clone(&version.0),
            seen: version.0.load(Ordering::SeqCst),
        });
    }

    fn defer_exit(&mut self, half: &Arc<PortCore>) -> bool {
        self.steps.push(Step::Exit(Arc::downgrade(half)));
        true
    }

    fn defer_forward(&mut self, channel: &Arc<Channel>, from: &Arc<PortCore>) -> bool {
        self.steps.push(Step::Forward {
            channel: Arc::downgrade(channel),
            from: Arc::downgrade(from),
        });
        true
    }

    fn unbound(&mut self) {
        // Binding publishes nothing, so no version would announce it.
        self.cacheable = false;
    }

    fn tap(&mut self, tap: &TapFn, _dir: Direction, _event: &EventRef) {
        self.steps.push(Step::Tap(Arc::downgrade(tap)));
    }

    fn deliver(
        &mut self,
        to: &Weak<ComponentCore>,
        at: &Arc<PortCore>,
        _dir: Direction,
        _event: &EventRef,
    ) {
        self.steps.push(Step::Deliver {
            to: Weak::clone(to),
            at: Arc::downgrade(at),
        });
    }

    fn held(
        &mut self,
        _channel: &Arc<Channel>,
        _from: &Arc<PortCore>,
        _dir: Direction,
        _event: &EventRef,
    ) {
        // Buffering must linearize with resume's flush under the channel's
        // state lock; that stays with the live walk.
        self.cacheable = false;
    }

    fn arrive(&mut self, dest: &Arc<PortCore>, dir: Direction, event: &EventRef) {
        if let Some(pair) = dest.pair() {
            pair.exit(dir, event, self);
        }
    }
}

/// What triggering one concrete event type in one direction into one half
/// comes to. Kept at that half.
#[derive(Clone)]
pub(crate) struct Route {
    dir: Direction,
    event_type: TypeId,
    deps: Arc<[Dep]>,
    steps: Steps,
}

impl Route {
    pub(crate) fn is_for(&self, dir: Direction, event_type: TypeId) -> bool {
        self.dir == dir && self.event_type == event_type
    }

    /// The table a half keeps: `kept` with `route` in place of the earlier
    /// route for its direction and event type, and without the routes that
    /// are no longer current.
    pub(crate) fn table_with(kept: &[Route], mut route: Route) -> Arc<[Route]> {
        // Event types that take the same way out of a half crossed the same
        // halves and channels: the table holds that list once.
        let crossed_the_same = |old: &&Route| {
            old.deps.len() == route.deps.len()
                && old
                    .deps
                    .iter()
                    .zip(route.deps.iter())
                    .all(|(a, b)| Arc::ptr_eq(&a.cell, &b.cell) && a.seen == b.seen)
        };
        if let Some(same_way) = kept.iter().find(crossed_the_same) {
            route.deps = Arc::clone(&same_way.deps);
        }
        let mut table: Vec<Route> = kept
            .iter()
            .filter(|old| old.is_current() && !old.is_for(route.dir, route.event_type))
            .cloned()
            .collect();
        table.push(route);
        table.into()
    }

    /// Whether every half and channel the route crossed is as it was when
    /// the route was resolved.
    pub(crate) fn is_current(&self) -> bool {
        self.deps
            .iter()
            .all(|dep| dep.cell.load(Ordering::SeqCst) == dep.seen)
    }

    pub(crate) fn replay(&self, dir: Direction, event: &EventRef) -> Feedback {
        let mut live = Live::default();
        for step in self.steps.as_slice() {
            match step {
                Step::Tap(tap) => {
                    if let Some(tap) = tap.upgrade() {
                        live.tap(&tap, dir, event);
                    }
                }
                Step::Deliver { to, at } => {
                    if let (Some(to), Some(at)) = (to.upgrade(), at.upgrade()) {
                        live.enqueue(&to, at, dir, event);
                    }
                }
                Step::Exit(half) => {
                    if let Some(half) = half.upgrade() {
                        half.exit(dir, event, &mut live);
                    }
                }
                Step::Forward { channel, from } => {
                    if let (Some(channel), Some(from)) = (channel.upgrade(), from.upgrade()) {
                        channel.forward(&from, dir, event, &mut live);
                    }
                }
            }
        }
        live.feedback
    }
}

#[cfg(test)]
mod tests;
