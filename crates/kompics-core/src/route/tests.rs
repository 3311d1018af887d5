//! What routes must not change, and what they may cost:
//!
//! * a trigger reaches the same mailboxes and taps, in the same order, with
//!   the same feedback as the walk that routes memoise — compared against
//!   [`reference`], that walk as it was before routes existed — under
//!   random wiring and random reconfiguration between triggers;
//! * a route keeps nothing alive, and is stored compactly.

use std::any::TypeId;
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;
use proptest::prelude::*;

use super::*;
use crate::channel::{connect, connect_keyed, connect_with_selector, ChannelRef};
use crate::component::{Component, ComponentContext, ComponentDefinition};
use crate::config::Config;
use crate::error::CoreError;
use crate::event::{event_as, Event};
use crate::port::{fresh_handler_id, PortRef, ProvidedPort, RequiredPort, Subscription};
use crate::sched::sequential::SequentialScheduler;
use crate::system::KompicsSystem;
use crate::types::HandlerId;
use crate::{impl_event, port_type};

#[derive(Debug, Clone)]
struct Msg {
    id: u64,
    key: u64,
}
impl_event!(Msg);

#[derive(Debug, Clone)]
struct DataMsg {
    base: Msg,
}
impl_event!(DataMsg, extends Msg, via base);

#[derive(Debug, Clone)]
struct Req {
    id: u64,
    key: u64,
}
impl_event!(Req);

port_type! {
    pub struct Net {
        indication: Msg;
        request: Req;
    }
}

fn id_and_key(event: &dyn Event) -> (u64, u64) {
    match (event_as::<Msg>(event), event_as::<Req>(event)) {
        (Some(m), _) => (m.id, m.key),
        (_, Some(r)) => (r.id, r.key),
        _ => unreachable!("the test triggers only Msg, DataMsg and Req"),
    }
}

/// The walk as it was before routes existed: `PortCore::trigger_in`,
/// `PortCore::dispatch`, `for_each_selected_channel` and
/// `Channel::forward_from` of the parent commit, kept verbatim except that
/// they read the channel's view through its accessors and select keyed
/// channels by the attachment's own key, not through an index.
mod reference {
    use super::*;

    pub(super) fn trigger_in(
        half: &PortCore,
        dir: Direction,
        event: EventRef,
    ) -> Result<Feedback, CoreError> {
        if !(half.allows)(event.as_ref(), dir) {
            return Err(CoreError::EventNotAllowed {
                event: event.event_name(),
                port: half.type_name,
                direction: dir,
            });
        }
        match half.pair() {
            Some(pair) => Ok(dispatch(&pair, dir, event)),
            None => Ok(Feedback::default()),
        }
    }

    fn dispatch(half: &Arc<PortCore>, dir: Direction, event: EventRef) -> Feedback {
        let snap = half.wiring();
        for (_, tap) in &snap.taps {
            tap(dir, &event);
        }
        let mut feedback = Feedback::default();
        if dir == half.sign {
            let subs = &snap.subscriptions;
            for (i, sub) in subs.iter().enumerate() {
                if !event.is_instance_of(sub.event_type) {
                    continue;
                }
                let Some((cid, weak)) = sub.subscriber.get() else {
                    continue;
                };
                let duplicate = subs[..i].iter().any(|prev| {
                    event.is_instance_of(prev.event_type)
                        && prev.subscriber.get().is_some_and(|(pcid, _)| pcid == cid)
                });
                if duplicate {
                    continue;
                }
                if let Some(core) = weak.upgrade() {
                    let outcome =
                        core.enqueue_work(WorkItem::new(Arc::clone(half), dir, Arc::clone(&event)));
                    feedback.note(outcome);
                }
            }
        }
        let key = snap
            .keyed
            .as_ref()
            .and_then(|keyed| (keyed.extractor)(event.as_ref(), dir));
        for a in &snap.channels {
            if key.is_none() || a.key.is_none() || a.key == key {
                feedback.merge(forward_from(&a.channel, half, dir, Arc::clone(&event)));
            }
        }
        feedback
    }

    fn forward_from(
        channel: &Arc<Channel>,
        from: &Arc<PortCore>,
        dir: Direction,
        event: EventRef,
    ) -> Feedback {
        if let Some(selector) = &channel.selector {
            if !selector(event.as_ref(), dir) {
                return Feedback::default();
            }
        }
        let source_idx = match from.sign {
            Direction::Positive => 0,
            Direction::Negative => 1,
        };
        let ends = channel.end_halves();
        match &ends[source_idx] {
            Some(end) if end.port_id() == from.port_id() => {}
            _ => return Feedback::default(),
        }
        if channel.held_info().0 {
            return channel.forward_held(from, dir, &event);
        }
        match &ends[1 - source_idx] {
            Some(dest) => trigger_in(dest, dir, event).unwrap_or_default(),
            None => Feedback::default(),
        }
    }
}

struct Node {
    ctx: ComponentContext,
    _provided: ProvidedPort<Net>,
    _required: RequiredPort<Net>,
    child: Option<Component<Node>>,
}

impl Node {
    fn new(composite: bool) -> Node {
        let ctx = ComponentContext::new();
        let child = composite.then(|| ctx.create(|| Node::new(false)));
        Node {
            ctx,
            _provided: ProvidedPort::new(),
            _required: RequiredPort::new(),
            child,
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

/// Something a world observed, named by positions in the world's own lists
/// so that two worlds (whose runtime ids differ) can be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Tapped {
        half: usize,
        dir: Direction,
        event: u64,
    },
    Handled {
        by: usize,
        half: usize,
        handler: u64,
        event: u64,
    },
}

#[derive(Debug, Clone, Copy)]
enum Flavor {
    Plain,
    Keyed(u64),
    Selecting(u64),
}

/// One step of a schedule, already resolved against the world's lists.
#[derive(Debug, Clone)]
enum Op {
    Trigger {
        half: usize,
        natural_dir: bool,
        kind: u64,
        key: u64,
    },
    Run,
    Subscribe {
        half: usize,
        by: usize,
        kind: u64,
        bound: bool,
    },
    Unsubscribe(usize),
    Bind(usize),
    Connect {
        positive: usize,
        negative: usize,
        flavor: Flavor,
    },
    Disconnect(usize),
    Hold(usize),
    Resume(usize),
    Unplug {
        channel: usize,
        end: usize,
    },
    Plug {
        channel: usize,
        half: usize,
    },
    Tap(usize),
    Untap(usize),
    KeyExtractor(usize),
    Destroy(usize),
}

/// Four components — two composites with a child each — with a provided and
/// a required `Net` port each, and everything a schedule has done to them so
/// far.
struct World {
    /// Triggers take the reference walk instead of `PortCore::trigger_in`.
    reference: bool,
    _system: KompicsSystem,
    sched: Arc<SequentialScheduler>,
    nodes: Vec<Component<Node>>,
    /// Four per node: provided inside, provided outside, required inside,
    /// required outside. Weak, so that destroying a node kills its halves.
    halves: Vec<Weak<PortCore>>,
    channels: Vec<ChannelRef>,
    /// The halves at a channel's (positive, negative) end, as plugged by
    /// the schedule; the cycle guard reads it.
    ends: Vec<[Option<usize>; 2]>,
    subscriptions: Vec<(usize, Arc<Subscription>, usize)>,
    taps: Vec<(usize, HandlerId)>,
    /// The (half, kind) of every trigger so far.
    triggered: Vec<(usize, u64)>,
    seen: Arc<Mutex<Vec<Seen>>>,
    next_event: u64,
}

const HALVES_PER_NODE: usize = 4;

fn is_positive(half: usize) -> bool {
    // Provided outside and required inside.
    matches!(half % HALVES_PER_NODE, 1 | 2)
}

impl World {
    fn new(reference: bool) -> World {
        let (system, sched) = KompicsSystem::sequential(Config::default());
        let mut nodes = Vec::new();
        for _ in 0..2 {
            let node = system.create(|| Node::new(true));
            system.start(&node);
            let child = node.on_definition(|n| n.child.clone()).expect("just made");
            nodes.push(node);
            nodes.extend(child);
        }
        sched.run_until_quiescent();
        let mut halves = Vec::new();
        for node in &nodes {
            let provided = node.provided_ref::<Net>().expect("declared").core().clone();
            let required = node.required_ref::<Net>().expect("declared").core().clone();
            for outside in [provided, required] {
                halves.push(Arc::downgrade(&outside.pair().expect("alive")));
                halves.push(Arc::downgrade(&outside));
            }
        }
        World {
            reference,
            _system: system,
            sched,
            nodes,
            halves,
            channels: Vec::new(),
            ends: Vec::new(),
            subscriptions: Vec::new(),
            taps: Vec::new(),
            triggered: Vec::new(),
            seen: Arc::default(),
            next_event: 0,
        }
    }

    /// Whether the wiring joins `a` and `b`, by pairs and plugged channels.
    fn joined(&self, a: usize, b: usize) -> bool {
        let mut reached = vec![false; self.halves.len()];
        let mut frontier = vec![a];
        while let Some(half) = frontier.pop() {
            if std::mem::replace(&mut reached[half], true) {
                continue;
            }
            frontier.push(half ^ 1);
            for ends in &self.ends {
                if let [Some(p), Some(n)] = *ends {
                    if p == half {
                        frontier.push(n);
                    } else if n == half {
                        frontier.push(p);
                    }
                }
            }
        }
        reached[b]
    }

    /// Turns raw entropy into the next step, or `None` if this world offers
    /// nothing for it to act on. A walk around a cycle of channels never
    /// ends, with or without routes, so no step may close one.
    fn decode(&self, choice: u8, r: u64) -> Option<Op> {
        let pick = |shift: u32, of: usize| (of > 0).then(|| (r >> shift) as usize % of.max(1));
        let half = pick(0, self.halves.len())?;
        Some(match choice {
            0..=5 => Op::Trigger {
                half,
                natural_dir: !(r >> 40).is_multiple_of(8),
                kind: (r >> 16) % 3,
                key: (r >> 24) % 6,
            },
            // An earlier trigger again, with another key: the one that
            // finds a route waiting.
            6..=11 => {
                let (half, kind) = self.triggered[pick(8, self.triggered.len())?];
                Op::Trigger {
                    half,
                    natural_dir: true,
                    kind,
                    key: (r >> 24) % 6,
                }
            }
            12 | 13 => Op::Run,
            14..=16 => Op::Subscribe {
                half,
                by: pick(16, self.nodes.len())?,
                kind: (r >> 24) % 3,
                bound: !(r >> 32).is_multiple_of(6),
            },
            17 => Op::Unsubscribe(pick(8, self.subscriptions.len())?),
            18 => Op::Bind(pick(8, self.subscriptions.len())?),
            19..=23 => {
                let positive = (0..self.halves.len()).filter(|h| is_positive(*h));
                let negative = (0..self.halves.len()).filter(|h| !is_positive(*h));
                let positive = positive.cycle().nth((r >> 8) as usize % 64)?;
                let negative = negative.cycle().nth((r >> 16) as usize % 64)?;
                let parallel = self.ends.contains(&[Some(positive), Some(negative)]);
                if !parallel && self.joined(positive, negative) {
                    return None;
                }
                let flavor = match (r >> 32) % 5 {
                    0 | 1 => Flavor::Plain,
                    2 | 3 => Flavor::Keyed((r >> 40) % 6),
                    _ => Flavor::Selecting((r >> 40) % 3),
                };
                Op::Connect {
                    positive,
                    negative,
                    flavor,
                }
            }
            24 => Op::Disconnect(pick(8, self.channels.len())?),
            25 | 26 => Op::Hold(pick(8, self.channels.len())?),
            27 | 28 => Op::Resume(pick(8, self.channels.len())?),
            29 => Op::Unplug {
                channel: pick(8, self.channels.len())?,
                end: (r >> 32) as usize % 2,
            },
            30 | 31 => {
                let channel = pick(8, self.channels.len())?;
                let end = usize::from(!is_positive(half));
                if let Some(other) = self.ends[channel][1 - end] {
                    if self.joined(other, half) {
                        return None;
                    }
                }
                Op::Plug { channel, half }
            }
            32..=34 => Op::Tap(half),
            35 => Op::Untap(pick(8, self.taps.len())?),
            36 | 37 => Op::KeyExtractor(half),
            // Rarely: a schedule that destroys early tests little after.
            _ if (r >> 48).is_multiple_of(3) => Op::Destroy(pick(8, self.nodes.len())?),
            _ => return None,
        })
    }

    /// Carries out `op` and says, in words that do not depend on runtime
    /// ids, how it went.
    fn apply(&mut self, op: &Op) -> String {
        match *op {
            Op::Trigger {
                half,
                natural_dir,
                kind,
                key,
            } => {
                let Some(entered) = self.halves[half].upgrade() else {
                    return "dead half".into();
                };
                let id = self.next_event;
                self.next_event += 1;
                self.triggered.push((half, kind));
                let event: EventRef = match kind {
                    0 => Arc::new(Msg { id, key }),
                    1 => Arc::new(DataMsg {
                        base: Msg { id, key },
                    }),
                    _ => Arc::new(Req { id, key }),
                };
                let dir = if natural_dir {
                    entered.sign.opposite()
                } else {
                    entered.sign
                };
                let result = if self.reference {
                    reference::trigger_in(&entered, dir, event)
                } else {
                    entered.trigger_in(dir, &event)
                };
                let queued: Vec<usize> = self.nodes.iter().map(|n| n.core.pending()).collect();
                format!(
                    "{:?}, queued {queued:?}",
                    result.map_err(|e| std::mem::discriminant(&e))
                )
            }
            Op::Run => format!("ran {}", self.sched.run_until_quiescent()),
            Op::Subscribe {
                half,
                by,
                kind,
                bound,
            } => {
                let Some(at) = self.halves[half].upgrade() else {
                    return "dead half".into();
                };
                let id = fresh_handler_id();
                let (seen, handler) = (Arc::clone(&self.seen), self.subscriptions.len() as u64);
                let (event_type, event_type_name) = match kind {
                    0 => (TypeId::of::<Msg>(), "Msg"),
                    1 => (TypeId::of::<DataMsg>(), "DataMsg"),
                    _ => (TypeId::of::<Req>(), "Req"),
                };
                let sub = Arc::new(Subscription {
                    id,
                    event_type,
                    event_type_name,
                    subscriber: OnceLock::new(),
                    handler: Arc::new(move |_: &mut dyn ComponentDefinition, event: &EventRef| {
                        seen.lock().push(Seen::Handled {
                            by,
                            half,
                            handler,
                            event: id_and_key(event.as_ref()).0,
                        });
                    }),
                });
                at.subscribe_raw(Arc::clone(&sub));
                self.subscriptions.push((half, sub, by));
                if bound {
                    return self.apply(&Op::Bind(self.subscriptions.len() - 1));
                }
                "subscribed, unbound".into()
            }
            Op::Unsubscribe(nth) => {
                let (half, sub, _) = &self.subscriptions[nth];
                match self.halves[*half].upgrade() {
                    Some(at) => format!("unsubscribed {}", at.unsubscribe_raw(sub.id)),
                    None => "dead half".into(),
                }
            }
            Op::Bind(nth) => {
                // As component creation binds constructor-time
                // subscriptions: in place, publishing nothing.
                let (_, sub, by) = &self.subscriptions[nth];
                let core = &self.nodes[*by].core;
                let bound = sub.subscriber.set((core.id(), Arc::downgrade(core)));
                format!("bound {}", bound.is_ok())
            }
            Op::Connect {
                positive,
                negative,
                flavor,
            } => {
                let halves = (
                    self.halves[positive].upgrade(),
                    self.halves[negative].upgrade(),
                );
                let (Some(p), Some(n)) = halves else {
                    return "dead half".into();
                };
                let (p, n) = (PortRef::<Net>::new(p), PortRef::<Net>::new(n));
                let connected = match flavor {
                    Flavor::Plain => connect(&p, &n),
                    Flavor::Keyed(key) => connect_keyed(&p, &n, key),
                    Flavor::Selecting(rest) => connect_with_selector(
                        &p,
                        &n,
                        Arc::new(move |event, _| id_and_key(event).1 % 3 == rest),
                    ),
                };
                match connected {
                    Ok(channel) => {
                        self.channels.push(channel);
                        self.ends.push([Some(positive), Some(negative)]);
                        "connected".into()
                    }
                    Err(e) => format!("{:?}", std::mem::discriminant(&e)),
                }
            }
            Op::Disconnect(nth) => {
                self.channels[nth].disconnect();
                self.ends[nth] = [None, None];
                "disconnected".into()
            }
            Op::Hold(nth) => {
                self.channels[nth].hold();
                "held".into()
            }
            Op::Resume(nth) => {
                self.channels[nth].resume();
                format!("resumed, {} left", self.channels[nth].queued_len())
            }
            Op::Unplug { channel, end } => {
                let unplugged = match end {
                    0 => self.channels[channel].unplug_positive(),
                    _ => self.channels[channel].unplug_negative(),
                };
                if unplugged.is_ok() {
                    self.ends[channel][end] = None;
                }
                format!("unplugged {}", unplugged.is_ok())
            }
            Op::Plug { channel, half } => {
                let Some(into) = self.halves[half].upgrade() else {
                    return "dead half".into();
                };
                let plugged = self.channels[channel].plug_core(&into);
                if plugged.is_ok() {
                    self.ends[channel][usize::from(!is_positive(half))] = Some(half);
                }
                format!("plugged {}", plugged.is_ok())
            }
            Op::Tap(half) => {
                let Some(at) = self.halves[half].upgrade() else {
                    return "dead half".into();
                };
                let seen = Arc::clone(&self.seen);
                let id = PortRef::<Net>::new(at).tap(move |dir, event| {
                    seen.lock().push(Seen::Tapped {
                        half,
                        dir,
                        event: id_and_key(event.as_ref()).0,
                    });
                });
                self.taps.push((half, id));
                "tapped".into()
            }
            Op::Untap(nth) => {
                let (half, id) = self.taps[nth];
                match self.halves[half].upgrade() {
                    Some(at) => format!("untapped {}", at.remove_tap(id)),
                    None => "dead half".into(),
                }
            }
            Op::KeyExtractor(half) => {
                let Some(at) = self.halves[half].upgrade() else {
                    return "dead half".into();
                };
                at.set_key_extractor(Arc::new(|event, _| {
                    Some(id_and_key(event).1).filter(|key| *key != 5)
                }));
                "keyed".into()
            }
            Op::Destroy(node) => {
                self.nodes[node].core.destroy_subtree();
                "destroyed".into()
            }
        }
    }
}

/// A world that triggers through routes and one that takes the reference
/// walk, kept in step.
struct Both {
    routed: World,
    walked: World,
}

impl Both {
    fn new() -> Both {
        Both {
            routed: World::new(false),
            walked: World::new(true),
        }
    }

    /// Carries out `op` in both worlds; an error says how they differ.
    fn apply(&mut self, op: &Op) -> Result<(), String> {
        let said = (self.routed.apply(op), self.walked.apply(op));
        let seen = (
            std::mem::take(&mut *self.routed.seen.lock()),
            std::mem::take(&mut *self.walked.seen.lock()),
        );
        if said.0 != said.1 || seen.0 != seen.1 {
            return Err(format!(
                "{op:?}: routed {:?} {:?}, walked {:?} {:?}",
                said.0, seen.0, said.1, seen.1
            ));
        }
        Ok(())
    }

    fn must(&mut self, op: Op) {
        self.apply(&op).unwrap_or_else(|differ| panic!("{differ}"));
    }

    fn trigger(&mut self, half: usize, kind: u64, key: u64) {
        self.must(Op::Trigger {
            half,
            natural_dir: true,
            kind,
            key,
        });
    }
}

proptest! {
    /// Whatever a schedule does to the wiring between triggers, triggering
    /// through routes and triggering through the walk they memoise are
    /// indistinguishable.
    #[test]
    fn routes_change_nothing_a_trigger_does(
        schedule in proptest::collection::vec((0u8..40, any::<u64>()), 1..120),
    ) {
        let mut both = Both::new();
        for (step, (choice, r)) in schedule.into_iter().enumerate() {
            if let Some(op) = both.routed.decode(choice, r) {
                let outcome = both.apply(&op);
                prop_assert!(outcome.is_ok(), "step {}: {}", step, outcome.unwrap_err());
            }
        }
        let outcome = both.apply(&Op::Run);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

// Half numbers below: node n's provided port is 4n (inside) and 4n + 1
// (outside), its required port 4n + 2 (inside) and 4n + 3 (outside); nodes 0
// and 2 are composites, 1 and 3 their children.

/// A walk stops at a dead half. Nothing publishes a death, and either half
/// of a pair can outlive the other in somebody's hands.
#[test]
fn a_route_ends_where_a_half_has_died() {
    for survivor in [None, Some(10), Some(11)] {
        let mut both = Both::new();
        // Node 1 → node 2's required port, passed on from its inside half
        // into node 0's provided port.
        for (positive, negative) in [(5, 11), (10, 0)] {
            both.must(Op::Connect {
                positive,
                negative,
                flavor: Flavor::Plain,
            });
        }
        for half in [10, 1] {
            both.must(Op::Tap(half));
        }
        both.trigger(4, 0, 0);
        both.trigger(4, 0, 0);
        let held: Vec<_> = [&both.routed, &both.walked]
            .iter()
            .map(|world| survivor.map(|half| world.halves[half].upgrade().expect("alive")))
            .collect();
        both.must(Op::Destroy(2));
        both.trigger(4, 0, 0);
        drop(held);
        both.trigger(4, 0, 0);
    }
}

/// Keyed and unkeyed channels fire in attach order whatever the key selects,
/// and the selection is made per event, not per route.
#[test]
fn keyed_selection_is_per_event_and_in_attach_order() {
    let mut both = Both::new();
    let attach = [
        (11, Flavor::Keyed(1)),
        (3, Flavor::Plain),
        (15, Flavor::Keyed(2)),
        (8, Flavor::Keyed(1)),
        (12, Flavor::Plain),
    ];
    for (negative, flavor) in attach {
        both.must(Op::Connect {
            positive: 5,
            negative,
            flavor,
        });
        // The event exits via the pair of the half it is delivered into.
        both.must(Op::Tap(negative ^ 1));
    }
    // Without an extractor the keys mean nothing.
    both.trigger(4, 0, 1);
    both.must(Op::KeyExtractor(5));
    // Key 5 extracts to no key at all; key 3 has no channel.
    for key in [1, 2, 1, 5, 3, 2] {
        both.trigger(4, 0, key);
    }
    // A channel attached once the extractor is there, then one detached.
    both.must(Op::Connect {
        positive: 5,
        negative: 0,
        flavor: Flavor::Keyed(2),
    });
    both.must(Op::Tap(1));
    for key in [2, 1] {
        both.trigger(4, 0, key);
    }
    both.must(Op::Disconnect(0));
    for key in [1, 2, 5] {
        both.trigger(4, 1, key);
    }
}

/// The schedules above must actually replay routes, or they compare the
/// walk with itself.
#[test]
fn a_second_trigger_replays_the_first_one_s_route() {
    let mut world = World::new(false);
    // Node 1's provided port, outside half, to node 2's required port.
    world.apply(&Op::Connect {
        positive: 5,
        negative: 11,
        flavor: Flavor::Plain,
    });
    world.apply(&Op::Subscribe {
        half: 10,
        by: 2,
        kind: 0,
        bound: true,
    });
    let entered = world.halves[4].upgrade().expect("alive");
    let routes = |half: &PortCore| half.wiring().routes().len();
    assert_eq!(routes(&entered), 0);
    let trigger = Op::Trigger {
        half: 4,
        natural_dir: true,
        kind: 0,
        key: 0,
    };
    let first = world.apply(&trigger);
    assert!(first.contains("delivered: 1"), "{first}");
    assert_eq!(routes(&entered), 1);
    let kept = entered.wiring().routes()[0].clone();
    assert!(kept.is_current());
    assert!(
        matches!(kept.steps, Steps::One(Step::Deliver { .. })),
        "one subscriber, one inline step"
    );
    // Provided pair, channel, required pair.
    assert_eq!(kept.deps.len(), 3);
    let second = world.apply(&trigger);
    assert!(second.contains("delivered: 1"), "{second}");
    assert_eq!(routes(&entered), 1, "replayed, not resolved again");

    // A subtype takes the same way out: it shares the first route's list.
    world.apply(&Op::Trigger {
        half: 4,
        natural_dir: true,
        kind: 1,
        key: 0,
    });
    let wiring = entered.wiring();
    let both = wiring.routes();
    assert_eq!(both.len(), 2);
    assert!(Arc::ptr_eq(&both[0].deps, &both[1].deps));
    drop(wiring);

    // Any change along the way ends the route's life, at once.
    world.apply(&Op::Hold(0));
    assert!(!kept.is_current());
    let held = world.apply(&trigger);
    assert!(held.contains("delivered: 0"), "{held}");
    assert_eq!(world.channels[0].queued_len(), 1);
    assert!(
        entered
            .wiring()
            .routes()
            .iter()
            .all(|route| !route.is_current()),
        "a walk that meets a held channel is not kept"
    );
}

#[test]
fn a_route_is_four_words_and_a_type_id() {
    assert!(std::mem::size_of::<Route>() <= 64);
    assert!(std::mem::size_of::<Step>() <= 24);
}

/// Routes point at halves, channels and components of *other* components;
/// if any of those pointers were strong, two components that talk to each
/// other would keep each other alive for ever.
#[test]
fn a_system_that_exchanged_events_both_ways_is_freed() {
    let mut world = World::new(false);
    world.apply(&Op::Connect {
        positive: 5,
        negative: 11,
        flavor: Flavor::Plain,
    });
    world.apply(&Op::Tap(5));
    for (half, by, kind) in [(10, 2, 0), (4, 1, 2)] {
        world.apply(&Op::Subscribe {
            half,
            by,
            kind,
            bound: true,
        });
    }
    // Indications one way, requests the other, twice each so that the
    // second of each is a replay.
    for (half, kind) in [(4, 0), (10, 2), (4, 0), (10, 2)] {
        let said = world.apply(&Op::Trigger {
            half,
            natural_dir: true,
            kind,
            key: 1,
        });
        assert!(said.contains("delivered: 1"), "{said}");
    }
    world.apply(&Op::Run);
    assert_eq!(world.seen.lock().len(), 4 + 2, "four handled, two tapped");

    let halves = world.halves.clone();
    let components: Vec<Weak<ComponentCore>> = world
        .nodes
        .iter()
        .map(|n| Arc::downgrade(&n.core))
        .collect();
    assert!(halves.iter().all(|half| half.upgrade().is_some()));
    world._system.shutdown();
    drop(world);
    assert!(halves.iter().all(|half| half.upgrade().is_none()));
    assert!(components.iter().all(|core| core.upgrade().is_none()));
}
