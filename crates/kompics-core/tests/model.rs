//! Integration tests for the component-model semantics described in §2 of
//! the paper: publish-subscribe event dissemination, handler ordering,
//! subtype filtering, life-cycle, fault management, and dynamic
//! reconfiguration.

// Test components hold ports they only subscribe on; the fields keep the
// port pairs alive.
#![allow(dead_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use kompics_core::channel::{connect, connect_keyed, connect_with_selector};
use kompics_core::component::LifecycleState;
use kompics_core::prelude::*;
use kompics_core::reconfig::{replace_component, ReplaceOptions};
use parking_lot::Mutex;

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Message {
    pub destination: u64,
    pub payload: u64,
}
impl_event!(Message);

#[derive(Debug, Clone)]
pub struct DataMessage {
    pub base: Message,
    pub seq: u64,
}
impl_event!(DataMessage, extends Message, via base);

#[derive(Debug, Clone)]
pub struct Tick(pub u64);
impl_event!(Tick);

port_type! {
    /// Test network-like port: messages both ways.
    pub struct Net {
        indication: Message;
        request: Message;
    }
}

port_type! {
    /// Requests in (`Tick`), indications out (`Message`).
    pub struct Pump {
        indication: Message;
        request: Tick;
    }
}

type Log = Arc<Mutex<Vec<String>>>;

/// Receives `Message` indications on a required Net port and records them.
struct Receiver {
    ctx: ComponentContext,
    net: RequiredPort<Net>,
    seen: Arc<AtomicUsize>,
    log: Log,
    tag: &'static str,
}

impl Receiver {
    fn new(tag: &'static str, seen: Arc<AtomicUsize>, log: Log) -> Self {
        let net = RequiredPort::new();
        net.subscribe(|this: &mut Receiver, m: &Message| {
            this.seen.fetch_add(1, Ordering::SeqCst);
            this.log.lock().push(format!("{}:{}", this.tag, m.payload));
        });
        Receiver {
            ctx: ComponentContext::new(),
            net,
            seen,
            log,
            tag,
        }
    }
}

impl ComponentDefinition for Receiver {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Receiver"
    }
}

/// Provides a Net port; on a request, echoes an indication back out.
struct Echo {
    ctx: ComponentContext,
    net: ProvidedPort<Net>,
}

impl Echo {
    fn new() -> Self {
        let net = ProvidedPort::new();
        net.subscribe(|this: &mut Echo, m: &Message| {
            this.net.trigger(Message {
                destination: m.destination,
                payload: m.payload + 100,
            });
        });
        Echo {
            ctx: ComponentContext::new(),
            net,
        }
    }
}

impl ComponentDefinition for Echo {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Echo"
    }
}

fn collect_system() -> KompicsSystem {
    KompicsSystem::new(
        Config::default()
            .workers(2)
            .fault_policy(FaultPolicy::Collect),
    )
}

// ---------------------------------------------------------------------------
// Publish-subscribe dissemination (paper §2.3, Figures 6 & 7)
// ---------------------------------------------------------------------------

#[test]
fn event_broadcast_through_multiple_channels() {
    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));

    let echo = system.create(Echo::new);
    let r1 = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r1", s, l)
    });
    let r2 = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r2", s, l)
    });
    let provided = echo.provided_ref::<Net>().unwrap();
    connect(&provided, &r1.required_ref::<Net>().unwrap()).unwrap();
    connect(&provided, &r2.required_ref::<Net>().unwrap()).unwrap();
    system.start(&echo);
    system.start(&r1);
    system.start(&r2);

    // A request into Echo produces one indication, forwarded by BOTH
    // channels (Figure 6).
    provided
        .trigger(Message {
            destination: 9,
            payload: 1,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 2);
    let log = log.lock();
    assert!(log.contains(&"r1:101".to_string()));
    assert!(log.contains(&"r2:101".to_string()));
    system.shutdown();
}

#[test]
fn multiple_handlers_execute_in_subscription_order() {
    struct TwoHandlers {
        ctx: ComponentContext,
        net: RequiredPort<Net>,
        log: Log,
    }
    impl TwoHandlers {
        fn new(log: Log) -> Self {
            let net = RequiredPort::new();
            net.subscribe(|this: &mut TwoHandlers, _m: &Message| {
                this.log.lock().push("first".into());
            });
            net.subscribe(|this: &mut TwoHandlers, _m: &Message| {
                this.log.lock().push("second".into());
            });
            TwoHandlers {
                ctx: ComponentContext::new(),
                net,
                log,
            }
        }
    }
    impl ComponentDefinition for TwoHandlers {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "TwoHandlers"
        }
    }

    let system = collect_system();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let c = system.create({
        let log = log.clone();
        move || TwoHandlers::new(log)
    });
    system.start(&c);
    c.required_ref::<Net>()
        .unwrap()
        .trigger(Message {
            destination: 0,
            payload: 0,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(*log.lock(), vec!["first".to_string(), "second".to_string()]);
    system.shutdown();
}

#[test]
fn subtype_events_reach_supertype_handlers() {
    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let r = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r", s, l)
    });
    system.start(&r);
    // Receiver subscribed for Message; a DataMessage must reach it.
    r.required_ref::<Net>()
        .unwrap()
        .trigger(DataMessage {
            base: Message {
                destination: 1,
                payload: 7,
            },
            seq: 3,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    assert_eq!(*log.lock(), vec!["r:7".to_string()]);
    system.shutdown();
}

#[test]
fn disallowed_event_is_rejected_at_trigger() {
    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let r = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r", s, l)
    });
    system.start(&r);
    // Tick is not part of the Net port type.
    let err = r
        .required_ref::<Net>()
        .unwrap()
        .trigger(Tick(1))
        .unwrap_err();
    assert!(matches!(err, CoreError::EventNotAllowed { .. }));
    system.shutdown();
}

#[test]
fn reply_once_then_unsubscribe() {
    // The paper's §2.2 example: handle one message, reply, unsubscribe.
    struct ReplyOnce {
        ctx: ComponentContext,
        net: ProvidedPort<Net>,
        handler: Option<HandlerId>,
        replies: Arc<AtomicUsize>,
    }
    impl ReplyOnce {
        fn new(replies: Arc<AtomicUsize>) -> Self {
            let net = ProvidedPort::new();
            let handler = net.subscribe(|this: &mut ReplyOnce, m: &Message| {
                this.net.trigger(Message {
                    destination: m.destination,
                    payload: m.payload,
                });
                this.replies.fetch_add(1, Ordering::SeqCst);
                if let Some(id) = this.handler.take() {
                    this.net.unsubscribe(id);
                }
            });
            ReplyOnce {
                ctx: ComponentContext::new(),
                net,
                handler: Some(handler),
                replies,
            }
        }
    }
    impl ComponentDefinition for ReplyOnce {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "ReplyOnce"
        }
    }

    let system = collect_system();
    let replies = Arc::new(AtomicUsize::new(0));
    let c = system.create({
        let r = replies.clone();
        move || ReplyOnce::new(r)
    });
    system.start(&c);
    let port = c.provided_ref::<Net>().unwrap();
    for i in 0..5 {
        port.trigger(Message {
            destination: 1,
            payload: i,
        })
        .unwrap();
    }
    system.await_quiescence();
    assert_eq!(replies.load(Ordering::SeqCst), 1, "replies only once");
    system.shutdown();
}

// ---------------------------------------------------------------------------
// Life-cycle (paper §2.4)
// ---------------------------------------------------------------------------

#[test]
fn passive_components_queue_events_until_started() {
    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let r = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r", s, l)
    });
    let port = r.required_ref::<Net>().unwrap();
    port.trigger(Message {
        destination: 0,
        payload: 1,
    })
    .unwrap();
    port.trigger(Message {
        destination: 0,
        payload: 2,
    })
    .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(seen.load(Ordering::SeqCst), 0, "not started yet");

    system.start(&r);
    system.await_quiescence();
    assert_eq!(
        seen.load(Ordering::SeqCst),
        2,
        "queued events execute on start"
    );
    assert_eq!(*log.lock(), vec!["r:1".to_string(), "r:2".to_string()]);
    system.shutdown();
}

#[test]
fn init_is_handled_before_other_events() {
    #[derive(Debug)]
    struct MyInit {
        base: Init,
        parameter: u64,
    }
    impl_event!(MyInit, extends Init, via base);

    struct Initialized {
        ctx: ComponentContext,
        net: RequiredPort<Net>,
        parameter: u64,
        log: Log,
    }
    impl Initialized {
        fn new(log: Log) -> Self {
            let ctx = ComponentContext::new();
            ctx.subscribe_control(|this: &mut Initialized, init: &MyInit| {
                this.parameter = init.parameter;
                this.log.lock().push(format!("init:{}", init.parameter));
            });
            let net = RequiredPort::new();
            net.subscribe(|this: &mut Initialized, _m: &Message| {
                this.log
                    .lock()
                    .push(format!("msg-with-param:{}", this.parameter));
            });
            Initialized {
                ctx,
                net,
                parameter: 0,
                log,
            }
        }
    }
    impl ComponentDefinition for Initialized {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Initialized"
        }
    }

    let system = collect_system();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let c = system.create({
        let log = log.clone();
        move || Initialized::new(log)
    });
    // Message arrives BEFORE the init and the start, but must execute after
    // the Init because control events run first.
    c.required_ref::<Net>()
        .unwrap()
        .trigger(Message {
            destination: 0,
            payload: 0,
        })
        .unwrap();
    c.control_ref()
        .trigger(MyInit {
            base: Init,
            parameter: 42,
        })
        .unwrap();
    c.control_ref().trigger(Start).unwrap();
    system.await_quiescence();
    assert_eq!(
        *log.lock(),
        vec!["init:42".to_string(), "msg-with-param:42".to_string()]
    );
    system.shutdown();
}

#[test]
fn start_and_stop_recurse_over_children_and_emit_indications() {
    struct Child {
        ctx: ComponentContext,
        log: Log,
    }
    impl Child {
        fn new(log: Log) -> Self {
            let ctx = ComponentContext::new();
            ctx.subscribe_control(|this: &mut Child, _s: &Start| {
                this.log.lock().push("child started".into());
            });
            ctx.subscribe_control(|this: &mut Child, _s: &Stop| {
                this.log.lock().push("child stopped".into());
            });
            Child { ctx, log }
        }
    }
    impl ComponentDefinition for Child {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Child"
        }
    }

    struct Parent {
        ctx: ComponentContext,
        #[allow(dead_code)]
        child: Component<Child>,
        log: Log,
    }
    impl Parent {
        fn new(log: Log) -> Self {
            let ctx = ComponentContext::new();
            ctx.subscribe_control(|this: &mut Parent, _s: &Start| {
                this.log.lock().push("parent started".into());
            });
            let child = ctx.create({
                let log = log.clone();
                move || Child::new(log)
            });
            Parent { ctx, child, log }
        }
    }
    impl ComponentDefinition for Parent {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Parent"
        }
    }

    let system = collect_system();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let started = Arc::new(AtomicUsize::new(0));
    let parent = system.create({
        let log = log.clone();
        move || Parent::new(log)
    });

    system.start(&parent);
    system.await_quiescence();
    {
        let log = log.lock();
        assert!(log.contains(&"parent started".to_string()));
        assert!(log.contains(&"child started".to_string()));
        let p = log.iter().position(|s| s == "parent started").unwrap();
        let c = log.iter().position(|s| s == "child started").unwrap();
        assert!(p < c, "parent activates before its children");
    }
    let _ = started;

    system.stop(&parent);
    system.await_quiescence();
    assert!(log.lock().contains(&"child stopped".to_string()));
    system.shutdown();
}

#[test]
fn kill_destroys_subtree() {
    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let r = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r", s, l)
    });
    let port = r.required_ref::<Net>().unwrap();
    system.start(&r);
    system.await_quiescence();
    system.kill(&r);
    system.await_quiescence();
    assert_eq!(r.lifecycle(), LifecycleState::Destroyed);
    // Events to a destroyed component are discarded without wedging
    // quiescence.
    port.trigger(Message {
        destination: 0,
        payload: 3,
    })
    .unwrap();
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 0);
    system.shutdown();
}

// ---------------------------------------------------------------------------
// Fault management (paper §2.5)
// ---------------------------------------------------------------------------

struct Bomb {
    ctx: ComponentContext,
    net: RequiredPort<Net>,
}
impl Bomb {
    fn new() -> Self {
        let net = RequiredPort::new();
        net.subscribe(|_this: &mut Bomb, m: &Message| {
            panic!("bomb exploded on payload {}", m.payload);
        });
        Bomb {
            ctx: ComponentContext::new(),
            net,
        }
    }
}
impl ComponentDefinition for Bomb {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Bomb"
    }
}

#[test]
fn handler_panic_becomes_fault_for_parent_supervisor() {
    struct Supervisor {
        ctx: ComponentContext,
        #[allow(dead_code)]
        child: Component<Bomb>,
        observed: Arc<Mutex<Option<Fault>>>,
    }
    impl Supervisor {
        fn new(observed: Arc<Mutex<Option<Fault>>>) -> Self {
            let ctx = ComponentContext::new();
            let child = ctx.create(Bomb::new);
            Supervisor {
                ctx,
                child,
                observed,
            }
        }
    }
    impl ComponentDefinition for Supervisor {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Supervisor"
        }
    }

    let system = collect_system();
    let observed: Arc<Mutex<Option<Fault>>> = Arc::new(Mutex::new(None));
    let supervisor = system.create({
        let o = observed.clone();
        move || Supervisor::new(o)
    });
    // Subscribe the supervisor's fault handler on the child's control port.
    let (child_ctrl, child_id) = supervisor
        .on_definition(|s| (s.child.control_ref(), s.child.id()))
        .unwrap();
    supervisor
        .on_definition(|s| {
            s.ctx
                .subscribe(&child_ctrl, |this: &mut Supervisor, fault: &Fault| {
                    *this.observed.lock() = Some(fault.clone());
                });
        })
        .unwrap();
    system.start(&supervisor);
    system.await_quiescence();

    let bomb_net = supervisor
        .on_definition(|s| s.child.required_ref::<Net>().unwrap())
        .unwrap();
    bomb_net
        .trigger(Message {
            destination: 0,
            payload: 13,
        })
        .unwrap();
    system.await_quiescence();

    let fault = observed
        .lock()
        .clone()
        .expect("fault observed by supervisor");
    assert_eq!(fault.component, child_id);
    assert!(fault.error.contains("bomb exploded on payload 13"));
    assert!(system.collected_faults().is_empty(), "fault was handled");
    system.shutdown();
}

#[test]
fn unhandled_fault_escalates_to_system_policy() {
    let system = collect_system();
    let bomb = system.create(Bomb::new);
    system.start(&bomb);
    bomb.required_ref::<Net>()
        .unwrap()
        .trigger(Message {
            destination: 0,
            payload: 5,
        })
        .unwrap();
    system.await_quiescence();
    let faults = system.collected_faults();
    assert_eq!(faults.len(), 1);
    assert!(faults[0].error.contains("bomb exploded"));
    assert_eq!(bomb.lifecycle(), LifecycleState::Faulty);
    system.shutdown();
}

// ---------------------------------------------------------------------------
// Channels & dynamic reconfiguration (paper §2.6)
// ---------------------------------------------------------------------------

#[test]
fn held_channels_buffer_and_resume_in_fifo_order() {
    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let echo = system.create(Echo::new);
    let recv = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r", s, l)
    });
    let provided = echo.provided_ref::<Net>().unwrap();
    let channel = connect(&provided, &recv.required_ref::<Net>().unwrap()).unwrap();
    system.start(&echo);
    system.start(&recv);

    channel.hold();
    for i in 0..10 {
        provided
            .trigger(Message {
                destination: 0,
                payload: i,
            })
            .unwrap();
    }
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 0, "held channel buffers");
    assert_eq!(channel.queued_len(), 10);

    channel.resume();
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 10);
    let expected: Vec<String> = (0..10).map(|i| format!("r:{}", i + 100)).collect();
    assert_eq!(*log.lock(), expected, "flushed in FIFO order");
    system.shutdown();
}

/// A system under either scheduler, and how to wait for it to go quiet.
fn both_schedulers() -> Vec<(KompicsSystem, Box<dyn Fn()>)> {
    let threaded = collect_system();
    let (sequential, sched) = KompicsSystem::sequential(Config::default());
    vec![
        (
            threaded.clone(),
            Box::new(move || threaded.await_quiescence()),
        ),
        (
            sequential,
            Box::new(move || {
                sched.run_until_quiescent();
            }),
        ),
    ]
}

/// The hold lands on a route that earlier triggers resolved and replayed:
/// every later trigger must notice, buffer, and come out of resume in order,
/// behind what was delivered before the hold and ahead of what follows.
#[test]
fn a_warm_route_loses_and_reorders_nothing_across_hold_and_resume() {
    for (system, settle) in both_schedulers() {
        let seen = Arc::new(AtomicUsize::new(0));
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let echo = system.create(Echo::new);
        let recv = system.create({
            let (s, l) = (seen.clone(), log.clone());
            move || Receiver::new("r", s, l)
        });
        let provided = echo.provided_ref::<Net>().unwrap();
        let channel = connect(&provided, &recv.required_ref::<Net>().unwrap()).unwrap();
        system.start(&echo);
        system.start(&recv);
        let send = |payload| {
            let destination = 0;
            provided
                .trigger(Message {
                    destination,
                    payload,
                })
                .unwrap();
        };

        (0..3).for_each(send);
        settle();
        assert_eq!(seen.load(Ordering::SeqCst), 3);

        channel.hold();
        (3..13).for_each(send);
        settle();
        assert_eq!(seen.load(Ordering::SeqCst), 3, "held channel buffers");
        assert_eq!(channel.queued_len(), 10);

        channel.resume();
        (13..16).for_each(send);
        settle();
        let expected: Vec<String> = (0..16).map(|i| format!("r:{}", i + 100)).collect();
        assert_eq!(*log.lock(), expected);
        system.shutdown();
    }
}

/// Subscribes from outside, on whatever port the test hands it.
struct Watcher {
    ctx: ComponentContext,
    log: Log,
}

impl ComponentDefinition for Watcher {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Watcher"
    }
}

/// A route resolved before a subscription must not outlive it: the second
/// trigger reaches the handler subscribed after the first, and a third no
/// longer reaches it once it is unsubscribed.
#[test]
fn a_handler_subscribed_after_the_first_trigger_is_reached_by_the_second() {
    for (system, settle) in both_schedulers() {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let echo = system.create(Echo::new);
        let watcher = system.create({
            let log = log.clone();
            move || Watcher {
                ctx: ComponentContext::new(),
                log,
            }
        });
        let provided = echo.provided_ref::<Net>().unwrap();
        system.start(&echo);
        system.start(&watcher);
        let send = |payload| {
            let destination = 0;
            provided
                .trigger(Message {
                    destination,
                    payload,
                })
                .unwrap();
            settle();
        };

        send(1);
        assert!(log.lock().is_empty(), "nobody listens yet");
        let handler = watcher
            .on_definition(|w| {
                w.ctx.subscribe(&provided, |w: &mut Watcher, m: &Message| {
                    w.log.lock().push(format!("w:{}", m.payload));
                })
            })
            .unwrap();
        send(2);
        assert_eq!(*log.lock(), ["w:102"]);
        let removed = watcher
            .on_definition(|w| w.ctx.unsubscribe(&provided, handler))
            .unwrap();
        assert!(removed);
        send(3);
        assert_eq!(*log.lock(), ["w:102"]);
        system.shutdown();
    }
}

#[test]
fn unplug_and_plug_moves_a_channel() {
    let system = collect_system();
    let seen_a = Arc::new(AtomicUsize::new(0));
    let seen_b = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let echo = system.create(Echo::new);
    let ra = system.create({
        let (s, l) = (seen_a.clone(), log.clone());
        move || Receiver::new("a", s, l)
    });
    let rb = system.create({
        let (s, l) = (seen_b.clone(), log.clone());
        move || Receiver::new("b", s, l)
    });
    let provided = echo.provided_ref::<Net>().unwrap();
    let channel = connect(&provided, &ra.required_ref::<Net>().unwrap()).unwrap();
    system.start(&echo);
    system.start(&ra);
    system.start(&rb);

    provided
        .trigger(Message {
            destination: 0,
            payload: 1,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(seen_a.load(Ordering::SeqCst), 1);

    channel.unplug_negative().unwrap();
    channel.plug(&rb.required_ref::<Net>().unwrap()).unwrap();
    provided
        .trigger(Message {
            destination: 0,
            payload: 2,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(seen_a.load(Ordering::SeqCst), 1, "a no longer connected");
    assert_eq!(seen_b.load(Ordering::SeqCst), 1, "b receives after plug");
    system.shutdown();
}

/// Counts messages; supports state transfer of its count.
struct CountingConsumer {
    ctx: ComponentContext,
    net: RequiredPort<Net>,
    count: u64,
    delivered: Arc<AtomicUsize>,
}
impl CountingConsumer {
    fn new(delivered: Arc<AtomicUsize>) -> Self {
        let net = RequiredPort::new();
        net.subscribe(|this: &mut CountingConsumer, _m: &Message| {
            this.count += 1;
            this.delivered.fetch_add(1, Ordering::SeqCst);
        });
        CountingConsumer {
            ctx: ComponentContext::new(),
            net,
            count: 0,
            delivered,
        }
    }
}
impl ComponentDefinition for CountingConsumer {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "CountingConsumer"
    }
    fn extract_state(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(self.count))
    }
    fn install_state(&mut self, state: Box<dyn std::any::Any + Send>) {
        if let Ok(count) = state.downcast::<u64>() {
            self.count += *count;
        }
    }
}

/// Looped: by the time of the swap the producer's triggers are replaying a
/// resolved route through the channel being held, unplugged and re-plugged,
/// and where in that sequence a trigger lands differs from round to round.
#[test]
fn replace_component_without_dropping_events() {
    for _ in 0..12 {
        replace_mid_stream();
    }
}

fn replace_mid_stream() {
    let system = collect_system();
    let delivered = Arc::new(AtomicUsize::new(0));
    let echo = system.create(Echo::new);
    let old = system.create({
        let d = delivered.clone();
        move || CountingConsumer::new(d)
    });
    let provided = echo.provided_ref::<Net>().unwrap();
    connect(&provided, &old.required_ref::<Net>().unwrap()).unwrap();
    system.start(&echo);
    system.start(&old);

    const TOTAL: u64 = 2_000;
    let producer = {
        let provided = provided.clone();
        std::thread::spawn(move || {
            for i in 0..TOTAL {
                provided
                    .trigger(Message {
                        destination: 0,
                        payload: i,
                    })
                    .unwrap();
                if i % 128 == 0 {
                    std::thread::yield_now();
                }
            }
        })
    };
    // Replace mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let new = system.create({
        let d = delivered.clone();
        move || CountingConsumer::new(d)
    });
    replace_component(&old.erased(), &new.erased(), ReplaceOptions::default()).unwrap();
    producer.join().unwrap();
    system.await_quiescence();

    assert_eq!(
        delivered.load(Ordering::SeqCst) as u64,
        TOTAL,
        "no events dropped across the swap"
    );
    // The transferred count plus the new component's own deliveries covers
    // the whole stream.
    let final_count = new.on_definition(|c| c.count).unwrap();
    assert_eq!(final_count, TOTAL);
    assert_eq!(old.lifecycle(), LifecycleState::Destroyed);
    system.shutdown();
}

/// Declares only a `Pump` port — no `Net` — so it can never receive the
/// channels of a `Net`-connected component.
struct WrongPorts {
    ctx: ComponentContext,
    pump: RequiredPort<Pump>,
}
impl WrongPorts {
    fn new() -> Self {
        WrongPorts {
            ctx: ComponentContext::new(),
            pump: RequiredPort::new(),
        }
    }
}
impl ComponentDefinition for WrongPorts {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "WrongPorts"
    }
}

#[test]
fn failed_replace_resumes_channels_and_reactivates_old() {
    // Regression test: a replacement missing a port used to leave every held
    // channel buffering forever (and the old component passivated), silently
    // swallowing all traffic. A failed swap must now be a clean no-op.
    let system = collect_system();
    let delivered = Arc::new(AtomicUsize::new(0));
    let echo = system.create(Echo::new);
    let old = system.create({
        let d = delivered.clone();
        move || CountingConsumer::new(d)
    });
    let provided = echo.provided_ref::<Net>().unwrap();
    connect(&provided, &old.required_ref::<Net>().unwrap()).unwrap();
    system.start(&echo);
    system.start(&old);

    provided
        .trigger(Message {
            destination: 0,
            payload: 1,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(delivered.load(Ordering::SeqCst), 1);

    let new = system.create(WrongPorts::new);
    system.start(&new);
    let result = replace_component(&old.erased(), &new.erased(), ReplaceOptions::default());
    assert!(
        matches!(result, Err(CoreError::NoSuchPort { .. })),
        "swap must be rejected, got {result:?}"
    );

    // The held channel was resumed and the passivated original reactivated:
    // traffic still flows to the old component as if nothing happened.
    provided
        .trigger(Message {
            destination: 0,
            payload: 2,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(
        delivered.load(Ordering::SeqCst),
        2,
        "events still reach the original component after a failed swap"
    );
    assert_eq!(old.lifecycle(), LifecycleState::Active);
    system.shutdown();
}

#[test]
fn selector_channels_filter_events() {
    let system = collect_system();
    let seen_even = Arc::new(AtomicUsize::new(0));
    let seen_all = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let echo = system.create(Echo::new);
    let even = system.create({
        let (s, l) = (seen_even.clone(), log.clone());
        move || Receiver::new("even", s, l)
    });
    let all = system.create({
        let (s, l) = (seen_all.clone(), log.clone());
        move || Receiver::new("all", s, l)
    });
    let provided = echo.provided_ref::<Net>().unwrap();
    connect_with_selector(
        &provided,
        &even.required_ref::<Net>().unwrap(),
        Arc::new(|event, dir| {
            if dir != Direction::Positive {
                return true;
            }
            event_as::<Message>(event).is_some_and(|m| m.payload % 2 == 0)
        }),
    )
    .unwrap();
    connect(&provided, &all.required_ref::<Net>().unwrap()).unwrap();
    system.start(&echo);
    system.start(&even);
    system.start(&all);

    for i in 0..10u64 {
        provided
            .trigger(Message {
                destination: 0,
                payload: i,
            })
            .unwrap();
    }
    system.await_quiescence();
    assert_eq!(seen_all.load(Ordering::SeqCst), 10);
    assert_eq!(seen_even.load(Ordering::SeqCst), 5);
    system.shutdown();
}

#[test]
fn keyed_channels_route_by_destination() {
    let system = collect_system();
    let echo = system.create(Echo::new);
    let provided = echo.provided_ref::<Net>().unwrap();
    provided.set_key_extractor(Arc::new(|event, dir| {
        if dir != Direction::Positive {
            return None;
        }
        event_as::<Message>(event).map(|m| m.destination)
    }));

    let mut receivers = Vec::new();
    let mut counters = Vec::new();
    for node in 0..4u64 {
        let seen = Arc::new(AtomicUsize::new(0));
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let r = system.create({
            let (s, l) = (seen.clone(), log.clone());
            move || Receiver::new("node", s, l)
        });
        connect_keyed(&provided, &r.required_ref::<Net>().unwrap(), node).unwrap();
        system.start(&r);
        receivers.push(r);
        counters.push(seen);
    }
    system.start(&echo);

    // destination 2 gets three messages; destination 0 gets one.
    for _ in 0..3 {
        provided
            .trigger(Message {
                destination: 2,
                payload: 0,
            })
            .unwrap();
    }
    provided
        .trigger(Message {
            destination: 0,
            payload: 0,
        })
        .unwrap();
    system.await_quiescence();

    assert_eq!(counters[0].load(Ordering::SeqCst), 1);
    assert_eq!(counters[1].load(Ordering::SeqCst), 0);
    assert_eq!(counters[2].load(Ordering::SeqCst), 3);
    assert_eq!(counters[3].load(Ordering::SeqCst), 0);
    system.shutdown();
}

// ---------------------------------------------------------------------------
// Hierarchy pass-through
// ---------------------------------------------------------------------------

#[test]
fn composite_port_passes_through_to_child() {
    /// A composite that provides Net and delegates to an inner Echo.
    struct Composite {
        ctx: ComponentContext,
        net: ProvidedPort<Net>,
        #[allow(dead_code)]
        inner: Component<Echo>,
    }
    impl Composite {
        fn new() -> Self {
            let ctx = ComponentContext::new();
            let net = ProvidedPort::new();
            let inner = ctx.create(Echo::new);
            connect(&net.inside_ref(), &inner.provided_ref::<Net>().unwrap()).unwrap();
            Composite { ctx, net, inner }
        }
    }
    impl ComponentDefinition for Composite {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Composite"
        }
    }

    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let composite = system.create(Composite::new);
    let recv = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r", s, l)
    });
    let provided = composite.provided_ref::<Net>().unwrap();
    connect(&provided, &recv.required_ref::<Net>().unwrap()).unwrap();
    system.start(&composite);
    system.start(&recv);

    // Request goes through the composite's port into the inner Echo; the
    // echoed indication comes back out and reaches the receiver.
    provided
        .trigger(Message {
            destination: 0,
            payload: 5,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    assert_eq!(*log.lock(), vec!["r:105".to_string()]);
    system.shutdown();
}

// ---------------------------------------------------------------------------
// Execution model
// ---------------------------------------------------------------------------

#[test]
fn handlers_of_one_component_are_mutually_exclusive() {
    // A non-atomic counter would be corrupted by concurrent handler
    // execution; exact totals demonstrate mutual exclusion.
    let system = KompicsSystem::new(Config::default().workers(8).throughput(1));
    let delivered = Arc::new(AtomicUsize::new(0));
    let consumer = system.create({
        let d = delivered.clone();
        move || CountingConsumer::new(d)
    });
    system.start(&consumer);
    let port = consumer.required_ref::<Net>().unwrap();

    const THREADS: usize = 8;
    const PER_THREAD: usize = 1_000;
    let mut producers = Vec::new();
    for _ in 0..THREADS {
        let port = port.clone();
        producers.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                port.trigger(Message {
                    destination: 0,
                    payload: i as u64,
                })
                .unwrap();
            }
        }));
    }
    for p in producers {
        p.join().unwrap();
    }
    system.await_quiescence();
    let count = consumer.on_definition(|c| c.count).unwrap();
    assert_eq!(count, (THREADS * PER_THREAD) as u64);
    system.shutdown();
}

#[test]
fn sequential_scheduler_is_deterministic() {
    fn run_once() -> Vec<String> {
        let (system, scheduler) = KompicsSystem::sequential(Config::default().throughput(1));
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let echo = system.create(Echo::new);
        let provided = echo.provided_ref::<Net>().unwrap();
        let mut receivers = Vec::new();
        for i in 0..4 {
            let tag: &'static str = ["r0", "r1", "r2", "r3"][i];
            let r = system.create({
                let (s, l) = (Arc::new(AtomicUsize::new(0)), log.clone());
                move || Receiver::new(tag, s, l)
            });
            connect(&provided, &r.required_ref::<Net>().unwrap()).unwrap();
            system.start(&r);
            receivers.push(r);
        }
        system.start(&echo);
        for i in 0..16 {
            provided
                .trigger(Message {
                    destination: 0,
                    payload: i,
                })
                .unwrap();
        }
        scheduler.run_until_quiescent();
        let result = log.lock().clone();
        system.shutdown();
        result
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(a.len(), 64);
    assert_eq!(a, b, "identical execution order across runs");
}

#[test]
fn work_stealing_completes_large_fanout() {
    let system = KompicsSystem::new(Config::default().workers(4).throughput(4));
    let delivered = Arc::new(AtomicUsize::new(0));
    let mut consumers = Vec::new();
    for _ in 0..64 {
        let c = system.create({
            let d = delivered.clone();
            move || CountingConsumer::new(d)
        });
        system.start(&c);
        consumers.push(c);
    }
    for c in &consumers {
        let port = c.required_ref::<Net>().unwrap();
        for i in 0..100 {
            port.trigger(Message {
                destination: 0,
                payload: i,
            })
            .unwrap();
        }
    }
    system.await_quiescence();
    assert_eq!(delivered.load(Ordering::SeqCst), 64 * 100);
    system.shutdown();
}

#[test]
fn supervisor_replaces_faulty_child_via_reconfiguration() {
    // The §2.5 pattern: "the component can then replace the faulty
    // subcomponent with a new instance (through dynamic reconfiguration)".
    // A child that panics on a poison payload is hot-swapped by its parent
    // from within the parent's Fault handler; the stream keeps flowing.

    /// Panics on payload 13, counts everything else.
    struct Fragile {
        ctx: ComponentContext,
        #[allow(dead_code)]
        net: RequiredPort<Net>,
        seen: Arc<AtomicUsize>,
    }
    impl Fragile {
        fn new(seen: Arc<AtomicUsize>) -> Self {
            let net = RequiredPort::new();
            net.subscribe(|this: &mut Fragile, m: &Message| {
                if m.payload == 113 {
                    panic!("poison payload");
                }
                this.seen.fetch_add(1, Ordering::SeqCst);
            });
            Fragile {
                ctx: ComponentContext::new(),
                net,
                seen,
            }
        }
    }
    impl ComponentDefinition for Fragile {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Fragile"
        }
    }

    struct Supervisor {
        ctx: ComponentContext,
        child: Component<Fragile>,
        seen: Arc<AtomicUsize>,
        replacements: Arc<AtomicUsize>,
    }
    impl Supervisor {
        fn new(seen: Arc<AtomicUsize>, replacements: Arc<AtomicUsize>) -> Self {
            let ctx = ComponentContext::new();
            let child = ctx.create({
                let seen = seen.clone();
                move || Fragile::new(seen)
            });
            Supervisor {
                ctx,
                child,
                seen,
                replacements,
            }
        }
        fn watch(&self) {
            let ctrl = self.child.control_ref();
            self.ctx
                .subscribe(&ctrl, |this: &mut Supervisor, _fault: &Fault| {
                    let replacement = this.ctx.create({
                        let seen = this.seen.clone();
                        move || Fragile::new(seen)
                    });
                    kompics_core::reconfig::replace_component(
                        &this.child.erased(),
                        &replacement.erased(),
                        kompics_core::reconfig::ReplaceOptions::default(),
                    )
                    .expect("replace faulty child");
                    this.replacements.fetch_add(1, Ordering::SeqCst);
                    this.child = replacement;
                    this.watch();
                });
        }
    }
    impl ComponentDefinition for Supervisor {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Supervisor"
        }
    }

    let system = KompicsSystem::new(
        Config::default()
            .workers(2)
            .fault_policy(FaultPolicy::Collect),
    );
    let seen = Arc::new(AtomicUsize::new(0));
    let replacements = Arc::new(AtomicUsize::new(0));
    let echo = system.create(Echo::new);
    let supervisor = system.create({
        let (s, r) = (seen.clone(), replacements.clone());
        move || Supervisor::new(s, r)
    });
    supervisor.on_definition(|s| s.watch()).unwrap();
    let child_net = supervisor
        .on_definition(|s| s.child.required_ref::<Net>().unwrap())
        .unwrap();
    let provided = echo.provided_ref::<Net>().unwrap();
    connect(&provided, &child_net).unwrap();
    system.start(&echo);
    system.start(&supervisor);

    // Two good messages, one poison (echo adds 100, so send 13 → 113),
    // then two more good ones that must reach the *replacement*.
    provided
        .trigger(Message {
            destination: 0,
            payload: 1,
        })
        .unwrap();
    provided
        .trigger(Message {
            destination: 0,
            payload: 2,
        })
        .unwrap();
    system.await_quiescence();
    provided
        .trigger(Message {
            destination: 0,
            payload: 13,
        })
        .unwrap();
    system.await_quiescence();
    provided
        .trigger(Message {
            destination: 0,
            payload: 3,
        })
        .unwrap();
    provided
        .trigger(Message {
            destination: 0,
            payload: 4,
        })
        .unwrap();
    system.await_quiescence();

    assert_eq!(
        replacements.load(Ordering::SeqCst),
        1,
        "child replaced once"
    );
    assert_eq!(seen.load(Ordering::SeqCst), 4, "all good messages handled");
    assert!(
        system.collected_faults().is_empty(),
        "fault handled by supervisor"
    );
    system.shutdown();
}

#[test]
fn disconnect_removes_the_channel_and_drops_queued_events() {
    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let echo = system.create(Echo::new);
    let recv = system.create({
        let (s, l) = (seen.clone(), log.clone());
        move || Receiver::new("r", s, l)
    });
    let provided = echo.provided_ref::<Net>().unwrap();
    let channel = connect(&provided, &recv.required_ref::<Net>().unwrap()).unwrap();
    system.start(&echo);
    system.start(&recv);

    provided
        .trigger(Message {
            destination: 0,
            payload: 1,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 1);

    // Hold with traffic queued, then disconnect: queued events are dropped
    // (paper §2.2: disconnect undoes connect).
    channel.hold();
    provided
        .trigger(Message {
            destination: 0,
            payload: 2,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(channel.queued_len(), 1);
    channel.disconnect();
    assert_eq!(channel.queued_len(), 0);
    provided
        .trigger(Message {
            destination: 0,
            payload: 3,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(
        seen.load(Ordering::SeqCst),
        1,
        "no delivery after disconnect"
    );
    system.shutdown();
}

#[test]
fn parent_unsubscribes_its_handler_on_a_child_port() {
    struct Watcher {
        ctx: ComponentContext,
        child: Component<Echo>,
        handler: Option<HandlerId>,
        seen: Arc<AtomicUsize>,
    }
    impl Watcher {
        fn new(seen: Arc<AtomicUsize>) -> Self {
            let ctx = ComponentContext::new();
            let child = ctx.create(Echo::new);
            Watcher {
                ctx,
                child,
                handler: None,
                seen,
            }
        }
        fn watch(&mut self) {
            let port = self.child.provided_ref::<Net>().unwrap();
            self.handler = Some(
                self.ctx
                    .subscribe(&port, |this: &mut Watcher, _m: &Message| {
                        this.seen.fetch_add(1, Ordering::SeqCst);
                    }),
            );
        }
        fn unwatch(&mut self) {
            if let Some(id) = self.handler.take() {
                let port = self.child.provided_ref::<Net>().unwrap();
                assert!(this_unsubscribe(&self.ctx, &port, id));
            }
        }
    }
    fn this_unsubscribe(
        ctx: &ComponentContext,
        port: &kompics_core::port::PortRef<Net>,
        id: HandlerId,
    ) -> bool {
        ctx.unsubscribe(port, id)
    }
    impl ComponentDefinition for Watcher {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Watcher"
        }
    }

    let system = collect_system();
    let seen = Arc::new(AtomicUsize::new(0));
    let watcher = system.create({
        let s = seen.clone();
        move || Watcher::new(s)
    });
    system.start(&watcher);
    watcher.on_definition(|w| w.watch()).unwrap();
    let child_port = watcher
        .on_definition(|w| w.child.provided_ref::<Net>().unwrap())
        .unwrap();

    // The child's echo (+100) indication is observed by the parent.
    child_port
        .trigger(Message {
            destination: 0,
            payload: 1,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 1);

    watcher.on_definition(|w| w.unwatch()).unwrap();
    child_port
        .trigger(Message {
            destination: 0,
            payload: 2,
        })
        .unwrap();
    system.await_quiescence();
    assert_eq!(seen.load(Ordering::SeqCst), 1, "handler unsubscribed");
    system.shutdown();
}
