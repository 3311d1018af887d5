//! `ThreadTimer`: the real-time Timer implementation.
//!
//! A dedicated thread sleeps until the earliest deadline in a binary heap
//! and triggers the scheduled [`Timeout`] indications on the component's
//! provided [`Timer`] port. One-shot and periodic schedules are supported;
//! cancellation is lazy: `live` holds the ids that are armed and not
//! cancelled, a cancel only removes from it, and an entry that surfaces
//! without its id there is skipped. The set is therefore never larger than
//! the heap, whatever is cancelled and however often (and an id armed
//! twice while the first is pending fires once, as under `SimTimer`). The
//! thread is woken only by an arm that becomes the earliest deadline — a
//! later one is found when the thread next looks.
//!
//! The timer thread cooperates with mailbox back-pressure: each firing uses
//! the feedback-reporting trigger, and when a destination's bounded `Block`
//! lane signals pushback the thread pauses briefly before delivering the
//! next expiry, so a timeout flood cannot overrun a saturated component.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kompics_core::event::EventRef;
use kompics_core::port::PortRef;
use kompics_core::prelude::*;
use parking_lot::{Condvar, Mutex};

use crate::events::{
    CancelPeriodicTimeout, CancelTimeout, SchedulePeriodicTimeout, ScheduleTimeout, TimeoutId,
    Timer,
};

struct Entry {
    deadline: Instant,
    id: TimeoutId,
    event: EventRef,
    period: Option<Duration>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.id == other.id
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deadline
            .cmp(&other.deadline)
            .then(self.id.cmp(&other.id))
    }
}

#[derive(Default)]
struct TimerState {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Ids in `heap` that have not been cancelled.
    live: HashSet<TimeoutId>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<TimerState>,
    cv: Condvar,
    /// How long the timer thread pauses after a firing that reported
    /// mailbox pushback.
    pushback_pause: Duration,
    /// Pauses taken because a firing reported pushback.
    pushback_pauses: AtomicU64,
    /// Times the timer thread came back from waiting on `cv`.
    #[cfg(test)]
    wakeups: AtomicU64,
}

/// Real-time timer component: provides [`Timer`], backed by a timer thread.
///
/// The thread is spawned lazily when the component handles its [`Start`] and
/// shut down when the component is dropped.
pub struct ThreadTimer {
    ctx: ComponentContext,
    timer: ProvidedPort<Timer>,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ThreadTimer {
    /// Creates the timer component (call inside a `create` closure). The
    /// pushback pause defaults to 1 ms; tune it with
    /// [`ThreadTimer::with_pushback_pause`].
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self::with_pushback_pause(Duration::from_millis(1))
    }

    /// Like [`ThreadTimer::new`], with an explicit pause taken by the timer
    /// thread whenever a delivered timeout reports mailbox pushback (a
    /// saturated `Block` lane at the destination).
    pub fn with_pushback_pause(pushback_pause: Duration) -> Self {
        let ctx = ComponentContext::new();
        let timer: ProvidedPort<Timer> = ProvidedPort::new();
        let shared = Arc::new(Shared {
            state: Mutex::new(TimerState::default()),
            cv: Condvar::new(),
            pushback_pause,
            pushback_pauses: AtomicU64::new(0),
            #[cfg(test)]
            wakeups: AtomicU64::new(0),
        });

        timer.subscribe(|this: &mut ThreadTimer, req: &ScheduleTimeout| {
            this.schedule(req.id, req.delay, None, req.timeout.clone());
        });
        timer.subscribe(|this: &mut ThreadTimer, req: &SchedulePeriodicTimeout| {
            this.schedule(req.id, req.delay, Some(req.period), req.timeout.clone());
        });
        timer.subscribe(|this: &mut ThreadTimer, req: &CancelTimeout| {
            this.cancel(req.id);
        });
        timer.subscribe(|this: &mut ThreadTimer, req: &CancelPeriodicTimeout| {
            this.cancel(req.id);
        });
        ctx.subscribe_control(|this: &mut ThreadTimer, _start: &Start| {
            this.ensure_thread();
        });

        ThreadTimer {
            ctx,
            timer,
            shared,
            thread: None,
        }
    }

    /// Number of pauses the timer thread has taken because a delivered
    /// timeout reported mailbox pushback.
    pub fn pushback_pauses(&self) -> u64 {
        self.shared.pushback_pauses.load(Ordering::Relaxed)
    }

    fn schedule(
        &mut self,
        id: TimeoutId,
        delay: Duration,
        period: Option<Duration>,
        event: EventRef,
    ) {
        // komlint: allow(wall-clock) reason="ThreadTimer IS the real-time timer implementation; simulation swaps in SimTimer"
        let deadline = Instant::now() + delay;
        let earliest = {
            let mut state = self.shared.state.lock();
            let earliest = (state.heap.peek()).is_none_or(|Reverse(next)| deadline < next.deadline);
            state.live.insert(id);
            state.heap.push(Reverse(Entry {
                deadline,
                id,
                event,
                period,
            }));
            earliest
        };
        // The thread sleeps until the heap's earliest deadline: only an
        // earlier one is news to it.
        if earliest {
            self.shared.cv.notify_all();
        }
    }

    fn cancel(&mut self, id: TimeoutId) {
        // Nothing to wake for: the entry is skipped when it surfaces.
        self.shared.state.lock().live.remove(&id);
    }

    fn ensure_thread(&mut self) {
        if self.thread.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        // The inside half of the provided port: triggering on it sends
        // positive (indication) events out, exactly like the owner would.
        let port: PortRef<Timer> = self.timer.inside_ref();
        let handle = std::thread::Builder::new()
            .name("kompics-timer".into())
            .spawn(move || timer_loop(shared, port))
            .expect("spawn timer thread");
        self.thread = Some(handle);
    }
}

fn timer_loop(shared: Arc<Shared>, port: PortRef<Timer>) {
    loop {
        let due: Option<Entry> = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                match state.heap.peek() {
                    None => {
                        shared.cv.wait(&mut state);
                        #[cfg(test)]
                        shared.wakeups.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(Reverse(next)) => {
                        // komlint: allow(wall-clock) reason="expiry check on the dedicated timer thread of the real-time timer"
                        let now = Instant::now();
                        if next.deadline <= now {
                            let entry = state.heap.pop().expect("peeked").0;
                            // A one-shot leaves `live` as it fires; a periodic
                            // entry stays until it is cancelled.
                            let live = match entry.period {
                                None => state.live.remove(&entry.id),
                                Some(_) => state.live.contains(&entry.id),
                            };
                            break live.then_some(entry);
                        }
                        let wait = next.deadline - now;
                        shared.cv.wait_for(&mut state, wait);
                        #[cfg(test)]
                        shared.wakeups.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        };
        // `None`: the entry that surfaced had been cancelled.
        if let Some(entry) = due {
            match port.trigger_shared(entry.event.clone()) {
                Ok(feedback) if feedback.pushback => {
                    // A destination's Block lane is saturated: pause the
                    // producer so a timeout flood respects mailbox
                    // back-pressure instead of overrunning the component.
                    shared.pushback_pauses.fetch_add(1, Ordering::Relaxed);
                    // komlint: allow(blocking-sleep) reason="pushback pause on the dedicated timer thread is the backpressure response itself"
                    std::thread::sleep(shared.pushback_pause);
                }
                _ => {}
            }
            if let Some(period) = entry.period {
                let mut state = shared.state.lock();
                if !state.live.contains(&entry.id) {
                    continue; // cancelled while it was being delivered
                }
                state.heap.push(Reverse(Entry {
                    // komlint: allow(wall-clock) reason="periodic re-arm on the dedicated timer thread of the real-time timer"
                    deadline: Instant::now() + period,
                    id: entry.id,
                    event: entry.event,
                    period: Some(period),
                }));
            }
        }
    }
}

impl ComponentDefinition for ThreadTimer {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "ThreadTimer"
    }
}

impl Drop for ThreadTimer {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.cv.notify_all();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Timeout;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Clone)]
    struct TestTimeout {
        base: Timeout,
        tag: u64,
    }
    kompics_core::impl_event!(TestTimeout, extends Timeout, via base);

    /// Requires Timer; counts received timeouts per tag.
    struct TimerUser {
        ctx: ComponentContext,
        timer: RequiredPort<Timer>,
        fired: Arc<Mutex<Vec<u64>>>,
        count: Arc<AtomicUsize>,
    }
    impl TimerUser {
        fn new(fired: Arc<Mutex<Vec<u64>>>, count: Arc<AtomicUsize>) -> Self {
            let timer = RequiredPort::new();
            timer.subscribe(|this: &mut TimerUser, t: &TestTimeout| {
                this.fired.lock().push(t.tag);
                this.count.fetch_add(1, Ordering::SeqCst);
            });
            TimerUser {
                ctx: ComponentContext::new(),
                timer,
                fired,
                count,
            }
        }
        fn schedule(&self, delay_ms: u64, tag: u64) -> TimeoutId {
            let id = TimeoutId::fresh();
            let timeout = TestTimeout {
                base: Timeout { id },
                tag,
            };
            self.timer.trigger(ScheduleTimeout::new(
                Duration::from_millis(delay_ms),
                id,
                Arc::new(timeout),
            ));
            id
        }
    }
    impl ComponentDefinition for TimerUser {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "TimerUser"
        }
    }

    type Fixture = (
        KompicsSystem,
        Component<ThreadTimer>,
        Component<TimerUser>,
        Arc<Mutex<Vec<u64>>>,
        Arc<AtomicUsize>,
    );

    fn setup() -> Fixture {
        let system = KompicsSystem::new(Config::default().workers(2));
        let timer = system.create(ThreadTimer::new);
        let fired = Arc::new(Mutex::new(Vec::new()));
        let count = Arc::new(AtomicUsize::new(0));
        let user = system.create({
            let (f, c) = (fired.clone(), count.clone());
            move || TimerUser::new(f, c)
        });
        kompics_core::channel::connect(
            &timer.provided_ref::<Timer>().unwrap(),
            &user.required_ref::<Timer>().unwrap(),
        )
        .unwrap();
        system.start(&timer);
        system.start(&user);
        (system, timer, user, fired, count)
    }

    fn wait_for(count: &AtomicUsize, target: usize, timeout_ms: u64) -> bool {
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        while Instant::now() < deadline {
            if count.load(Ordering::SeqCst) >= target {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn one_shot_timeout_fires() {
        let (system, _timer, user, fired, count) = setup();
        user.on_definition(|u| u.schedule(10, 7)).unwrap();
        assert!(wait_for(&count, 1, 2_000));
        assert_eq!(*fired.lock(), vec![7]);
        system.shutdown();
    }

    #[test]
    fn timeouts_fire_in_deadline_order() {
        let (system, _timer, user, fired, count) = setup();
        user.on_definition(|u| {
            u.schedule(60, 2);
            u.schedule(10, 1);
        })
        .unwrap();
        assert!(wait_for(&count, 2, 2_000));
        assert_eq!(*fired.lock(), vec![1, 2]);
        system.shutdown();
    }

    #[test]
    fn cancelled_timeout_does_not_fire() {
        let (system, _timer, user, fired, count) = setup();
        let id = user.on_definition(|u| u.schedule(80, 9)).unwrap();
        user.on_definition(|u| u.timer.trigger(CancelTimeout { id }))
            .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert!(fired.lock().is_empty());
        system.shutdown();
    }

    #[test]
    fn an_arm_later_than_the_earliest_deadline_does_not_wake_the_thread() {
        let (system, timer, user, _fired, count) = setup();
        let wakeups = |t: &Component<ThreadTimer>| {
            t.on_definition(|t| t.shared.wakeups.load(Ordering::Relaxed))
                .unwrap()
        };
        // Whether or not the first arm found the thread waiting already, it
        // ends up asleep until that deadline, an hour away.
        user.on_definition(|u| u.schedule(3_600_000, 1)).unwrap();
        system.await_quiescence();
        std::thread::sleep(Duration::from_millis(50));
        let asleep = wakeups(&timer);
        // Later deadlines, and cancels, are none of its business...
        let ids: Vec<TimeoutId> = user
            .on_definition(|u| (0..100).map(|i| u.schedule(7_200_000 + i, 2)).collect())
            .unwrap();
        user.on_definition(|u| {
            for id in ids {
                u.timer.trigger(CancelTimeout { id });
            }
        })
        .unwrap();
        system.await_quiescence();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(wakeups(&timer), asleep);
        // ... an earlier one is.
        user.on_definition(|u| u.schedule(1, 3)).unwrap();
        assert!(wait_for(&count, 1, 2_000));
        assert!(wakeups(&timer) > asleep);
        system.shutdown();
    }

    #[test]
    fn cancelling_what_fired_or_never_existed_leaves_nothing_behind() {
        let (system, timer, user, _fired, count) = setup();
        const N: usize = 10_000;
        let ids: Vec<TimeoutId> = user
            .on_definition(|u| (0..N).map(|_| u.schedule(0, 1)).collect())
            .unwrap();
        assert!(wait_for(&count, N, 10_000));
        user.on_definition(|u| {
            for id in ids {
                u.timer.trigger(CancelTimeout { id });
                u.timer.trigger(CancelTimeout {
                    id: TimeoutId::fresh(),
                });
            }
        })
        .unwrap();
        system.await_quiescence();
        let (heap, live) = timer
            .on_definition(|t| {
                let state = t.shared.state.lock();
                (state.heap.len(), state.live.len())
            })
            .unwrap();
        assert_eq!((heap, live), (0, 0));
        // A cancel that does find its entry still stops it.
        let id = user.on_definition(|u| u.schedule(50, 2)).unwrap();
        user.on_definition(|u| u.timer.trigger(CancelTimeout { id }))
            .unwrap();
        system.await_quiescence();
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(count.load(Ordering::SeqCst), N);
        let state = timer.on_definition(|t| t.shared.state.lock().heap.len());
        assert_eq!(state.unwrap(), 0, "the cancelled entry surfaced and went");
        system.shutdown();
    }

    /// Requires Timer; bounded Block mailbox and a slow handler, so a
    /// timeout flood saturates the lane and signals pushback.
    struct SlowTimerUser {
        ctx: ComponentContext,
        timer: RequiredPort<Timer>,
        count: Arc<AtomicUsize>,
    }
    impl SlowTimerUser {
        fn new(count: Arc<AtomicUsize>) -> Self {
            let timer = RequiredPort::new();
            timer.subscribe(|this: &mut SlowTimerUser, _t: &TestTimeout| {
                std::thread::sleep(Duration::from_millis(3));
                this.count.fetch_add(1, Ordering::SeqCst);
            });
            SlowTimerUser {
                ctx: ComponentContext::new(),
                timer,
                count,
            }
        }
    }
    impl ComponentDefinition for SlowTimerUser {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "SlowTimerUser"
        }
        fn mailbox_spec(&self) -> MailboxSpec {
            MailboxSpec::bounded_data(2, OverloadPolicy::Block)
        }
    }

    #[test]
    fn timeout_flood_respects_mailbox_pushback() {
        let system = KompicsSystem::new(Config::default().workers(2));
        let timer = system.create(|| ThreadTimer::with_pushback_pause(Duration::from_millis(1)));
        let count = Arc::new(AtomicUsize::new(0));
        let user = system.create({
            let c = count.clone();
            move || SlowTimerUser::new(c)
        });
        kompics_core::channel::connect(
            &timer.provided_ref::<Timer>().unwrap(),
            &user.required_ref::<Timer>().unwrap(),
        )
        .unwrap();
        system.start(&timer);
        system.start(&user);

        const FLOOD: usize = 20;
        user.on_definition(|u| {
            for i in 0..FLOOD {
                let id = TimeoutId::fresh();
                let timeout = TestTimeout {
                    base: Timeout { id },
                    tag: i as u64,
                };
                u.timer.trigger(ScheduleTimeout::new(
                    Duration::from_millis(1),
                    id,
                    Arc::new(timeout),
                ));
            }
        })
        .unwrap();

        // Block admits everything, so nothing is lost — deliveries just
        // slow down while the lane is saturated.
        assert!(wait_for(&count, FLOOD, 10_000));
        let pauses = timer.on_definition(|t| t.pushback_pauses()).unwrap();
        assert!(
            pauses > 0,
            "timer thread should have paused on pushback at least once"
        );
        system.shutdown();
    }

    #[test]
    fn periodic_timeout_fires_repeatedly_until_cancelled() {
        let (system, _timer, user, _fired, count) = setup();
        let id = TimeoutId::fresh();
        user.on_definition(|u| {
            let timeout = TestTimeout {
                base: Timeout { id },
                tag: 1,
            };
            u.timer.trigger(SchedulePeriodicTimeout::new(
                Duration::from_millis(5),
                Duration::from_millis(5),
                id,
                Arc::new(timeout),
            ));
        })
        .unwrap();
        assert!(wait_for(&count, 3, 2_000));
        user.on_definition(|u| u.timer.trigger(CancelPeriodicTimeout { id }))
            .unwrap();
        system.await_quiescence();
        let settled = count.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(100));
        // At most one in-flight firing may land after the cancel.
        assert!(count.load(Ordering::SeqCst) <= settled + 1);
        system.shutdown();
    }
}
