//! The multi-core scheduler (production mode): **sharded run queues with
//! component-to-worker affinity**.
//!
//! The first-generation design (per-worker deques + one shared injector +
//! uniform stealing) collapsed under fan-in: every external schedule
//! crossed the global injector, every idle worker hammered every victim,
//! and a component's events bounced between cores on every slice. This
//! design shards the scheduler state so the hot paths touch only
//! core-local structures:
//!
//! * **Shards.** Every worker owns exactly one shard (shard `w` belongs to
//!   worker `w`). A shard is a private run queue (popped only under its
//!   lock, almost always by its owner) plus a bounded lock-free *inbound
//!   ring* ([`BoundedRing`]) where other threads hand off work without
//!   taking the queue lock.
//! * **Affinity.** Every component has a *home shard* — initially the pure
//!   hash [`affinity::home_shard`] of its id — carried on the component as
//!   a [`HomeHint`]. The scheduled-flag handoff in
//!   [`ComponentCore::try_schedule`](crate::component) delivers the
//!   component here exactly once; `schedule` routes it to its home shard,
//!   so a component's slices keep executing on one worker and its state
//!   stays in one core's cache.
//! * **Single-producer fast path.** When the triggering component already
//!   runs on the home shard's owner (the common case: synchronous trigger
//!   chains stay on one worker), the push is a plain locked `push_back`
//!   with no signalling at all — no SeqCst epoch bump, no sleeper check,
//!   no unpark.
//! * **Batched cross-worker handoff.** Pushes from other workers or from
//!   external threads go through the home shard's inbound ring; the owner
//!   drains the whole ring into its run queue in one sweep per loop
//!   iteration. A full ring falls back to the victim's queue lock (counted
//!   as an `overflow`) — handoff never blocks and never drops.
//! * **Lazy wake / pull migration.** If a pool worker triggers a component
//!   whose home owner is *parked*, waking it would cost an unpark
//!   round-trip just to run one component on a cold core. Instead the
//!   caller re-homes the component onto its own shard and keeps it local.
//!   Ping-pong pairs therefore coalesce onto one worker instead of paying
//!   a park/unpark per hop; load spreads back out through helper wakes and
//!   stealing when a shard's backlog grows.
//! * **Stealing is the last resort.** Only a worker with *nothing* in any
//!   of its own shards probes others, picks victims by descending queue
//!   depth (load-aware, not round-robin), and grabs up to `steal_batch`
//!   components in one lock acquisition. A component executed by a thief
//!   records a *steal streak* on its hint; a streak of
//!   [`MIGRATE_STREAK`] consecutive stolen slices re-homes it onto the
//!   thief — sustained imbalance migrates components instead of paying
//!   steal traffic forever.
//!
//! ## Wakeup protocol
//!
//! Parking is untimed ([`std::thread::park`], woken through the workers'
//! [`Thread`] handles); sleep/wake linearize through per-shard SeqCst
//! epochs plus one global sleeper *bitmask* (`1 << worker`, hence the
//! [`affinity::MAX_WORKERS`] cap):
//!
//! * a producer publishes the component (ring or queue), bumps the home
//!   shard's `epoch` (SeqCst), and — only if the owner's bit is set in
//!   `sleepers` — clears the bit with a `fetch_and` and unparks exactly
//!   that worker (winning the `fetch_and` makes the unpark exclusive);
//! * a worker that found no work records its shard's epoch, rescans
//!   (including a steal sweep), sets its sleeper bit, **re-checks** the
//!   epoch and shutdown flag, and only then parks.
//!
//! In the SeqCst total order, either the producer's epoch bump precedes
//! the worker's re-check (the worker retracts and rescans; the bump's
//! happens-before edge makes the push visible), or the worker's
//! `fetch_or` precedes the producer's sleeper check (the producer sees the
//! bit and unparks it; the thread's park token makes an early unpark
//! stick). No interleaving loses a wakeup, and — because every cross-shard
//! push wakes the *home* owner, owner-local pushes mean the owner is awake
//! by definition, and the lazy-wake path keeps the component on the
//! *awake* caller — every enqueued event is executed after a bounded
//! number of park/unpark cycles (`sched_props.rs` pins this).
//!
//! std's park token belongs to the *thread*, not to this protocol: a
//! handler that blocks in a std channel, or calls `unpark` on its own
//! thread, can leave a stale token behind, and `park` may also return
//! spuriously. Either makes one `park()` return early, which is harmless —
//! after every return the worker clears its sleeper bit and rescans from
//! the top, so an early return costs one extra scan and never skips the
//! announce → re-check → park sequence. The converse cannot happen: a
//! worker's bit is set only between its announcement and its return from
//! `park`, so `wake_worker`/`wake_helper` never unpark a thread that is
//! inside a handler.
//!
//! Backlog crossing [`HELP_DEPTH`] multiples additionally wakes one extra
//! sleeper per crossing (helper wake), which is how fan-in load spreads
//! across cores: helpers steal a batch, build their own streaks, and the
//! migration policy re-homes the hot components onto them.
//!
//! ## Fault injection
//!
//! [`SchedulerSpec::stall_at`](crate::config::SchedulerSpec) plants
//! deterministic worker stalls (worker, after-N-slices, duration) used by
//! the scheduler test suite to prove protocol properties are
//! stall-independent (e.g. CATS linearizability under a stalled worker).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use parking_lot::Mutex;

use crate::component::{ComponentCore, ExecuteResult};
use crate::config::{SchedulerSpec, WorkerStall};
use crate::sched::affinity::{self, home_shard};
use crate::sched::ring::BoundedRing;
use crate::sched::{Scheduler, SchedulerStats, ShardStats};

/// How many quick rescans an idle worker performs (with brief spins in
/// between) before committing to the announce-and-park path. Parking costs
/// a syscall round-trip; a short bounded spin absorbs the common case of
/// work arriving immediately after a queue ran dry.
const SPIN_RESCANS: usize = 2;
const SPINS_PER_RESCAN: usize = 64;

/// Consecutive slices executed by thieves after which a component's home
/// moves to the stealing worker: sustained imbalance migrates the
/// component once instead of stealing it forever.
const MIGRATE_STREAK: u32 = 3;

/// Every time a shard's backlog crosses a multiple of this depth, the
/// pusher wakes one additional sleeping worker (beyond the shard's owner)
/// to come steal — the mechanism that fans a hot shard out across cores.
const HELP_DEPTH: usize = 8;

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (pool id, worker index) for pool worker threads — lets `schedule`
    /// recognize calls made from inside the pool and use the owner-local
    /// fast path.
    static LOCAL: std::cell::Cell<Option<(u64, usize)>> = const { std::cell::Cell::new(None) };
}

/// One run queue plus its inbound handoff ring.
struct Shard {
    /// The run queue. Popped from the front by the owner; thieves take a
    /// batch from the front under the same lock (oldest first). Uncontended
    /// in steady state — cross-thread traffic goes through `inbound`.
    queue: Mutex<VecDeque<Arc<ComponentCore>>>,
    /// Bounded lock-free landing pad for cross-worker handoffs; drained
    /// into `queue` by whoever next holds the queue lock.
    inbound: BoundedRing<Arc<ComponentCore>>,
    /// Logical occupancy (ring + queue): bumped before a push completes,
    /// decremented when a pop hands a component to a worker. SeqCst so the
    /// pre-park steal sweep and victim selection see pushes promptly.
    depth: AtomicUsize,
    /// Per-shard scheduling epoch for the park protocol (see module docs).
    epoch: AtomicU64,
    /// Slices executed by this shard's owning worker.
    executed: AtomicU64,
    /// Components stolen *away* from this shard by thieves.
    stolen: AtomicU64,
}

impl Shard {
    fn new(inbound_capacity: usize) -> Self {
        Shard {
            queue: Mutex::new(VecDeque::new()),
            inbound: BoundedRing::with_capacity(inbound_capacity),
            depth: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        }
    }
}

struct Pool {
    id: u64,
    steal_batch: usize,
    /// One shard per worker: shard `w` is owned by worker `w`.
    shards: Vec<Shard>,
    /// The workers' thread handles, set by `with_spec` before it returns.
    /// Nothing can be scheduled before that, so every `wake_*` and
    /// `shutdown` call finds them.
    threads: OnceLock<Vec<Thread>>,
    /// Bitmask of parked (or irrevocably about-to-park) workers; bit
    /// `1 << worker`. Producers wake a worker by winning the `fetch_and`
    /// that clears its bit.
    sleepers: AtomicU64,
    steal_attempts: AtomicU64,
    steal_successes: AtomicU64,
    parks: AtomicU64,
    /// Cross-shard handoffs that landed in an inbound ring.
    handoffs: AtomicU64,
    /// Cross-shard handoffs that found the ring full and fell back to the
    /// victim's queue lock.
    overflows: AtomicU64,
    /// Home re-assignments (steal-streak migrations + lazy-wake pulls).
    migrations: AtomicU64,
    stalls: Vec<WorkerStall>,
    shutdown: AtomicBool,
}

impl Pool {
    fn unpark(&self, worker: usize) {
        self.threads.get().expect("set before with_spec returns")[worker].unpark();
    }

    /// Wakes `worker` iff its sleeper bit is set; winning the `fetch_and`
    /// makes the unpark exclusive to one producer.
    fn wake_worker(&self, worker: usize) {
        let bit = 1u64 << worker;
        if self.sleepers.load(Ordering::SeqCst) & bit != 0
            && self.sleepers.fetch_and(!bit, Ordering::SeqCst) & bit != 0
        {
            self.unpark(worker);
        }
    }

    /// Wakes one sleeping worker other than `except` (helper wake: come
    /// steal from a backlogged shard). An out-of-range `except` excludes
    /// nobody.
    fn wake_helper(&self, except: usize) {
        let except_mask = match except {
            0..affinity::MAX_WORKERS => 1u64 << except,
            _ => 0,
        };
        let mut mask = self.sleepers.load(Ordering::SeqCst) & !except_mask;
        while mask != 0 {
            let worker = mask.trailing_zeros() as usize;
            let bit = 1u64 << worker;
            if self.sleepers.fetch_and(!bit, Ordering::SeqCst) & bit != 0 {
                self.unpark(worker);
                return;
            }
            mask &= !bit;
        }
    }

    /// Routes one freshly claimed component to a shard and signals as
    /// needed. `caller` is the pool worker index when invoked from a worker
    /// thread.
    fn dispatch(&self, component: Arc<ComponentCore>, caller: Option<usize>) {
        let owner = self.route(&component, caller);
        let target = &self.shards[owner];
        // Count before the push completes so steal sweeps racing this push
        // either see the item or over-estimate (harmless) — never under.
        let depth_after = target.depth.fetch_add(1, Ordering::SeqCst) + 1;
        if caller == Some(owner) {
            // Owner-local fast path: the owner is by definition awake and
            // will rescan its queue before parking — no signalling.
            target.queue.lock().push_back(component);
        } else {
            match target.inbound.push(component) {
                Ok(()) => {
                    self.handoffs.fetch_add(1, Ordering::Relaxed);
                }
                Err(component) => {
                    target.queue.lock().push_back(component);
                    self.overflows.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Publish-then-signal (module docs): the epoch bump is SeqCst
            // and follows the push, so the owner's pre-park re-check or
            // the sleeper-bit handshake below catches it.
            target.epoch.fetch_add(1, Ordering::SeqCst);
            self.wake_worker(owner);
        }
        // Backlog crossing a HELP_DEPTH multiple recruits one extra
        // sleeper to steal from this shard.
        if depth_after >= HELP_DEPTH && depth_after.is_multiple_of(HELP_DEPTH) {
            self.wake_helper(owner);
        }
    }

    /// Picks the shard (= worker) for a component: its home shard, except
    /// that a pool worker pulls the component onto its own shard when the
    /// home owner is parked (lazy wake).
    fn route(&self, component: &ComponentCore, caller: Option<usize>) -> usize {
        let hint = component.home_hint();
        let home = hint.home_or_assign(home_shard(component.id().raw(), self.shards.len()));
        if let Some(worker) = caller {
            if home != worker && self.sleepers.load(Ordering::SeqCst) & (1u64 << home) != 0 {
                // Lazy wake: the home owner is asleep; keep the work on
                // this (awake, warm) worker and move the home with it.
                hint.set_home(worker);
                self.migrations.fetch_add(1, Ordering::Relaxed);
                return worker;
            }
        }
        home
    }
}

/// A pool of worker threads over sharded run queues with component
/// affinity. See the module documentation.
pub struct WorkStealingScheduler {
    pool: Arc<Pool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkStealingScheduler {
    /// Creates a scheduler with `workers` threads and the default
    /// [`SchedulerSpec`].
    pub fn new(workers: usize) -> Arc<Self> {
        Self::with_spec(workers, SchedulerSpec::default())
    }

    /// Creates a scheduler from a full [`SchedulerSpec`]. Workers clamp to
    /// `1..=`[`affinity::MAX_WORKERS`] (the sleeper set is one `u64`
    /// bitmask).
    pub fn with_spec(workers: usize, spec: SchedulerSpec) -> Arc<Self> {
        let workers = workers.clamp(1, affinity::MAX_WORKERS);
        let shards = (0..workers)
            .map(|_| Shard::new(spec.ring_capacity()))
            .collect();
        let pool = Arc::new(Pool {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            steal_batch: spec.steal_batch_size().max(1),
            shards,
            threads: OnceLock::new(),
            sleepers: AtomicU64::new(0),
            steal_attempts: AtomicU64::new(0),
            steal_successes: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            stalls: spec.stalls().to_vec(),
            shutdown: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(workers);
        for index in 0..workers {
            let pool = Arc::clone(&pool);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("kompics-worker-{index}"))
                    .spawn(move || worker_loop(pool, index))
                    .expect("spawn scheduler worker"),
            );
        }
        // Workers that already ran dry are parked with their sleeper bit
        // set; nobody can wake them before the first `schedule`, which
        // needs the value returned below.
        pool.threads
            .set(threads.iter().map(|h| h.thread().clone()).collect())
            .expect("set once");
        Arc::new(WorkStealingScheduler {
            pool,
            threads: Mutex::new(threads),
        })
    }
}

fn worker_loop(pool: Arc<Pool>, worker: usize) {
    LOCAL.with(|slot| slot.set(Some((pool.id, worker))));
    let epoch = &pool.shards[worker].epoch;
    let mut stalls: Vec<WorkerStall> = pool
        .stalls
        .iter()
        .filter(|s| s.worker == worker)
        .copied()
        .collect();
    stalls.sort_by_key(|s| s.after_slices);
    let mut next_stall = 0usize;
    let mut slices = 0u64;
    let bit = 1u64 << worker;
    'run: while !pool.shutdown.load(Ordering::Acquire) {
        if let Some(component) = find_task(&pool, worker) {
            run_slice(
                &pool,
                worker,
                component,
                &mut slices,
                &stalls,
                &mut next_stall,
            );
            continue;
        }
        // Bounded spin: absorb work that arrives right after the queues ran
        // dry without paying for a park/unpark round-trip.
        for _ in 0..SPIN_RESCANS {
            for _ in 0..SPINS_PER_RESCAN {
                std::hint::spin_loop();
            }
            if let Some(component) = find_task(&pool, worker) {
                run_slice(
                    &pool,
                    worker,
                    component,
                    &mut slices,
                    &stalls,
                    &mut next_stall,
                );
                continue 'run;
            }
        }
        // Record the epoch *before* the final scan: a cross push after this
        // point bumps it, which the pre-park re-check catches.
        let observed = epoch.load(Ordering::SeqCst);
        if let Some(component) = find_task(&pool, worker) {
            run_slice(
                &pool,
                worker,
                component,
                &mut slices,
                &stalls,
                &mut next_stall,
            );
            continue;
        }
        pool.sleepers.fetch_or(bit, Ordering::SeqCst);
        // Re-check between announce and park (module docs give the
        // interleaving argument): any push since `observed` may have read
        // `sleepers` before our announcement, so we must not sleep.
        if pool.shutdown.load(Ordering::Acquire) || epoch.load(Ordering::SeqCst) != observed {
            pool.sleepers.fetch_and(!bit, Ordering::SeqCst);
            continue;
        }
        pool.parks.fetch_add(1, Ordering::Relaxed);
        std::thread::park();
        // A producer that woke us cleared our bit; an unpark-all
        // (shutdown), a stale token or a spurious return did not — clear
        // either way and rescan.
        pool.sleepers.fetch_and(!bit, Ordering::SeqCst);
    }
    LOCAL.with(|slot| slot.set(None));
}

/// Executes one slice with affinity bookkeeping and (test-only) stall
/// injection.
fn run_slice(
    pool: &Arc<Pool>,
    worker: usize,
    component: Arc<ComponentCore>,
    slices: &mut u64,
    stalls: &[WorkerStall],
    next_stall: &mut usize,
) {
    // The hint is only ever touched by whoever holds the component's
    // scheduling claim, which is this worker right now.
    let hint = component.home_hint();
    match hint.home() {
        Some(home) if home == worker => hint.record_home_run(),
        Some(_) => {
            if hint.record_steal() >= MIGRATE_STREAK {
                // Sustained imbalance: stop stealing this component every
                // slice and move it here for good.
                hint.set_home(worker);
                pool.migrations.fetch_add(1, Ordering::Relaxed);
            }
        }
        None => hint.set_home(worker),
    }
    *slices += 1;
    pool.shards[worker].executed.fetch_add(1, Ordering::Relaxed);
    if let Some(stall) = stalls.get(*next_stall) {
        if stall.after_slices == *slices {
            *next_stall += 1;
            // komlint: allow(blocking-sleep) reason="deterministic fault-injection stall configured via SchedulerSpec::stall_at; test-only scheduling delay, never on a component handler path"
            std::thread::sleep(std::time::Duration::from_millis(stall.millis));
        }
    }
    if component.execute() == ExecuteResult::Reschedule {
        pool.dispatch(component, Some(worker));
    }
}

fn find_task(pool: &Pool, worker: usize) -> Option<Arc<ComponentCore>> {
    // Own shard first: drain the inbound ring into the run queue in one
    // sweep, then pop.
    let shard = &pool.shards[worker];
    let mut queue = shard.queue.lock();
    while let Some(component) = shard.inbound.pop() {
        // komlint: allow(unbounded-queue-push) reason="run queue of ready components, not an event queue; bounded at one entry per component by the scheduled-flag claim"
        queue.push_back(component);
    }
    if let Some(component) = queue.pop_front() {
        drop(queue);
        shard.depth.fetch_sub(1, Ordering::SeqCst);
        return Some(component);
    }
    drop(queue);
    steal(pool, worker)
}

/// Last-resort stealing: probe victims in descending backlog order, grab up
/// to `steal_batch` components in one lock acquisition, run the first and
/// queue the rest on the thief's own shard.
fn steal(pool: &Pool, worker: usize) -> Option<Arc<ComponentCore>> {
    let mut victims: Vec<(usize, usize)> = pool
        .shards
        .iter()
        .enumerate()
        .filter(|(s, shard)| *s != worker && shard.depth.load(Ordering::SeqCst) > 0)
        .map(|(s, shard)| (shard.depth.load(Ordering::SeqCst), s))
        .collect();
    victims.sort_unstable_by(|a, b| b.cmp(a));
    for (_, victim) in victims {
        pool.steal_attempts.fetch_add(1, Ordering::Relaxed);
        let shard = &pool.shards[victim];
        let mut queue = shard.queue.lock();
        // Help a (possibly stalled) owner by landing its ring into the
        // queue while we hold the lock anyway.
        while let Some(component) = shard.inbound.pop() {
            // komlint: allow(unbounded-queue-push) reason="run queue of ready components, not an event queue; bounded at one entry per component by the scheduled-flag claim"
            queue.push_back(component);
        }
        let take = pool.steal_batch.min(queue.len());
        if take == 0 {
            continue;
        }
        let mut taken: Vec<Arc<ComponentCore>> = queue.drain(..take).collect();
        drop(queue);
        shard.depth.fetch_sub(take, Ordering::SeqCst);
        shard.stolen.fetch_add(take as u64, Ordering::Relaxed);
        pool.steal_successes.fetch_add(1, Ordering::Relaxed);
        let first = taken.remove(0);
        if !taken.is_empty() {
            let rest = taken.len();
            let mine = &pool.shards[worker];
            mine.depth.fetch_add(rest, Ordering::SeqCst);
            let mut queue = mine.queue.lock();
            queue.extend(taken);
        }
        return Some(first);
    }
    None
}

impl Scheduler for WorkStealingScheduler {
    fn schedule(&self, component: Arc<ComponentCore>) {
        let caller = LOCAL.with(|slot| match slot.get() {
            Some((pool_id, worker)) if pool_id == self.pool.id => Some(worker),
            _ => None,
        });
        self.pool.dispatch(component, caller);
    }

    fn shutdown(&self) {
        self.pool.shutdown.store(true, Ordering::Release);
        // Runs from `Drop` too, hence no `expect` on the handles.
        for thread in self.pool.threads.get().into_iter().flatten() {
            thread.unpark();
        }
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        let current = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }

    fn describe(&self) -> &'static str {
        "sharded work-stealing (affinity)"
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            steal_attempts: self.pool.steal_attempts.load(Ordering::Relaxed),
            steal_successes: self.pool.steal_successes.load(Ordering::Relaxed),
            parks: self.pool.parks.load(Ordering::Relaxed),
            handoffs: self.pool.handoffs.load(Ordering::Relaxed),
            overflows: self.pool.overflows.load(Ordering::Relaxed),
            migrations: self.pool.migrations.load(Ordering::Relaxed),
        }
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.pool
            .shards
            .iter()
            .map(|shard| ShardStats {
                depth: shard.depth.load(Ordering::Relaxed),
                executed: shard.executed.load(Ordering::Relaxed),
                stolen: shard.stolen.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn nudge(&self) {
        // A blocked worker's own shard may hold the very work the blocker
        // waits for; wake one sleeper to come steal it. `wake_helper` with
        // an out-of-range exclusion excludes nobody.
        if self
            .pool
            .shards
            .iter()
            .any(|shard| shard.depth.load(Ordering::SeqCst) > 0)
        {
            self.pool.wake_helper(affinity::MAX_WORKERS);
        }
    }
}

impl Drop for WorkStealingScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}
