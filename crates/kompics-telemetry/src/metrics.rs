//! Sharded, allocation-free metric primitives.
//!
//! The recording side of every primitive here is wait-free: one relaxed
//! atomic RMW on a slot owned (in the common case) by the recording thread
//! alone. Aggregation work — summing shards, walking buckets — happens only
//! on the scrape path, which is expected to run at human timescales
//! (seconds), not dispatch timescales (nanoseconds).
//!
//! ## Sharding
//!
//! A [`Counter`] or [`Histogram`] owns `n` cache-line-padded slots where `n`
//! is a power of two (defaulting to the next power of two above the machine
//! parallelism, capped at [`MAX_SHARDS`]). Each thread is lazily assigned a
//! round-robin shard slot on first record and keeps it for its lifetime, so
//! two scheduler workers hammering the same counter land on different cache
//! lines. The per-thread slot is process-global: a thread uses the same
//! shard offset in every metric, which keeps the thread-local lookup to a
//! single `Cell` read.
//!
//! Under a single-threaded driver (the deterministic simulation) every
//! record lands in shard 0, so aggregation order — and therefore exported
//! snapshots — is trivially deterministic.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Upper bound on shards per metric. 64 padded u64 slots is 4 KiB per
/// counter — enough to keep any realistic worker count contention-free
/// without making per-metric memory silly.
pub const MAX_SHARDS: usize = 64;

/// A value padded out to its own cache line so neighbouring shards never
/// false-share. (No vendored crate has a `CachePadded`, so we roll our
/// own; 64 bytes covers x86-64 and most aarch64 parts.)
#[repr(align(64))]
#[derive(Default)]
struct Pad<T>(T);

static NEXT_SHARD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard index, masked into `0..=mask`.
#[inline]
fn shard_index(mask: usize) -> usize {
    SHARD_SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT_SHARD_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
        }
        v & mask
    })
}

/// Default shard count: next power of two ≥ available parallelism,
/// clamped to `[1, MAX_SHARDS]`.
pub fn default_shards() -> usize {
    let par = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    par.next_power_of_two().clamp(1, MAX_SHARDS)
}

fn checked_shards(shards: usize) -> usize {
    assert!(
        shards.is_power_of_two() && shards <= MAX_SHARDS,
        "shard count must be a power of two ≤ {MAX_SHARDS}, got {shards}"
    );
    shards
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

struct CounterCore {
    shards: Box<[Pad<AtomicU64>]>,
    mask: usize,
}

/// A monotonically increasing, sharded counter.
///
/// `inc`/`add` are one relaxed `fetch_add` on the calling thread's shard.
/// `value()` sums all shards with relaxed loads; because recording is
/// monotonic, a concurrent scrape sees some valid intermediate total.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// A counter with the default shard count, not attached to any registry.
    pub fn standalone() -> Self {
        Self::with_shards(default_shards())
    }

    /// A counter with an explicit (power-of-two) shard count.
    pub fn with_shards(shards: usize) -> Self {
        let shards = checked_shards(shards);
        let slots = (0..shards)
            .map(|_| Pad(AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Counter {
            core: Arc::new(CounterCore {
                shards: slots,
                mask: shards - 1,
            }),
        }
    }

    /// Add one. One relaxed atomic, zero allocation.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. One relaxed atomic, zero allocation.
    #[inline]
    pub fn add(&self, n: u64) {
        // Single-shard metrics (sequential schedulers, simulations) skip
        // the thread-local slot lookup entirely.
        let idx = if self.core.mask == 0 {
            0
        } else {
            shard_index(self.core.mask)
        };
        self.core.shards[idx].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all shards.
    pub fn value(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A point-in-time signed value (queue depth, view size, ...).
///
/// Gauges are *not* sharded: `set` semantics don't compose across shards.
/// The intended usage is single-writer (one component owns the gauge) or
/// delta-based (`add`/`sub` from many threads), both of which a single
/// relaxed atomic serves fine.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::standalone()
    }
}

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn standalone() -> Self {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Fixed exponential bucket upper bounds in nanoseconds. The final implicit
/// bucket is `+Inf`. Chosen to straddle the interesting dispatch range:
/// sub-microsecond handler slices up to second-scale stalls.
pub const BUCKET_BOUNDS_NS: [u64; 15] = [
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Bucket count including the `+Inf` overflow bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1;

/// One shard's worth of histogram state, padded as a unit. The buckets
/// inside one shard share lines with each other — that's fine, they're only
/// ever touched by (in the common case) one thread.
#[repr(align(64))]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

struct HistogramCore {
    shards: Box<[HistShard]>,
    mask: usize,
}

/// A fixed-bucket latency histogram over nanosecond observations.
///
/// `record` is three relaxed `fetch_add`s (bucket, count, sum) on the
/// calling thread's shard — still zero allocation and contention-free.
/// Scrape-side accessors sum across shards.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// A histogram with the default shard count, not attached to any registry.
    pub fn standalone() -> Self {
        Self::with_shards(default_shards())
    }

    /// A histogram with an explicit (power-of-two) shard count.
    pub fn with_shards(shards: usize) -> Self {
        let shards = checked_shards(shards);
        let slots = (0..shards)
            .map(|_| HistShard::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Histogram {
            core: Arc::new(HistogramCore {
                shards: slots,
                mask: shards - 1,
            }),
        }
    }

    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        let idx = if self.core.mask == 0 {
            0
        } else {
            shard_index(self.core.mask)
        };
        let shard = &self.core.shards[idx];
        let bucket = Self::bucket_for(ns);
        shard.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(ns, Ordering::Relaxed);
    }

    #[inline]
    fn bucket_for(ns: u64) -> usize {
        // 15-entry linear scan; on the sampled slice-timing path this is
        // noise next to the clock read that produced `ns`.
        BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(BUCKETS - 1)
    }

    /// Per-bucket totals (non-cumulative), summed across shards. The last
    /// entry is the `+Inf` overflow bucket.
    pub fn bucket_totals(&self) -> [u64; BUCKETS] {
        let mut totals = [0u64; BUCKETS];
        for shard in self.core.shards.iter() {
            for (total, bucket) in totals.iter_mut().zip(shard.buckets.iter()) {
                *total += bucket.load(Ordering::Relaxed);
            }
        }
        totals
    }

    /// Total observation count across shards.
    pub fn count(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Total of all observed values (ns) across shards.
    pub fn sum(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let c = Counter::with_shards(8);
        for _ in 0..100 {
            c.inc();
        }
        c.add(11);
        assert_eq!(c.value(), 111);
    }

    #[test]
    fn counter_concurrent_total_is_exact() {
        let c = Counter::with_shards(8);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 40_000);
    }

    #[test]
    fn gauge_set_add() {
        let g = Gauge::standalone();
        g.set(7);
        g.add(3);
        g.dec();
        assert_eq!(g.value(), 9);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::with_shards(2);
        h.record(100); // ≤ 250 → bucket 0
        h.record(250); // ≤ 250 → bucket 0
        h.record(251); // ≤ 500 → bucket 1
        h.record(2_000_000_000); // > 1s → +Inf bucket
        let totals = h.bucket_totals();
        assert_eq!(totals[0], 2);
        assert_eq!(totals[1], 1);
        assert_eq!(totals[BUCKETS - 1], 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100 + 250 + 251 + 2_000_000_000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = Counter::with_shards(3);
    }
}
