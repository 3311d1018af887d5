//! Statistics and seeded generators shared by every workload: exact
//! quantiles with the "at least ten samples beyond" rule, median-of-windows
//! with quartiles, a seeded PRNG with zipf/uniform key choice, and the
//! open-loop pacing rule (latency is taken from the *intended* send time).
//!
//! Nothing here depends on the system under test, so the same seed gives the
//! same operation stream on every commit.

use std::time::{Duration, Instant};

/// A quantile is reported only if at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// splitmix64: tiny, seedable, and owned by the benchmark so that a change
/// to the repository's `rand` shim cannot change the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `label` under the same seed.
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`. The modulo bias is below 2⁻⁴⁰ for the
    /// `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// How keys are chosen among `n` ranks.
#[derive(Debug, Clone)]
pub enum KeyDist {
    Uniform {
        n: u64,
    },
    /// Zipf with exponent `theta`, by inversion of the exact CDF.
    Zipf {
        cdf: Vec<f64>,
    },
}

impl KeyDist {
    pub fn uniform(n: u64) -> KeyDist {
        KeyDist::Uniform { n }
    }

    pub fn zipf(n: u64, theta: f64) -> KeyDist {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        KeyDist::Zipf { cdf }
    }

    /// A rank in `[0, n)`; rank 0 is the most popular under zipf.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.below(*n),
            KeyDist::Zipf { cdf } => {
                let u = rng.next_f64();
                cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u64
            }
        }
    }
}

/// The exact `q`-quantile by nearest rank (the smallest sample with at least
/// `q·n` samples at or below it). `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[rank_index(sorted.len(), q)]
}

fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, q)
}

/// Whether a `q`-quantile of `n` samples may be reported at all.
pub fn quantile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Median and quartiles of a handful of per-window values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Median of the window values, with quartiles by linear interpolation (the
/// "inclusive" method), so a five-window run reports its 2nd, 3rd and 4th
/// smallest value.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no window values to summarize");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Summary {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The share of a latency sample that [`tail_mean_us`] averages.
pub const TAIL_SHARE: f64 = 0.10;

/// The mean of the slowest [`TAIL_SHARE`] of an ascending latency sample, in
/// microseconds; `None` if that is fewer than [`MIN_BEYOND`] samples. Unlike
/// a percentile it has no rank that can sit on the edge between two
/// populations (operations that met a stall and operations that did not), so
/// it moves with the size and the share of a tail and not with the side of
/// the edge one run happened to fall on; and it sees what a p99 sees,
/// because the slowest hundredth is in it.
pub fn tail_mean_us(sorted_ns: &[u64]) -> Option<f64> {
    let n = (sorted_ns.len() as f64 * TAIL_SHARE) as usize;
    if n < MIN_BEYOND {
        return None;
    }
    let tail = &sorted_ns[sorted_ns.len() - n..];
    Some(tail.iter().sum::<u64>() as f64 / n as f64 / 1e3)
}

/// The open-loop schedule: operation `i` is *due* at `start + i / rate`
/// whatever happened to the operations before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate_per_s: f64,
}

impl Schedule {
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// Paces one generator thread along `schedule` until `end`: sleeps while the
/// next operation is not yet due, never while it is late, and hands each
/// operation its due instant so that latency can be taken from it. A stall
/// anywhere — in the server or in `issue` itself — therefore shows up in the
/// latency of every operation that was due during the stall. Returns how
/// late each operation was issued, in nanoseconds.
pub fn pace_open_loop(
    schedule: Schedule,
    end: Instant,
    mut issue: impl FnMut(u64, Instant),
) -> Vec<u64> {
    /// Below this the kernel's timer slack makes a sleep overshoot more than
    /// issuing slightly early-and-spinning would cost.
    const MIN_SLEEP: Duration = Duration::from_micros(60);
    precise_sleep();
    let mut lateness = Vec::new();
    for i in 0.. {
        let due = schedule.due(i);
        if due >= end {
            break;
        }
        loop {
            let now = Instant::now();
            if now >= due {
                lateness.push((now - due).as_nanos() as u64);
                break;
            }
            if due - now > MIN_SLEEP {
                std::thread::sleep(due - now - MIN_SLEEP / 2);
            } else {
                std::hint::spin_loop();
            }
        }
        issue(i, due);
    }
    lateness
}

/// Asks the kernel not to round this thread's sleeps: by default Linux may
/// wake a sleeper 50 µs late to batch timers, which on `local_small` would
/// be most of the latency the generator then reports.
fn precise_sleep() {
    extern "C" {
        fn prctl(option: i32, arg2: usize, arg3: usize, arg4: usize, arg5: usize) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: `prctl` is the C library's variadic wrapper of the system
    // call; PR_SET_TIMERSLACK reads only its integer argument (nanoseconds)
    // and changes only the calling thread's timer slack. A failure leaves
    // the default slack, which costs accuracy and not correctness.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sample, 0.50), 50);
        assert_eq!(quantile(&sample, 0.99), 99);
        assert_eq!(quantile(&sample, 1.0), 100);
        assert_eq!(quantile(&sample, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is the 990th: exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(quantile_supported(1000, 0.99));
        assert!(!quantile_supported(999, 0.99));
        assert!(quantile_supported(21, 0.50));
        assert!(!quantile_supported(0, 0.5));
    }

    #[test]
    fn tail_mean_is_the_mean_of_the_slowest_tenth() {
        // 1..=1000 µs: the slowest tenth is 901..=1000.
        let mut sample: Vec<u64> = (1..=1000).map(|v| v * 1000).collect();
        assert_eq!(tail_mean_us(&sample), Some(950.5));
        // A 41 ms stall in place of the slowest of 1000 adds a hundredth of
        // the 40 ms it is longer by.
        sample[999] = 41_000_000;
        assert_eq!(tail_mean_us(&sample), Some(950.5 + 400.0));
        // Fewer than ten samples in the tail: not reported.
        let small: Vec<u64> = (0..99).collect();
        assert_eq!(tail_mean_us(&small), None);
    }

    #[test]
    fn median_of_windows_with_quartiles() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let zipf = KeyDist::zipf(4096, 0.99);
            (0..64).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(
            Rng::new(7).fork(1).next_u64(),
            Rng::new(7).fork(2).next_u64()
        );
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_not() {
        let mut rng = Rng::new(1);
        let n = 200_000;
        let zipf = KeyDist::zipf(4096, 0.99);
        let hot = (0..n).filter(|_| zipf.sample(&mut rng) == 0).count() as f64 / n as f64;
        // 1 / H(4096, 0.99) ≈ 0.112.
        assert!((0.10..0.125).contains(&hot), "hottest share {hot}");
        let tail = (0..n).filter(|_| zipf.sample(&mut rng) >= 2048).count() as f64 / n as f64;
        assert!(tail < 0.10, "upper half share {tail}");
        let uni = KeyDist::uniform(256);
        let mut seen = [0u32; 256];
        for _ in 0..n {
            seen[uni.sample(&mut rng) as usize] += 1;
        }
        let (lo, hi) = (seen.iter().min().unwrap(), seen.iter().max().unwrap());
        assert!(*lo > 600 && *hi < 960, "uniform counts {lo}..{hi}");
    }

    /// A single-server queue with 0.1 ms service whose client freezes once
    /// for `stall`. Returns the open-loop p99 measured two ways: from the
    /// intended send time (what the benchmark reports) and from the moment
    /// the generator actually got to send (what hides the stall).
    fn p99_against_fake_server(stall: Duration) -> (f64, f64) {
        let rate = 1000.0;
        let service = Duration::from_micros(100);
        let start = Instant::now();
        let end = start + Duration::from_millis(1100);
        let stall_at = 300u64;
        let mut server_free = start;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        let mut backlog: VecDeque<Instant> = VecDeque::new();
        pace_open_loop(
            Schedule {
                start,
                rate_per_s: rate,
            },
            end,
            |i, due| {
                if i == stall_at {
                    // The stall blocks the generator itself, as a
                    // synchronous client or a full socket buffer would.
                    std::thread::sleep(stall);
                }
                let sent = Instant::now();
                let begin = server_free.max(sent);
                let done = begin + service;
                server_free = done;
                backlog.push_back(done);
                from_due.push((done - due).as_nanos() as u64);
                from_send.push((done - sent).as_nanos() as u64);
            },
        );
        assert_eq!(backlog.len(), from_due.len());
        assert!(quantile_supported(from_due.len(), 0.99));
        let p99_us = |sample: &mut Vec<u64>| {
            sample.sort_unstable();
            quantile(sample, 0.99) as f64 / 1e3
        };
        (p99_us(&mut from_due), p99_us(&mut from_send))
    }

    #[test]
    fn coordinated_omission_is_not_hidden() {
        let stall = Duration::from_millis(50);
        let (calm_due, _) = p99_against_fake_server(Duration::ZERO);
        let (stalled_due, stalled_send) = p99_against_fake_server(stall);
        let raised_ms = (stalled_due - calm_due) / 1e3;
        // 1100 operations, 50 of them due during the stall and waiting
        // 50, 49.1, 48.2 … ms: p99 is the 12th largest, about 40 ms.
        assert!(
            (33.0..52.0).contains(&raised_ms),
            "stall raised open-loop p99 by {raised_ms:.1} ms (calm {calm_due:.0} µs)"
        );
        // Timed from the actual send the same stall is almost invisible:
        // only the 5 ms queue drain after it shows.
        assert!(
            stalled_send / 1e3 < raised_ms / 4.0,
            "send-time p99 {stalled_send:.0} µs should hide most of the stall"
        );
    }

    #[test]
    fn pacing_reports_lateness_and_keeps_the_rate() {
        let start = Instant::now();
        let mut n = 0u64;
        let lateness = pace_open_loop(
            Schedule {
                start,
                rate_per_s: 2000.0,
            },
            start + Duration::from_millis(200),
            |_, _| n += 1,
        );
        assert_eq!(n, 400);
        assert_eq!(lateness.len(), 400);
    }
}
