//! The load generator for the three request workloads: a seeded operation
//! stream, self-describing values, the reply tracker that verifies every
//! answer, and the open-loop / closed-loop / sequential phases. One thread
//! generates; replies are stamped on the scheduler worker that runs the
//! collector component.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::api::{Cluster, Reply, ReplySink, Transport, NODES};
use crate::stats::{pace_open_loop, KeyDist, Rng, Schedule};

/// How long a phase waits for its last operations after it stops issuing.
/// ABD answers every request within `op_timeout × (max_retries + 1)` = 3.75 s
/// (with `OpFailed` at worst), so anything still missing after this is lost.
const DRAIN: Duration = Duration::from_secs(5);

/// One request workload. The numbers are fixed by `BENCHMARK.json`'s PR and
/// never change afterwards, so results stay comparable across commits.
#[derive(Debug, Clone, Copy)]
pub struct RequestWorkload {
    pub name: &'static str,
    pub transport: Transport,
    pub get_share: f64,
    pub value_bytes: usize,
    pub keys: u64,
    /// `Some(theta)` for zipf, `None` for uniform.
    pub zipf_theta: Option<f64>,
    pub open_rate_per_s: f64,
    /// The rate of a second, lighter open-loop phase, for a workload whose
    /// tail at `open_rate_per_s` belongs to the machine and not the program:
    /// `lat_tail_us` is then taken here and `lat_p50_us` there.
    pub light_rate_per_s: Option<f64>,
    /// Cluster instances one end-to-end run is spread over: as many as the
    /// rate allows (each must hold a window of operations) and set-up time
    /// affords.
    pub instances: usize,
}

impl RequestWorkload {
    pub fn key_dist(&self) -> KeyDist {
        match self.zipf_theta {
            Some(theta) => KeyDist::zipf(self.keys, theta),
            None => KeyDist::uniform(self.keys),
        }
    }
}

/// One drawn operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub is_put: bool,
    pub key_rank: u64,
    pub node: usize,
}

/// The seeded operation stream: the same seed gives the same operations in
/// the same order, whatever the system does with them.
pub struct OpStream {
    rng: Rng,
    dist: KeyDist,
    get_share: f64,
}

impl OpStream {
    pub fn new(workload: &RequestWorkload, rng: Rng) -> OpStream {
        OpStream {
            rng,
            dist: workload.key_dist(),
            get_share: workload.get_share,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let is_put = self.rng.next_f64() >= self.get_share;
        let key_rank = self.dist.sample(&mut self.rng);
        let node = self.rng.below(NODES as u64) as usize;
        Op {
            is_put,
            key_rank,
            node,
        }
    }
}

/// Spreads key ranks over the ring (ranks themselves would all land in one
/// arc of the `u64` key space).
pub fn ring_key(rank: u64) -> u64 {
    Rng::new(rank).next_u64()
}

const HEADER: usize = 32;
const CLEAN_BIT: u64 = 1 << 63;

/// Values that describe themselves: a 32-byte header `(key rank, version and
/// clean flag, checksum, length)` followed by seeded pseudo-random bytes,
/// which are incompressible, so the transport's RLE attempt runs and loses.
pub struct Values {
    pool: Vec<u8>,
    value_bytes: usize,
}

/// What a value's header says, once its checksum has been verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub key_rank: u64,
    pub version: u64,
    /// No other put on this key was in flight when this one was issued, so
    /// every lower version is linearized before it.
    pub clean: bool,
}

impl Values {
    pub fn new(value_bytes: usize, mut rng: Rng) -> Values {
        assert!(value_bytes >= HEADER, "values carry a {HEADER}-byte header");
        let mut pool = vec![0u8; (value_bytes - HEADER) + (1 << 16)];
        rng.fill(&mut pool);
        Values { pool, value_bytes }
    }

    pub fn make(&self, stamp: Stamp) -> Vec<u8> {
        let body_len = self.value_bytes - HEADER;
        let versioned = stamp.version | if stamp.clean { CLEAN_BIT } else { 0 };
        let offset =
            (Rng::new(stamp.key_rank ^ versioned.rotate_left(32)).next_u64() >> 48) as usize;
        let body = &self.pool[offset..offset + body_len];
        let mut value = Vec::with_capacity(self.value_bytes);
        value.extend_from_slice(&stamp.key_rank.to_le_bytes());
        value.extend_from_slice(&versioned.to_le_bytes());
        value.extend_from_slice(&checksum(stamp.key_rank, versioned, body).to_le_bytes());
        value.extend_from_slice(&(self.value_bytes as u64).to_le_bytes());
        value.extend_from_slice(body);
        value
    }

    /// `None` if the bytes are not a value this generator wrote.
    pub fn verify(&self, value: &[u8]) -> Option<Stamp> {
        if value.len() != self.value_bytes {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(value[i * 8..i * 8 + 8].try_into().unwrap());
        let (key_rank, versioned, sum, len) = (word(0), word(1), word(2), word(3));
        if len != self.value_bytes as u64 || sum != checksum(key_rank, versioned, &value[HEADER..])
        {
            return None;
        }
        Some(Stamp {
            key_rank,
            version: versioned & !CLEAN_BIT,
            clean: versioned & CLEAN_BIT != 0,
        })
    }
}

/// A multiply-rotate fold over 8-byte words; any changed, missing or moved
/// word changes it.
fn checksum(key_rank: u64, versioned: u64, body: &[u8]) -> u64 {
    let mut acc = key_rank ^ versioned.rotate_left(17) ^ 0x6b62_656e_6368_2121;
    let mut chunks = body.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap());
        acc = (acc ^ w)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    for &b in chunks.remainder() {
        acc = (acc ^ b as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    acc
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    /// When the operation was due (open loop) or sent (otherwise).
    from: Instant,
    key_rank: u64,
    /// What this put writes; `None` for a get.
    put: Option<Stamp>,
    /// The newest version known to be linearized before this operation was
    /// issued; a get must not return an older one.
    floor: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    next_version: u64,
    puts_in_flight: u32,
    floor: u64,
}

/// One completed operation, as the phases record it.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub op_id: u64,
    pub from: Instant,
    pub at: Instant,
    pub is_put: bool,
}

#[derive(Default)]
struct Inner {
    pending: HashMap<u64, Pending>,
    keys: Vec<KeyState>,
    done: Vec<Done>,
    next_op_id: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    max_in_flight: usize,
    notify: Option<Sender<()>>,
}

/// Issues operations, receives their replies and checks each one:
/// a get's value must pass its checksum, belong to the key asked for, and be
/// no older than the newest version known complete when the get was issued
/// (an O(1) necessary condition for linearizability); a failed or lost
/// operation counts against the run.
pub struct Tracker {
    values: Values,
    inner: Mutex<Inner>,
}

/// Totals over the life of a tracker.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub attempted: u64,
    /// `OpFailed` or lost (no reply within [`DRAIN`]).
    pub failed: u64,
    /// Answered with a value that failed verification.
    pub wrong: u64,
}

impl Tracker {
    pub fn new(workload: &RequestWorkload, seed: Rng) -> Arc<Tracker> {
        Arc::new(Tracker {
            values: Values::new(workload.value_bytes, seed),
            inner: Mutex::new(Inner {
                keys: vec![KeyState::default(); workload.keys as usize],
                next_op_id: 1,
                ..Inner::default()
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracker state is updated without panicking")
    }

    /// Registers `op` as issued and sends it. `from` is the instant its
    /// latency is counted from.
    pub fn issue(&self, cluster: &Cluster, op: Op, from: Instant) -> u64 {
        let (op_id, value) = {
            let mut guard = self.lock();
            let inner = &mut *guard;
            let op_id = inner.next_op_id;
            inner.next_op_id += 1;
            inner.attempted += 1;
            let key = &mut inner.keys[op.key_rank as usize];
            let floor = key.floor;
            let value = op.is_put.then(|| {
                key.next_version += 1;
                let stamp = Stamp {
                    key_rank: op.key_rank,
                    version: key.next_version,
                    clean: key.puts_in_flight == 0,
                };
                key.puts_in_flight += 1;
                stamp
            });
            let pending = Pending {
                from,
                key_rank: op.key_rank,
                put: value,
                floor,
            };
            inner.pending.insert(op_id, pending);
            inner.max_in_flight = inner.max_in_flight.max(inner.pending.len());
            (op_id, value)
        };
        // Building the value and triggering happen outside the lock, so the
        // collector never waits for the generator.
        let key = ring_key(op.key_rank);
        match value {
            Some(stamp) => cluster.put(op.node, op_id, key, self.values.make(stamp)),
            None => cluster.get(op.node, op_id, key),
        }
        op_id
    }

    /// Every completion from now on also sends a token on the returned
    /// channel (closed-loop and sequential phases wait on it).
    pub fn notifications(&self) -> Receiver<()> {
        let (tx, rx) = channel();
        self.lock().notify = Some(tx);
        rx
    }

    pub fn in_flight(&self) -> usize {
        self.lock().pending.len()
    }

    /// Highest number of operations in flight since the last call.
    pub fn take_max_in_flight(&self) -> usize {
        let mut inner = self.lock();
        let max = inner.max_in_flight;
        inner.max_in_flight = inner.pending.len();
        max
    }

    /// The operations completed since the last call.
    pub fn take_done(&self) -> Vec<Done> {
        std::mem::take(&mut self.lock().done)
    }

    /// Waits until nothing is in flight; whatever is still missing after
    /// [`DRAIN`] is counted as failed and forgotten.
    pub fn drain(&self) {
        let deadline = Instant::now() + DRAIN;
        while self.in_flight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let lost: Vec<Pending> = inner.pending.drain().map(|(_, p)| p).collect();
        for p in lost {
            inner.failed += 1;
            if p.put.is_some() {
                inner.keys[p.key_rank as usize].puts_in_flight -= 1;
            }
        }
    }

    pub fn totals(&self) -> Totals {
        let inner = self.lock();
        Totals {
            attempted: inner.attempted,
            failed: inner.failed,
            wrong: inner.wrong,
        }
    }
}

impl ReplySink for Tracker {
    fn on_reply(&self, op_id: u64, reply: Reply<'_>) {
        let at = Instant::now();
        // The checksum is verified before taking the lock.
        let observed = match reply {
            Reply::Got(Some(bytes)) => self.values.verify(bytes),
            _ => None,
        };
        let mut guard = self.lock();
        let inner = &mut *guard;
        let Some(p) = inner.pending.remove(&op_id) else {
            return; // answered after its phase gave up on it
        };
        let key = &mut inner.keys[p.key_rank as usize];
        let ok = match (reply, p.put) {
            (Reply::Put, Some(written)) => {
                key.puts_in_flight -= 1;
                if written.clean {
                    key.floor = key.floor.max(written.version);
                }
                true
            }
            (Reply::Got(_), None) => match observed {
                Some(stamp) if stamp.key_rank == p.key_rank && stamp.version >= p.floor => {
                    if stamp.clean {
                        key.floor = key.floor.max(stamp.version);
                    }
                    true
                }
                _ => false,
            },
            (Reply::Failed, put) => {
                if put.is_some() {
                    key.puts_in_flight -= 1;
                }
                inner.failed += 1;
                return;
            }
            // A get answered as a put or the reverse.
            _ => false,
        };
        if !ok {
            inner.wrong += 1;
        }
        inner.done.push(Done {
            op_id,
            from: p.from,
            at,
            is_put: p.put.is_some(),
        });
        if let Some(tx) = &inner.notify {
            let _ = tx.send(());
        }
    }
}

/// Writes version 1 of every key, `width` puts in flight, and waits for all
/// of them. Afterwards no get may find a key unwritten.
pub fn preload(cluster: &Cluster, tracker: &Tracker, keys: u64, width: usize) {
    let done = tracker.notifications();
    let mut issued = 0u64;
    let mut completed = 0u64;
    while completed < keys {
        while issued < keys && issued - completed < width as u64 {
            let op = Op {
                is_put: true,
                key_rank: issued,
                node: (issued % NODES as u64) as usize,
            };
            tracker.issue(cluster, op, Instant::now());
            issued += 1;
        }
        if done.recv_timeout(DRAIN).is_err() {
            break;
        }
        completed += 1;
    }
    tracker.drain();
    tracker.take_done();
    tracker.take_max_in_flight();
}

/// What an open-loop phase measured.
pub struct OpenLoop {
    /// Latency from the intended send time, per window, split by operation
    /// type: `(gets, puts)` in nanoseconds.
    pub windows: Vec<(Vec<u64>, Vec<u64>)>,
    pub lateness_ns: Vec<u64>,
    /// Highest in-flight count seen during each window.
    pub max_in_flight: Vec<usize>,
    /// Operations still in flight when the last one had been issued.
    pub backlog: usize,
}

/// Issues operations at a fixed rate for `windows × window`, whatever the
/// cluster does, then waits for the stragglers. An operation belongs to the
/// window in which it was *due*.
pub fn open_loop(
    cluster: &Cluster,
    tracker: &Tracker,
    stream: &mut OpStream,
    rate_per_s: f64,
    windows: usize,
    window: Duration,
) -> OpenLoop {
    tracker.take_done();
    tracker.take_max_in_flight();
    let start = Instant::now();
    let end = start + window * windows as u32;
    let mut max_in_flight = vec![0usize; windows];
    let mut current = 0usize;
    let lateness_ns = pace_open_loop(Schedule { start, rate_per_s }, end, |_, due| {
        let w = window_of(start, window, windows, due);
        if w != current {
            max_in_flight[current] = tracker.take_max_in_flight();
            current = w;
        }
        tracker.issue(cluster, stream.next_op(), due);
    });
    let backlog = tracker.in_flight();
    tracker.drain();
    max_in_flight[current] = tracker.take_max_in_flight();
    let mut out = vec![(Vec::new(), Vec::new()); windows];
    for d in tracker.take_done() {
        let w = window_of(start, window, windows, d.from);
        let latency = (d.at - d.from).as_nanos() as u64;
        if d.is_put {
            out[w].1.push(latency);
        } else {
            out[w].0.push(latency);
        }
    }
    OpenLoop {
        windows: out,
        lateness_ns,
        max_in_flight,
        backlog,
    }
}

fn window_of(start: Instant, window: Duration, windows: usize, at: Instant) -> usize {
    (((at - start).as_nanos() / window.as_nanos()) as usize).min(windows - 1)
}

/// Keeps exactly `width` operations in flight for `windows × window` and
/// returns the operations completed in each window.
pub fn closed_loop(
    cluster: &Cluster,
    tracker: &Tracker,
    stream: &mut OpStream,
    width: usize,
    windows: usize,
    window: Duration,
) -> Vec<u64> {
    tracker.take_done();
    let done = tracker.notifications();
    let start = Instant::now();
    let end = start + window * windows as u32;
    for _ in 0..width {
        tracker.issue(cluster, stream.next_op(), Instant::now());
    }
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        // A lost operation would leave the loop one short for good; ABD
        // always answers, so a timeout here only ends the phase.
        if done.recv_timeout(end - now).is_ok() {
            tracker.issue(cluster, stream.next_op(), Instant::now());
        }
    }
    let mut completed = vec![0u64; windows];
    for d in tracker.take_done() {
        if d.at < end {
            completed[window_of(start, window, windows, d.at)] += 1;
        }
    }
    tracker.drain();
    tracker.take_done();
    completed
}

/// One operation at a time until `budget` runs out or `max_ops` are done;
/// returns each operation's id, coordinator, send and completion instants.
pub fn sequential(
    cluster: &Cluster,
    tracker: &Tracker,
    stream: &mut OpStream,
    max_ops: usize,
    budget: Duration,
) -> Vec<(Done, usize)> {
    tracker.take_done();
    let done = tracker.notifications();
    let end = Instant::now() + budget;
    let mut out = Vec::new();
    while out.len() < max_ops && Instant::now() < end {
        let op = stream.next_op();
        tracker.issue(cluster, op, Instant::now());
        if done.recv_timeout(DRAIN).is_err() {
            break;
        }
        if let Some(d) = tracker.take_done().pop() {
            out.push((d, op.node));
        }
    }
    tracker.drain();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: RequestWorkload = RequestWorkload {
        name: "t",
        transport: Transport::Local,
        get_share: 0.5,
        value_bytes: 1024,
        keys: 64,
        zipf_theta: Some(0.99),
        open_rate_per_s: 1.0,
        light_rate_per_s: None,
        instances: 1,
    };

    #[test]
    fn op_stream_repeats_per_seed() {
        let draw = |seed| {
            let mut s = OpStream::new(&W, Rng::new(seed));
            (0..200).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let ops = draw(3);
        let puts = ops.iter().filter(|o| o.is_put).count();
        assert!((60..140).contains(&puts), "{puts} puts of 200 at 50 %");
        assert!(ops.iter().all(|o| o.key_rank < 64 && o.node < NODES));
    }

    #[test]
    fn values_verify_and_reject_damage() {
        let values = Values::new(1024, Rng::new(9));
        let stamp = Stamp {
            key_rank: 17,
            version: 5,
            clean: true,
        };
        let v = values.make(stamp);
        assert_eq!(v.len(), 1024);
        assert_eq!(values.verify(&v), Some(stamp));
        let dirty = Stamp {
            clean: false,
            ..stamp
        };
        assert_eq!(values.verify(&values.make(dirty)), Some(dirty));
        for at in [0, 9, 20, 40, 1023] {
            let mut bad = v.clone();
            bad[at] ^= 1;
            assert_eq!(values.verify(&bad), None, "flip at byte {at}");
        }
        assert_eq!(values.verify(&v[..1000]), None);
        // Same seed, same bytes; the body does not compress by run length.
        assert_eq!(Values::new(1024, Rng::new(9)).make(stamp), v);
        let runs = v[HEADER..].windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs < 20, "{runs} repeated neighbours in a random body");
    }

    #[test]
    fn tracker_flags_stale_and_foreign_values() {
        let tracker = Tracker::new(&W, Rng::new(1));
        let reply = |op_id, stamp: Stamp| {
            let bytes = tracker.values.make(stamp);
            tracker.on_reply(op_id, Reply::Got(Some(&bytes)));
        };
        let pend = |tracker: &Tracker, op_id, floor| {
            tracker.lock().pending.insert(
                op_id,
                Pending {
                    from: Instant::now(),
                    key_rank: 3,
                    put: None,
                    floor,
                },
            );
        };
        let stamp = |version, clean| Stamp {
            key_rank: 3,
            version,
            clean,
        };
        // Fresh enough: accepted, and a clean version raises the floor.
        pend(&tracker, 1, 2);
        reply(1, stamp(4, true));
        assert_eq!(tracker.lock().wrong, 0);
        assert_eq!(tracker.lock().keys[3].floor, 4);
        // Older than the floor at issue: a linearizability violation.
        pend(&tracker, 2, 4);
        reply(2, stamp(3, true));
        assert_eq!(tracker.lock().wrong, 1);
        // A value of another key, and a key that reads as never written.
        pend(&tracker, 3, 0);
        reply(
            3,
            Stamp {
                key_rank: 9,
                version: 9,
                clean: true,
            },
        );
        pend(&tracker, 4, 0);
        tracker.on_reply(4, Reply::Got(None));
        assert_eq!(tracker.lock().wrong, 3);
        // A version written while another put was in flight proves nothing
        // about later reads, so it does not raise the floor.
        pend(&tracker, 5, 4);
        reply(5, stamp(7, false));
        assert_eq!(tracker.lock().keys[3].floor, 4);
        assert_eq!(tracker.take_done().len(), 5);
    }
}
