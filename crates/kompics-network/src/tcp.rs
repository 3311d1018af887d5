//! Real TCP transport over `std::net`.
//!
//! Substitutes for the paper's pluggable Java NIO frameworks (Grizzly /
//! Netty / MINA — see DESIGN.md §4): a `TcpNetwork` component provides the
//! same [`Network`] port as every other transport and implements
//!
//! * automatic connection management — connections are opened on first send
//!   to an endpoint, kept in a table, re-established on failure;
//! * **connection multiplexing** — connections are full duplex: a dialing
//!   writer announces its canonical listen address in a `HELLO` frame, so
//!   the accepting side routes replies back over the *same* socket instead
//!   of dialing a second connection (one writer/reader pair per peer,
//!   shared by every local component);
//! * message serialization via the [`MessageRegistry`] and the
//!   `kompics-codec` wire format, encoded **once** directly into a pooled
//!   frame buffer (no intermediate `Vec`s, length prefix written in place);
//! * **batched vectored writes** — the writer thread drains its outbound
//!   queue into multi-frame `write_vectored` flushes (bounded by
//!   [`MAX_BATCH_FRAMES`] / [`MAX_BATCH_BYTES`]), so small events share
//!   syscalls;
//! * **zero-copy decode** — the reader hands out complete frames as views
//!   of its receive buffer (`crate::recv_buf`) and decodes through
//!   [`MessageRegistry::decode_shared`], so `bytes::Bytes` fields of
//!   handler-visible events reference the receive buffer directly; the
//!   buffer is read into again as soon as no event borrows it;
//! * payload compression above a size threshold (the Zlib substitute) and
//!   length-prefixed framing, both owned by [`crate::frame`].
//!
//! See DESIGN.md §16 for the buffer lifecycle and batching rules.

use std::collections::HashMap;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use kompics_core::event::{event_as, EventRef};
use kompics_core::port::PortRef;
use kompics_core::prelude::*;
use parking_lot::Mutex;

use crate::address::Address;
use crate::error::NetworkError;
use crate::frame;
use crate::net::{DeadLetter, Message, Network};
use crate::recv_buf::RecvBuf;
use crate::registry::MessageRegistry;

/// Encode buffers retained for reuse per transport instance.
const BUF_POOL_CAP: usize = 64;
/// Encode buffers larger than this are dropped instead of pooled, so one
/// huge frame does not pin megabytes of idle capacity.
const BUF_POOL_MAX_CAPACITY: usize = 4 * 1024 * 1024;
/// Most frames a writer coalesces into one vectored flush.
const MAX_BATCH_FRAMES: usize = 64;
/// Byte budget for one vectored flush; a batch stops growing once the
/// already-collected frames reach it (a single oversized frame still
/// flushes alone).
const MAX_BATCH_BYTES: usize = 256 * 1024;
/// Fraction of the reconnection backoff randomized away (the actual delay
/// is 75–100% of the nominal one), de-synchronizing reconnection storms
/// across writers.
const CONNECT_JITTER: f64 = 0.25;
/// How long a reader thread leaves the socket unread after a delivery
/// reported mailbox pushback (see `handle_frame`).
const READ_PAUSE: Duration = Duration::from_millis(1);

/// Connection-management settings: the four values the fault-path tests
/// vary. Everything else about the wire path is a constant next to the code
/// that reads it (see DESIGN.md §17).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Connection attempts before a send fails. Default: 3.
    pub connect_retries: u32,
    /// Delay before the *first* reconnection attempt; subsequent attempts
    /// back off exponentially (doubling, with jitter) up to
    /// [`connect_backoff_cap`](TcpConfig::connect_backoff_cap). Default:
    /// 50 ms.
    pub connect_retry_delay: Duration,
    /// Upper bound on the backoff delay between connection attempts.
    /// Default: 2 s.
    pub connect_backoff_cap: Duration,
    /// Capacity of each per-connection outbound queue. When a slow or dead
    /// peer lets the queue fill up, further sends fail fast as
    /// [`DeadLetter`]s instead of growing the heap without bound.
    /// Default: 1024 messages.
    pub outbound_queue: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_retries: 3,
            connect_retry_delay: Duration::from_millis(50),
            connect_backoff_cap: Duration::from_secs(2),
            outbound_queue: 1024,
        }
    }
}

struct Outgoing {
    header: Message,
    /// The complete encoded frame (`[len][flags][tag][body]`). Refcounted:
    /// after a flush the writer reclaims the allocation into the encode
    /// pool if it holds the last reference.
    frame: Bytes,
}

/// Per-open-connection state kept in the connection table.
#[derive(Clone)]
struct Conn {
    tx: SyncSender<Outgoing>,
    /// Set on the first queue-full drop for this connection, so the warning
    /// fires once per connection (it resets naturally when the writer dies
    /// and a fresh entry replaces this one).
    warned_full: Arc<AtomicBool>,
}

/// (ip, port) key -> writer-thread handle for an open connection.
type ConnectionMap = HashMap<([u8; 4], u16), Conn>;

struct Shared {
    registry: Arc<MessageRegistry>,
    config: TcpConfig,
    self_addr: Address,
    connections: Mutex<ConnectionMap>,
    /// Reusable encode buffers; see [`Shared::take_buf`]/[`Shared::recycle`].
    buf_pool: Mutex<Vec<Vec<u8>>>,
    shutdown: AtomicBool,
    sent: AtomicU64,
    received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    /// Messages shed to [`DeadLetter`]s because a per-connection outbound
    /// queue was full.
    outbound_dropped: AtomicU64,
    /// Times a reader thread paused because a destination mailbox signalled
    /// pushback.
    read_pauses: AtomicU64,
    /// Frames written as part of a multi-frame vectored flush.
    batched_frames: AtomicU64,
    /// Vectored write syscalls issued by writer threads.
    flush_syscalls: AtomicU64,
    /// Decodes that produced at least one zero-copy `Bytes` view of the
    /// receive buffer.
    borrowed_decodes: AtomicU64,
    /// Socket-option calls (`set_nodelay`, `set_read_timeout`) that failed;
    /// each is also logged once for its connection.
    sockopt_errors: AtomicU64,
    /// Inbound connections lost at the acceptor: `accept` failed for a
    /// reason other than "nothing pending", or no reader thread could be
    /// spawned for the accepted stream.
    accept_errors: AtomicU64,
}

impl Shared {
    fn new(registry: Arc<MessageRegistry>, config: TcpConfig, self_addr: Address) -> Self {
        Shared {
            registry,
            config,
            self_addr,
            connections: Mutex::new(HashMap::new()),
            buf_pool: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            outbound_dropped: AtomicU64::new(0),
            read_pauses: AtomicU64::new(0),
            batched_frames: AtomicU64::new(0),
            flush_syscalls: AtomicU64::new(0),
            borrowed_decodes: AtomicU64::new(0),
            sockopt_errors: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
        }
    }

    fn take_buf(&self) -> Vec<u8> {
        self.buf_pool.lock().pop().unwrap_or_default()
    }

    fn recycle(&self, mut buf: Vec<u8>) {
        if buf.capacity() > BUF_POOL_MAX_CAPACITY {
            return;
        }
        // Frames come back from `try_reclaim` with their bytes still in.
        buf.clear();
        let mut pool = self.buf_pool.lock();
        if pool.len() < BUF_POOL_CAP {
            pool.push(buf);
        }
    }

    /// Returns a spent frame's allocation to the pool if the writer held
    /// the last reference to it.
    fn recycle_frame(&self, frame: Bytes) {
        if let Ok(buf) = frame.try_reclaim() {
            self.recycle(buf);
        }
    }

    fn log_sockopt_error(&self, what: &'static str, peer: &str, err: &std::io::Error) {
        self.sockopt_errors.fetch_add(1, Ordering::Relaxed);
        // Once per connection: each sockopt is applied exactly once per
        // established stream, so no dedup state is needed.
        eprintln!(
            "kompics-network: {what} failed for connection with {peer}: {err} \
             (see kompics_tcp_sockopt_errors_total)"
        );
    }
}

/// The TCP transport component. See the module documentation.
pub struct TcpNetwork {
    ctx: ComponentContext,
    net: ProvidedPort<Network>,
    self_addr: Address,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    listener_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpNetwork {
    /// Binds a listener for the transport. Use port `0` to let the OS pick;
    /// the returned [`Address`] carries the actual port.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(addr: Address) -> Result<(Address, TcpListener), NetworkError> {
        let listener = TcpListener::bind(addr.socket_addr())?;
        let actual = listener.local_addr()?;
        let bound = Address {
            ip: addr.ip,
            port: actual.port(),
            id: addr.id,
        };
        Ok((bound, listener))
    }

    /// Creates the transport component around a pre-bound listener (obtain
    /// one with [`TcpNetwork::bind`]); call inside a `create` closure.
    pub fn new(
        self_addr: Address,
        listener: TcpListener,
        registry: Arc<MessageRegistry>,
        config: TcpConfig,
    ) -> Self {
        let net: ProvidedPort<Network> = ProvidedPort::new();
        let shared = Arc::new(Shared::new(registry, config, self_addr));

        net.subscribe_shared::<TcpNetwork, Message, _>(
            |this: &mut TcpNetwork, event: &EventRef| {
                this.send(event);
            },
        );
        let ctx = ComponentContext::new();
        ctx.subscribe_control(|this: &mut TcpNetwork, _s: &Start| {
            this.ensure_listener();
        });

        TcpNetwork {
            ctx,
            net,
            self_addr,
            listener: Some(listener),
            shared,
            listener_thread: None,
        }
    }

    /// The transport's own (bound) address.
    pub fn self_addr(&self) -> Address {
        self.self_addr
    }

    /// (messages sent, messages received) so far. Transport-internal hello
    /// frames are not counted.
    pub fn message_stats(&self) -> (u64, u64) {
        (
            self.shared.sent.load(Ordering::Relaxed),
            self.shared.received.load(Ordering::Relaxed),
        )
    }

    /// (bytes sent, bytes received) so far, counting data frames.
    pub fn byte_stats(&self) -> (u64, u64) {
        (
            self.shared.bytes_sent.load(Ordering::Relaxed),
            self.shared.bytes_received.load(Ordering::Relaxed),
        )
    }

    /// (outbound messages dropped because a per-connection queue was full,
    /// reader pauses taken because a destination mailbox signalled
    /// pushback) so far.
    pub fn overload_stats(&self) -> (u64, u64) {
        (
            self.shared.outbound_dropped.load(Ordering::Relaxed),
            self.shared.read_pauses.load(Ordering::Relaxed),
        )
    }

    /// Wire-path counters: (frames written in multi-frame vectored flushes,
    /// vectored write syscalls, decodes that borrowed zero-copy views of
    /// the receive buffer) so far.
    pub fn wire_stats(&self) -> (u64, u64, u64) {
        (
            self.shared.batched_frames.load(Ordering::Relaxed),
            self.shared.flush_syscalls.load(Ordering::Relaxed),
            self.shared.borrowed_decodes.load(Ordering::Relaxed),
        )
    }

    /// Inbound connections lost at the acceptor so far (a failed `accept`
    /// or a reader thread that could not be spawned); the listener keeps
    /// accepting after each.
    pub fn accept_errors(&self) -> u64 {
        self.shared.accept_errors.load(Ordering::Relaxed)
    }

    /// Registers scrape-time transport counters on `registry`:
    /// `kompics_tcp_{sent,received,outbound_dropped,read_pauses,
    /// batched_frames,flush_syscalls,borrowed_decodes,sockopt_errors,
    /// accept_errors}_total`.
    /// Call once after creating the component (e.g. next to
    /// `install_telemetry`).
    pub fn register_metrics(&self, registry: &kompics_telemetry::Registry) {
        let shared = Arc::downgrade(&self.shared);
        registry.register_collector(move |out| {
            let Some(shared) = shared.upgrade() else {
                return;
            };
            use kompics_telemetry::Sample;
            out.push(Sample::counter(
                "kompics_tcp_sent_total",
                &[],
                shared.sent.load(Ordering::Relaxed),
            ));
            out.push(Sample::counter(
                "kompics_tcp_received_total",
                &[],
                shared.received.load(Ordering::Relaxed),
            ));
            out.push(Sample::counter(
                "kompics_tcp_outbound_dropped_total",
                &[],
                shared.outbound_dropped.load(Ordering::Relaxed),
            ));
            out.push(Sample::counter(
                "kompics_tcp_read_pauses_total",
                &[],
                shared.read_pauses.load(Ordering::Relaxed),
            ));
            out.push(Sample::counter(
                "kompics_tcp_batched_frames_total",
                &[],
                shared.batched_frames.load(Ordering::Relaxed),
            ));
            out.push(Sample::counter(
                "kompics_tcp_flush_syscalls_total",
                &[],
                shared.flush_syscalls.load(Ordering::Relaxed),
            ));
            out.push(Sample::counter(
                "kompics_tcp_borrowed_decodes_total",
                &[],
                shared.borrowed_decodes.load(Ordering::Relaxed),
            ));
            out.push(Sample::counter(
                "kompics_tcp_sockopt_errors_total",
                &[],
                shared.sockopt_errors.load(Ordering::Relaxed),
            ));
            out.push(Sample::counter(
                "kompics_tcp_accept_errors_total",
                &[],
                shared.accept_errors.load(Ordering::Relaxed),
            ));
        });
    }

    fn send(&mut self, event: &EventRef) {
        let Some(header) = event_as::<Message>(event.as_ref()).copied() else {
            return;
        };
        // Encode once, directly into a pooled buffer; the frame is refcounted
        // so the writer can reclaim the allocation after flushing.
        let mut buf = self.shared.take_buf();
        if let Err(err) = frame::encode_frame(&self.shared.registry, event.as_ref(), &mut buf) {
            self.shared.recycle(buf);
            self.net.trigger(DeadLetter {
                message: header,
                reason: err.to_string(),
            });
            return;
        }
        let frame = Bytes::from(buf);
        let endpoint = (header.destination.ip, header.destination.port);
        let conn = {
            let mut table = self.shared.connections.lock();
            table
                .entry(endpoint)
                .or_insert_with(|| Conn {
                    tx: spawn_writer(
                        Arc::clone(&self.shared),
                        header.destination,
                        self.net.inside_ref(),
                        None,
                    ),
                    warned_full: Arc::new(AtomicBool::new(false)),
                })
                .clone()
        };
        let frame_len = frame.len() as u64;
        match conn.tx.try_send(Outgoing { header, frame }) {
            // Count only what the writer accepted: a shed message is a
            // drop, not a send.
            Ok(()) => {
                self.shared.sent.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .bytes_sent
                    .fetch_add(frame_len, Ordering::Relaxed);
            }
            Err(TrySendError::Full(outgoing)) => {
                // Back-pressure: the peer is slow or unreachable and the
                // bounded queue is full. Fail the send fast; the writer (and
                // its queue) stay up. Shedding must stay observable: count
                // every drop, warn once per connection.
                self.shared.recycle_frame(outgoing.frame);
                self.shared.outbound_dropped.fetch_add(1, Ordering::Relaxed);
                if !conn.warned_full.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "kompics-network: outbound queue full ({} messages) for {}; \
                         shedding to DeadLetters (warning once per connection, see \
                         kompics_tcp_outbound_dropped_total)",
                        self.shared.config.outbound_queue, header.destination
                    );
                }
                self.net.trigger(DeadLetter {
                    message: header,
                    reason: format!(
                        "outbound queue full ({} messages) for {}",
                        self.shared.config.outbound_queue, header.destination
                    ),
                });
            }
            Err(TrySendError::Disconnected(outgoing)) => {
                // Writer died; drop it so the next send reconnects.
                self.shared.recycle_frame(outgoing.frame);
                self.shared.connections.lock().remove(&endpoint);
                self.net.trigger(DeadLetter {
                    message: header,
                    reason: "connection writer terminated".into(),
                });
            }
        }
    }

    fn ensure_listener(&mut self) {
        if self.listener_thread.is_some() {
            return;
        }
        let Some(listener) = self.listener.take() else {
            return;
        };
        listener
            .set_nonblocking(true)
            .expect("set listener nonblocking");
        let shared = Arc::clone(&self.shared);
        let port = self.net.inside_ref();
        let self_addr = self.self_addr;
        let handle = std::thread::Builder::new()
            .name(format!("tcp-accept-{}", self.self_addr.port))
            .spawn(move || accept_loop(listener, shared, port, self_addr))
            .expect("spawn acceptor");
        self.listener_thread = Some(handle);
    }
}

fn spawn_writer(
    shared: Arc<Shared>,
    destination: Address,
    port: PortRef<Network>,
    initial: Option<TcpStream>,
) -> SyncSender<Outgoing> {
    // Capacity 0 would make std's channel a rendezvous, i.e. a blocking send.
    let (tx, rx) = sync_channel::<Outgoing>(shared.config.outbound_queue.max(1));
    std::thread::Builder::new()
        .name(format!("tcp-writer-{}", destination.port))
        .spawn(move || writer_loop(shared, destination, rx, port, initial))
        .expect("spawn writer");
    tx
}

/// The delay before reconnection attempt `attempt` (0-based): exponential
/// from [`TcpConfig::connect_retry_delay`], capped at
/// [`TcpConfig::connect_backoff_cap`], shortened by up to
/// [`CONNECT_JITTER`] of itself. Jitter comes from a splitmix64
/// hash of (destination, attempt) — no RNG state, but different writers (and
/// successive attempts) spread out instead of reconnecting in lock-step.
fn backoff_delay(config: &TcpConfig, destination: Address, attempt: u32) -> Duration {
    let nominal = config
        .connect_retry_delay
        .checked_mul(1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX))
        .map_or(config.connect_backoff_cap, |d| {
            d.min(config.connect_backoff_cap)
        });
    let mut x = destination
        .routing_key()
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(destination.port) << 32)
        .wrapping_add(u64::from(attempt));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // uniform in [0, 1)
    nominal.mul_f64(1.0 - CONNECT_JITTER * unit)
}

/// Sets the socket options of an established connection. Every stream the
/// transport uses goes through here once, dialed or accepted (a full-duplex
/// connection's clones share the socket, hence its options), so both ends
/// of a connection behave alike:
///
/// * `TCP_NODELAY` — frames are already batched by the writer; left to
///   Nagle, a reply on an accepted socket waits out the peer's delayed ACK
///   (~40 ms);
/// * a 200 ms read timeout, so a reader blocked on an idle peer notices
///   shutdown.
///
/// Failures are counted and logged, not fatal: the connection still works,
/// only slower.
fn configure_stream(shared: &Shared, stream: &TcpStream, peer: &dyn std::fmt::Display) {
    if let Err(err) = stream.set_nodelay(true) {
        shared.log_sockopt_error("set_nodelay", &peer.to_string(), &err);
    }
    if let Err(err) = stream.set_read_timeout(Some(Duration::from_millis(200))) {
        shared.log_sockopt_error("set_read_timeout", &peer.to_string(), &err);
    }
}

fn try_connect(shared: &Shared, destination: Address) -> Option<TcpStream> {
    for attempt in 0..shared.config.connect_retries.max(1) {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        match TcpStream::connect(destination.socket_addr()) {
            Ok(stream) => {
                configure_stream(shared, &stream, &destination);
                return Some(stream);
            }
            Err(_) if attempt + 1 < shared.config.connect_retries.max(1) => {
                // komlint: allow(blocking-sleep) reason="reconnect backoff on the transport's dedicated writer thread, not a scheduler worker"
                std::thread::sleep(backoff_delay(&shared.config, destination, attempt));
            }
            Err(_) => return None,
        }
    }
    None
}

/// Dials `destination`, announces our canonical listen address with a hello
/// frame (so the peer multiplexes replies onto this socket), and spawns the
/// client-side reader half of the full-duplex connection.
fn establish(
    shared: &Arc<Shared>,
    destination: Address,
    port: &PortRef<Network>,
) -> Option<TcpStream> {
    let mut stream = try_connect(shared, destination)?;
    if stream
        .write_all(&frame::hello_frame(shared.self_addr))
        .is_err()
    {
        return None;
    }
    match stream.try_clone() {
        Ok(read_half) => {
            let shared = Arc::clone(shared);
            let port = port.clone();
            let self_addr = shared.self_addr;
            std::thread::Builder::new()
                .name(format!("tcp-reader-{}", self_addr.port))
                .spawn(move || reader_loop(read_half, shared, port, self_addr))
                .expect("spawn reader");
        }
        Err(err) => {
            // Degraded but functional: without a local read half, replies
            // from the peer arrive over a peer-dialed connection instead.
            shared.log_sockopt_error("try_clone", &destination.to_string(), &err);
        }
    }
    Some(stream)
}

fn writer_loop(
    shared: Arc<Shared>,
    destination: Address,
    rx: Receiver<Outgoing>,
    port: PortRef<Network>,
    initial: Option<TcpStream>,
) {
    let mut stream: Option<TcpStream> = initial;
    let mut batch: Vec<Outgoing> = Vec::new();
    loop {
        batch.clear();
        // komlint: allow(blocking-recv) reason="this loop IS the dedicated writer thread; it exists to block on the outgoing queue"
        match rx.recv() {
            Ok(outgoing) => batch.push(outgoing),
            Err(_) => return,
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Coalesce whatever else is already queued, up to the batch budget.
        let mut batch_bytes = batch[0].frame.len();
        while batch.len() < MAX_BATCH_FRAMES && batch_bytes < MAX_BATCH_BYTES {
            match rx.try_recv() {
                Ok(outgoing) => {
                    batch_bytes += outgoing.frame.len();
                    batch.push(outgoing);
                }
                Err(_) => break,
            }
        }
        // Flush, with one reconnect attempt on write failure. Frames before
        // the failure point were handed to the kernel and are not resent; a
        // partially-written frame is resent from its start (the peer
        // discards the truncated copy at EOF).
        let mut start = 0;
        let mut attempts_left = 2;
        while start < batch.len() && attempts_left > 0 {
            if stream.is_none() {
                stream = establish(&shared, destination, &port);
                if stream.is_none() {
                    break;
                }
            }
            match flush_frames(
                stream.as_mut().expect("stream set"),
                &batch[start..],
                &shared,
            ) {
                Ok(()) => {
                    if batch.len() - start > 1 {
                        shared
                            .batched_frames
                            .fetch_add((batch.len() - start) as u64, Ordering::Relaxed);
                    }
                    start = batch.len();
                }
                Err(flushed) => {
                    start += flushed;
                    stream = None;
                    attempts_left -= 1;
                }
            }
        }
        for outgoing in &batch[start..] {
            let _ = port.trigger(DeadLetter {
                message: outgoing.header,
                reason: format!("cannot reach {destination}"),
            });
        }
        for outgoing in batch.drain(..) {
            shared.recycle_frame(outgoing.frame);
        }
    }
}

/// Writes `frames` with vectored syscalls, handling partial writes.
/// On I/O failure returns `Err(n)` where `n` is the count of frames fully
/// handed to the kernel before the failure.
fn flush_frames(stream: &mut TcpStream, frames: &[Outgoing], shared: &Shared) -> Result<(), usize> {
    let mut idx = 0; // first frame not yet fully written
    let mut offset = 0; // bytes of frames[idx] already written
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(frames.len());
    while idx < frames.len() {
        slices.clear();
        slices.push(IoSlice::new(&frames[idx].frame[offset..]));
        for outgoing in &frames[idx + 1..] {
            slices.push(IoSlice::new(&outgoing.frame));
        }
        match stream.write_vectored(&slices) {
            Ok(0) => return Err(idx),
            Ok(mut n) => {
                shared.flush_syscalls.fetch_add(1, Ordering::Relaxed);
                while idx < frames.len() {
                    let remaining = frames[idx].frame.len() - offset;
                    if n >= remaining {
                        n -= remaining;
                        idx += 1;
                        offset = 0;
                    } else {
                        offset += n;
                        break;
                    }
                }
            }
            Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(idx),
        }
    }
    Ok(())
}

/// Whether an `accept` error cost an inbound connection, as opposed to
/// `WouldBlock` on the non-blocking listener (nothing pending). Everything
/// else `accept(2)` reports — `ECONNABORTED`, `EMFILE`/`ENFILE`/`ENOBUFS`,
/// `EINTR`, an error already pending on the new socket — is about *one*
/// connection and can be provoked by a remote peer, so none of them may end
/// the listener.
fn is_lost_connection(kind: ErrorKind) -> bool {
    kind != ErrorKind::WouldBlock
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    port: PortRef<Network>,
    self_addr: Address,
) {
    while !shared.shutdown.load(Ordering::Acquire) {
        let lost = match listener.accept() {
            Ok((stream, peer)) => {
                configure_stream(&shared, &stream, &peer);
                let shared = Arc::clone(&shared);
                let port = port.clone();
                let reader = std::thread::Builder::new()
                    .name(format!("tcp-reader-{}", self_addr.port))
                    .spawn(move || reader_loop(stream, shared, port, self_addr));
                if reader.is_ok() {
                    continue;
                }
                // The closure owned the stream: it is closed, the peer
                // redials.
                true
            }
            Err(err) => is_lost_connection(err.kind()),
        };
        if lost {
            shared.accept_errors.fetch_add(1, Ordering::Relaxed);
        }
        // komlint: allow(blocking-sleep) reason="accept-poll backoff on the transport's dedicated acceptor thread"
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// When a hello frame announces `peer` as the remote's canonical listen
/// address, register the live socket as the write route to it, making the
/// connection full duplex. An existing route (e.g. from a simultaneous
/// dial) wins; the duplicate socket then only carries inbound traffic.
fn register_route(
    shared: &Arc<Shared>,
    port: &PortRef<Network>,
    peer: Address,
    stream: &TcpStream,
) {
    let endpoint = (peer.ip, peer.port);
    let mut table = shared.connections.lock();
    if table.contains_key(&endpoint) {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Conn {
        tx: spawn_writer(Arc::clone(shared), peer, port.clone(), Some(write_half)),
        warned_full: Arc::new(AtomicBool::new(false)),
    };
    table.insert(endpoint, conn);
}

fn reader_loop(
    mut stream: TcpStream,
    shared: Arc<Shared>,
    port: PortRef<Network>,
    self_addr: Address,
) {
    let mut buf = RecvBuf::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match stream.read(buf.spare()) {
            Ok(0) => return,
            Ok(n) => buf.advance(n),
            Err(ref e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => return,
        }
        let delivered = buf.deliver_frames(|payload| {
            handle_frame(&shared, &port, self_addr, &stream, payload);
        });
        if let Err(len) = delivered {
            let _ = port.trigger(DeadLetter {
                message: Message::new(Address::sim(0), self_addr),
                reason: format!(
                    "frame length {len} exceeds max_frame {}; dropping connection",
                    frame::MAX_FRAME
                ),
            });
            return;
        }
    }
}

/// Decodes and delivers one frame payload (already a zero-copy view of the
/// receive buffer).
fn handle_frame(
    shared: &Arc<Shared>,
    port: &PortRef<Network>,
    self_addr: Address,
    stream: &TcpStream,
    payload: Bytes,
) {
    if frame::is_hello(&payload) {
        if let Some(peer) = frame::parse_hello(&payload) {
            register_route(shared, port, peer, stream);
        }
        return;
    }
    shared.received.fetch_add(1, Ordering::Relaxed);
    shared.bytes_received.fetch_add(
        (payload.len() + frame::LEN_PREFIX) as u64,
        Ordering::Relaxed,
    );

    let borrowed_before = bytes::serde_support::borrowed_views();
    match frame::decode_payload(&shared.registry, &payload) {
        Ok(event) => {
            if bytes::serde_support::borrowed_views() > borrowed_before {
                shared.borrowed_decodes.fetch_add(1, Ordering::Relaxed);
            }
            match port.trigger_shared(event) {
                Ok(feedback) if feedback.pushback => {
                    // A destination mailbox (Block lane) is saturated:
                    // stop draining the socket for a beat. The kernel
                    // receive buffer fills and TCP flow control pushes
                    // back on the remote peer; pushback clears once the
                    // mailbox drops below its low watermark, and reads
                    // resume at full speed.
                    shared.read_pauses.fetch_add(1, Ordering::Relaxed);
                    // komlint: allow(blocking-sleep) reason="read-path pause on the transport's dedicated reader thread is the backpressure mechanism itself"
                    std::thread::sleep(READ_PAUSE);
                }
                _ => {}
            }
        }
        Err(err) => {
            let _ = port.trigger(DeadLetter {
                message: Message::new(Address::sim(0), self_addr),
                reason: format!("undecodable frame: {err}"),
            });
        }
    }
}

impl ComponentDefinition for TcpNetwork {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "TcpNetwork"
    }
}

impl Drop for TcpNetwork {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.connections.lock().clear();
        if let Some(handle) = self.listener_thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(base_ms: u64, cap_ms: u64) -> TcpConfig {
        TcpConfig {
            connect_retry_delay: Duration::from_millis(base_ms),
            connect_backoff_cap: Duration::from_millis(cap_ms),
            ..TcpConfig::default()
        }
    }

    /// `delay` lies in the jitter window below `nominal_ms`: at most
    /// [`CONNECT_JITTER`] shaved off, never lengthened.
    fn assert_in_window(delay: Duration, nominal_ms: u64, what: &str) {
        let nominal = Duration::from_millis(nominal_ms);
        assert!(delay <= nominal, "{what}: jitter only shortens: {delay:?}");
        assert!(
            delay >= nominal.mul_f64(1.0 - CONNECT_JITTER),
            "{what}: at most 25% shaved: {delay:?} vs {nominal:?}"
        );
    }

    #[test]
    fn dialed_and_accepted_streams_get_the_same_socket_options() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let shared = Shared::new(
            Arc::new(MessageRegistry::new()),
            TcpConfig::default(),
            Address::local(port, 1),
        );
        let dialed = try_connect(&shared, Address::local(port, 1)).expect("listener is up");
        let (accepted, peer) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "the OS default is Nagle on");
        configure_stream(&shared, &accepted, &peer);
        for (stream, end) in [(&dialed, "dialed"), (&accepted, "accepted")] {
            assert!(stream.nodelay().unwrap(), "{end}: TCP_NODELAY");
            assert_eq!(
                stream.read_timeout().unwrap(),
                Some(Duration::from_millis(200)),
                "{end}: read timeout"
            );
        }
        assert_eq!(shared.sockopt_errors.load(Ordering::Relaxed), 0);
    }

    /// The `Disconnected` twin of the queue-full test. A writer only ends
    /// at shutdown or by dying, so the dead route is planted: a table entry
    /// whose receiver is gone. The send pays one DeadLetter, is not counted
    /// as sent, and forgets the route so the next send dials afresh.
    #[test]
    fn send_to_a_dead_writer_dead_letters_once_and_forgets_the_route() {
        let system = KompicsSystem::new(Config::default().workers(1));
        let (addr, listener) = TcpNetwork::bind(Address::local(0, 1)).unwrap();
        let mut registry = MessageRegistry::new();
        registry.register::<Message>(1).unwrap();
        let tcp = system.create(move || {
            TcpNetwork::new(addr, listener, Arc::new(registry), TcpConfig::default())
        });
        let net = tcp.provided_ref::<Network>().unwrap();
        let dead = Arc::new(Mutex::new(Vec::new()));
        net.tap({
            let dead = Arc::clone(&dead);
            move |_, event| {
                if let Some(letter) = event_as::<DeadLetter>(event.as_ref()) {
                    dead.lock().push(letter.reason.clone());
                }
            }
        });
        system.start(&tcp);

        let peer = Address::local(1, 2);
        tcp.on_definition(|t| {
            let (tx, _) = sync_channel(1);
            let conn = Conn {
                tx,
                warned_full: Arc::new(AtomicBool::new(false)),
            };
            t.shared
                .connections
                .lock()
                .insert((peer.ip, peer.port), conn);
        })
        .unwrap();
        net.trigger(Message::new(addr, peer)).unwrap();
        system.await_quiescence();

        assert_eq!(*dead.lock(), ["connection writer terminated"]);
        let (routes, sent) = tcp
            .on_definition(|t| (t.shared.connections.lock().len(), t.message_stats().0))
            .unwrap();
        assert_eq!((routes, sent), (0, 0));
        system.shutdown();
    }

    #[test]
    fn only_would_block_is_not_a_lost_connection() {
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::Interrupted,
            ErrorKind::Other,
        ] {
            assert!(is_lost_connection(kind), "{kind:?}");
        }
        assert!(!is_lost_connection(ErrorKind::WouldBlock));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = config(50, 2_000);
        let dest = Address::local(9000, 1);
        let delays: Vec<Duration> = (0..8).map(|a| backoff_delay(&cfg, dest, a)).collect();
        assert_in_window(delays[0], 50, "attempt 0");
        assert_in_window(delays[1], 100, "attempt 1");
        assert_in_window(delays[2], 200, "attempt 2");
        assert_in_window(delays[5], 1_600, "attempt 5");
        assert_in_window(delays[6], 2_000, "capped");
        assert_in_window(delays[7], 2_000, "stays capped");
    }

    #[test]
    fn backoff_survives_extreme_attempts_and_bases() {
        // Shift/multiply overflow on huge attempt counts must saturate at
        // the cap, not wrap around to tiny delays.
        let cfg = config(500, 3_000);
        assert_in_window(backoff_delay(&cfg, Address::local(1, 1), 31), 3_000, "31");
        assert_in_window(
            backoff_delay(&cfg, Address::local(1, 1), u32::MAX),
            3_000,
            "u32::MAX",
        );
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        let cfg = config(1_000, 10_000);
        for attempt in 0..6 {
            let jittered = backoff_delay(&cfg, Address::local(1, 7), attempt);
            assert_in_window(jittered, (1_000u64 << attempt).min(10_000), "jittered");
            // Same (destination, attempt) ⇒ same delay; different
            // destinations de-synchronize.
            assert_eq!(jittered, backoff_delay(&cfg, Address::local(1, 7), attempt));
        }
        let a = backoff_delay(&cfg, Address::local(1, 7), 3);
        let b = backoff_delay(&cfg, Address::local(2, 8), 3);
        assert_ne!(a, b, "different endpoints draw different jitter");
    }
}
