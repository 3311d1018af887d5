//! Real TCP transport over `std::net`.
//!
//! Substitutes for the paper's pluggable Java NIO frameworks (Grizzly /
//! Netty / MINA — see DESIGN.md §4) and has their shape: non-blocking
//! sockets and one readiness loop. A `TcpNetwork` component provides the
//! same [`Network`] port as every other transport and implements
//!
//! * automatic connection management — a route is dialed on first send to
//!   an endpoint (by a transient `tcp-dial` thread, the one blocking step),
//!   kept in a table, re-dialed once when a write fails;
//! * **connection multiplexing** — connections are full duplex: a dialer
//!   announces its canonical listen address in a `HELLO` frame, so the
//!   accepting side routes replies back over the *same* socket instead of
//!   dialing a second connection (one socket per peer, shared by every
//!   local component);
//! * message serialization via the [`MessageRegistry`] and the
//!   `kompics-codec` wire format, encoded **once** directly into a pooled
//!   frame buffer (no intermediate `Vec`s, length prefix written in place);
//! * **one flush per slice, on the sender's own worker** — `send` only
//!   encodes and appends to the route's bounded outbound queue; the
//!   component posts itself one `Flush` event that queues *behind* the
//!   `Message`s already in its mailbox, and the `Flush` handler writes each
//!   touched route's queue with multi-frame `write_vectored` calls (bounded
//!   by [`MAX_BATCH_FRAMES`] / [`MAX_BATCH_BYTES`]). An idle transport
//!   therefore writes one frame in the slice that sent it, with no thread
//!   hand-off; a busy one writes a slice's worth of frames per syscall.
//!   Sockets are non-blocking, so a worker never waits for a peer: what the
//!   kernel does not take stays queued and the I/O loop finishes the job
//!   when the socket is writable again;
//! * **one I/O thread per transport** (`crate::io_loop`) — accepts, reads
//!   every connection, and drains the queues that hit `WouldBlock`. There
//!   are no per-peer threads, no timeouts and no polling sleeps;
//! * **zero-copy decode** — complete frames are handed out as views of the
//!   connection's receive buffer (`crate::recv_buf`) and decoded through
//!   [`MessageRegistry::decode_shared`], so `bytes::Bytes` fields of
//!   handler-visible events reference the receive buffer directly; the
//!   buffer is read into again as soon as no event borrows it;
//! * payload compression above a size threshold (the Zlib substitute) and
//!   length-prefixed framing, both owned by [`crate::frame`].
//!
//! See DESIGN.md §16 for the buffer lifecycle, who writes when, and the
//! I/O loop's state machine and lock order.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use kompics_core::event::{event_as, EventRef};
use kompics_core::port::PortRef;
use kompics_core::prelude::*;
use parking_lot::Mutex;

use crate::address::Address;
use crate::error::NetworkError;
use crate::frame;
use crate::io_loop::{self, Waker};
use crate::net::{DeadLetter, Message, Network};
use crate::registry::MessageRegistry;

/// Encode buffers retained for reuse per transport instance.
const BUF_POOL_CAP: usize = 64;
/// Encode buffers larger than this are dropped instead of pooled, so one
/// huge frame does not pin megabytes of idle capacity.
const BUF_POOL_MAX_CAPACITY: usize = 4 * 1024 * 1024;
/// Most frames one vectored write carries.
const MAX_BATCH_FRAMES: usize = 64;
/// Byte budget for one vectored write; a batch stops growing once the
/// already-collected frames reach it (a single oversized frame still goes
/// out alone).
const MAX_BATCH_BYTES: usize = 256 * 1024;
/// Fraction of the reconnection backoff randomized away (the actual delay
/// is 75–100% of the nominal one), de-synchronizing reconnection storms
/// across dialers.
const CONNECT_JITTER: f64 = 0.25;

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
    /// Capacity of each per-route outbound queue, and the bound is exact:
    /// a route never holds more than this many messages the kernel has not
    /// taken, whether it is still dialing or its peer has stopped reading.
    /// Further sends fail fast as [`DeadLetter`]s instead of growing the
    /// heap. Default: 1024 messages.
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

/// The transport's private self-addressed event: "write out what this slice
/// queued". It travels the data lane, so it runs after every `Message` that
/// was already in the mailbox when it was posted — that ordering is the
/// batching (see DESIGN.md §16.2).
mod flush {
    use kompics_core::{impl_event, port_type};

    #[derive(Debug, Clone)]
    pub struct Flush;
    impl_event!(Flush);

    port_type! {
        /// Carries [`Flush`] from the component to itself.
        pub struct FlushPort {
            indication: ;
            request: Flush;
        }
    }
}
use flush::{Flush, FlushPort};

struct Outgoing {
    header: Message,
    /// The complete encoded frame (`[len][flags][tag][body]`). Refcounted:
    /// once written, the allocation returns to the encode pool if the
    /// queue held the last reference.
    frame: Bytes,
}

/// Where a route's frames can go right now.
enum Link {
    /// No socket and no dial in flight; the next send dials.
    Idle,
    /// A `tcp-dial` thread is connecting; frames wait in the queue.
    Connecting,
    /// Established and non-blocking. The I/O loop reads the same socket.
    Open(Arc<TcpStream>),
}

/// One route: the outbound half of the connection to one peer endpoint.
pub(crate) struct Conn {
    /// The endpoint the route leads to (the peer's listen address).
    peer: Address,
    out: Mutex<Out>,
    /// The socket refused bytes, so the I/O loop owns writing `out` until it
    /// is empty; a worker's `Flush` leaves the route alone meanwhile. Only
    /// changed under the `out` lock; the loop reads it without the lock to
    /// decide its `POLLOUT` interest.
    want_write: AtomicBool,
}

struct Out {
    link: Link,
    /// At most [`TcpConfig::outbound_queue`] frames, oldest first.
    frames: VecDeque<Outgoing>,
    /// Bytes of `frames[0]` the kernel already has.
    head_written: usize,
    /// The link failed with frames queued and was re-dialed for them; a
    /// second failure before any of them is written gives them up.
    redialed: bool,
    /// The queue-full warning fired for this route.
    warned_full: bool,
}

impl Conn {
    fn new(peer: Address, link: Link) -> Arc<Self> {
        Arc::new(Conn {
            peer,
            out: Mutex::new(Out {
                link,
                frames: VecDeque::new(),
                head_written: 0,
                redialed: false,
                warned_full: false,
            }),
            want_write: AtomicBool::new(false),
        })
    }

    /// Whether the I/O loop should watch the route's socket for `POLLOUT`.
    pub(crate) fn wants_write(&self) -> bool {
        self.want_write.load(Ordering::SeqCst)
    }
}

/// (ip, port) key -> the route to that endpoint. Entries are never removed
/// while the transport lives: a route whose peer is gone sits `Idle` and
/// empty until the next send.
type ConnectionMap = HashMap<([u8; 4], u16), Arc<Conn>>;

pub(crate) struct Shared {
    pub(crate) registry: Arc<MessageRegistry>,
    config: TcpConfig,
    pub(crate) self_addr: Address,
    /// The inside half of the component's `Network` port: where the I/O
    /// loop delivers and where every thread reports [`DeadLetter`]s.
    pub(crate) port: PortRef<Network>,
    /// Lock order: this lock is taken only to look a route up or insert
    /// one, never across I/O; a route's `out` lock may be taken under it,
    /// never the other way round. `out` is held across `write_vectored`
    /// and released before any `trigger`.
    connections: Mutex<ConnectionMap>,
    /// Reusable encode buffers; see [`Shared::take_buf`]/[`Shared::recycle`].
    buf_pool: Mutex<Vec<Vec<u8>>>,
    /// Freshly dialed sockets on their way to the I/O loop, which reads
    /// them from then on.
    pub(crate) dialed: Mutex<Vec<(Arc<TcpStream>, Arc<Conn>)>>,
    /// Set when the I/O loop starts.
    pub(crate) waker: OnceLock<Waker>,
    pub(crate) shutdown: AtomicBool,
    sent: AtomicU64,
    pub(crate) received: AtomicU64,
    bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    /// Messages shed to [`DeadLetter`]s because a route's outbound queue
    /// was full.
    outbound_dropped: AtomicU64,
    /// Times the I/O loop stopped reading a connection because a
    /// destination mailbox signalled pushback.
    pub(crate) read_pauses: AtomicU64,
    /// Frames written as part of a multi-frame vectored write.
    batched_frames: AtomicU64,
    /// Vectored write syscalls that wrote something.
    flush_syscalls: AtomicU64,
    /// Decodes that produced at least one zero-copy `Bytes` view of the
    /// receive buffer.
    pub(crate) borrowed_decodes: AtomicU64,
    /// Socket-option calls (`set_nodelay`) that failed; each is also logged
    /// once for its connection.
    sockopt_errors: AtomicU64,
    /// Inbound connections lost at the acceptor: `accept` failed for a
    /// reason other than "nothing pending", or the accepted stream could
    /// not be made non-blocking.
    pub(crate) accept_errors: AtomicU64,
}

impl Shared {
    fn new(
        registry: Arc<MessageRegistry>,
        config: TcpConfig,
        self_addr: Address,
        port: PortRef<Network>,
    ) -> Self {
        Shared {
            registry,
            config,
            self_addr,
            port,
            connections: Mutex::new(HashMap::new()),
            buf_pool: Mutex::new(Vec::new()),
            dialed: Mutex::new(Vec::new()),
            waker: OnceLock::new(),
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

    /// Returns a spent frame's allocation to the pool if the queue held
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

    fn wake_loop(&self) {
        if let Some(waker) = self.waker.get() {
            waker.wake();
        }
    }
}

/// The TCP transport component. See the module documentation.
pub struct TcpNetwork {
    ctx: ComponentContext,
    net: ProvidedPort<Network>,
    /// Self-addressed; see [`flush`].
    flush: ProvidedPort<FlushPort>,
    self_addr: Address,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    io_thread: Option<std::thread::JoinHandle<()>>,
    /// Open routes that took frames since the last `Flush`.
    dirty: Vec<Arc<Conn>>,
    /// A `Flush` is in the mailbox.
    flush_posted: bool,
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
        let flush: ProvidedPort<FlushPort> = ProvidedPort::new();
        let shared = Arc::new(Shared::new(registry, config, self_addr, net.inside_ref()));

        net.subscribe_shared::<TcpNetwork, Message, _>(
            |this: &mut TcpNetwork, event: &EventRef| {
                this.send(event);
            },
        );
        flush.subscribe(|this: &mut TcpNetwork, _: &Flush| {
            this.flush_posted = false;
            for conn in this.dirty.drain(..) {
                flush_route(&this.shared, &conn, false);
            }
        });
        let ctx = ComponentContext::new();
        ctx.subscribe_control(|this: &mut TcpNetwork, _s: &Start| {
            this.ensure_io_loop();
        });

        TcpNetwork {
            ctx,
            net,
            flush,
            self_addr,
            listener: Some(listener),
            shared,
            io_thread: None,
            dirty: Vec::new(),
            flush_posted: false,
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

    /// (outbound messages dropped because a route's queue was full, read
    /// pauses taken because a destination mailbox signalled pushback) so
    /// far.
    pub fn overload_stats(&self) -> (u64, u64) {
        (
            self.shared.outbound_dropped.load(Ordering::Relaxed),
            self.shared.read_pauses.load(Ordering::Relaxed),
        )
    }

    /// Wire-path counters: (frames written in multi-frame vectored writes,
    /// vectored write syscalls, decodes that borrowed zero-copy views of
    /// the receive buffer) so far.
    pub fn wire_stats(&self) -> (u64, u64, u64) {
        (
            self.shared.batched_frames.load(Ordering::Relaxed),
            self.shared.flush_syscalls.load(Ordering::Relaxed),
            self.shared.borrowed_decodes.load(Ordering::Relaxed),
        )
    }

    /// Inbound connections lost at the acceptor so far (a failed `accept`,
    /// or an accepted stream that could not be made non-blocking); the
    /// listener keeps accepting after each.
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
        // so the allocation can be reclaimed once it is written.
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
        let frame_len = frame.len() as u64;
        let endpoint = (header.destination.ip, header.destination.port);
        let conn = Arc::clone(
            self.shared
                .connections
                .lock()
                .entry(endpoint)
                .or_insert_with(|| Conn::new(header.destination, Link::Idle)),
        );
        // Capacity 0 would refuse everything.
        let capacity = self.shared.config.outbound_queue.max(1);
        let mut out = conn.out.lock();
        if out.frames.len() >= capacity {
            let first = !std::mem::replace(&mut out.warned_full, true);
            drop(out);
            self.shed(header, frame, first);
            return;
        }
        out.frames.push_back(Outgoing { header, frame });
        let next = match out.link {
            Link::Idle => {
                out.link = Link::Connecting;
                AfterSend::Dial
            }
            // The dialer, or the I/O loop, writes the queue.
            Link::Connecting => AfterSend::Nothing,
            Link::Open(_) if conn.wants_write() => AfterSend::Nothing,
            Link::Open(_) => AfterSend::Flush,
        };
        drop(out);
        // Count only what a queue accepted: a shed message is a drop, not a
        // send.
        self.shared.sent.fetch_add(1, Ordering::Relaxed);
        self.shared
            .bytes_sent
            .fetch_add(frame_len, Ordering::Relaxed);
        match next {
            AfterSend::Dial => spawn_dial(&self.shared, conn),
            AfterSend::Flush => self.flush_later(conn),
            AfterSend::Nothing => {}
        }
    }

    /// Back-pressure: the peer is slow or unreachable and the route's
    /// bounded queue is full. Fail the send fast; the route (and its queue)
    /// stay up. Shedding must stay observable: count every drop, warn once
    /// per route (`first`).
    fn shed(&self, header: Message, frame: Bytes, first: bool) {
        self.shared.recycle_frame(frame);
        self.shared.outbound_dropped.fetch_add(1, Ordering::Relaxed);
        if first {
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

    /// Remembers that `conn` has frames to write and makes sure one `Flush`
    /// is on its way to this component.
    fn flush_later(&mut self, conn: Arc<Conn>) {
        if !self.dirty.iter().any(|c| Arc::ptr_eq(c, &conn)) {
            self.dirty.push(conn);
        }
        if !self.flush_posted {
            // Through the outside half, so it arrives like any request: at
            // the back of the data lane. Only a shedding mailbox policy can
            // refuse it, and then the next send posts another.
            let posted = self.flush.share().trigger(Flush);
            self.flush_posted = posted.is_ok_and(|feedback| feedback.delivered > 0);
        }
    }

    fn ensure_io_loop(&mut self) {
        if self.io_thread.is_some() {
            return;
        }
        let Some(listener) = self.listener.take() else {
            return;
        };
        // A panic in a handler is a supervisable `Fault`.
        let handle =
            io_loop::spawn(Arc::clone(&self.shared), listener).expect("start the TCP I/O loop");
        self.io_thread = Some(handle);
    }
}

/// What `send` owes a route after queueing a frame on it.
enum AfterSend {
    Dial,
    Flush,
    Nothing,
}

/// Writes as much of `conn`'s queue as its socket takes without blocking.
/// A worker's `Flush` and a dialer call it with `from_loop == false` and
/// stand back while the I/O loop owns the route (`want_write`); on
/// `WouldBlock` they hand the route to the loop, which calls it with
/// `from_loop == true` whenever the socket is writable and gives the route
/// back once the queue is empty.
pub(crate) fn flush_route(shared: &Arc<Shared>, conn: &Arc<Conn>, from_loop: bool) {
    let mut out = conn.out.lock();
    let Link::Open(stream) = &out.link else {
        return;
    };
    if conn.wants_write() != from_loop {
        return;
    }
    let stream = Arc::clone(stream);
    let mut handed_over = false;
    let failed = loop {
        if out.frames.is_empty() {
            conn.want_write.store(false, Ordering::SeqCst);
            break false;
        }
        let mut slices = [IoSlice::new(&[]); MAX_BATCH_FRAMES];
        let mut count = 0;
        let mut bytes = 0;
        for (outgoing, slice) in out.frames.iter().zip(&mut slices) {
            if bytes >= MAX_BATCH_BYTES {
                break;
            }
            let skip = if count == 0 { out.head_written } else { 0 };
            *slice = IoSlice::new(&outgoing.frame[skip..]);
            bytes += outgoing.frame.len() - skip;
            count += 1;
        }
        match (&*stream).write_vectored(&slices[..count]) {
            Ok(0) => break true,
            Ok(written) => {
                shared.flush_syscalls.fetch_add(1, Ordering::Relaxed);
                let done = out.consume(written, |frame| shared.recycle_frame(frame));
                if done > 0 {
                    out.redialed = false;
                    if count > 1 {
                        shared.batched_frames.fetch_add(done, Ordering::Relaxed);
                    }
                }
            }
            Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                handed_over = !from_loop;
                conn.want_write.store(true, Ordering::SeqCst);
                break false;
            }
            Err(_) => break true,
        }
    };
    drop(out);
    if handed_over {
        shared.wake_loop();
    }
    if failed {
        connection_lost(shared, conn, &stream);
    }
}

impl Out {
    /// Accounts for `written` bytes the kernel took from the front of the
    /// queue: hands every frame that is now completely written to `spent`
    /// and returns how many there were.
    fn consume(&mut self, mut written: usize, mut spent: impl FnMut(Bytes)) -> u64 {
        let mut done = 0;
        while let Some(head) = self.frames.front() {
            let remaining = head.frame.len() - self.head_written;
            if written < remaining {
                self.head_written += written;
                break;
            }
            written -= remaining;
            self.head_written = 0;
            if let Some(outgoing) = self.frames.pop_front() {
                done += 1;
                spent(outgoing.frame);
            }
        }
        done
    }
}

/// `stream` failed (reset, EOF, write error). If it is still `conn`'s link:
/// with nothing queued the route goes idle; with frames queued it is
/// re-dialed for them once, resending from the first frame not fully handed
/// to the kernel (the peer discards a truncated copy at EOF); if the
/// re-dialed link fails before writing any of them they become
/// [`DeadLetter`]s. Whoever notices first — a worker's write or the I/O
/// loop's read — calls this; the second call finds the link changed and
/// does nothing.
pub(crate) fn connection_lost(shared: &Arc<Shared>, conn: &Arc<Conn>, stream: &Arc<TcpStream>) {
    let mut out = conn.out.lock();
    if !matches!(&out.link, Link::Open(current) if Arc::ptr_eq(current, stream)) {
        return;
    }
    // So the I/O loop sees a hang-up and stops watching the socket.
    let _ = stream.shutdown(Shutdown::Both);
    conn.want_write.store(false, Ordering::SeqCst);
    out.head_written = 0;
    if out.frames.is_empty() {
        out.link = Link::Idle;
    } else if !out.redialed {
        out.redialed = true;
        out.link = Link::Connecting;
        drop(out);
        spawn_dial(shared, Arc::clone(conn));
    } else {
        drop(out);
        give_up(shared, conn);
    }
}

/// The route cannot be (re-)established: everything queued on it becomes a
/// "cannot reach" [`DeadLetter`] and the route goes idle, so a later send
/// dials afresh.
fn give_up(shared: &Shared, conn: &Conn) {
    let undelivered: Vec<Outgoing> = {
        let mut out = conn.out.lock();
        out.link = Link::Idle;
        out.head_written = 0;
        out.redialed = false;
        out.warned_full = false;
        out.frames.drain(..).collect()
    };
    for outgoing in undelivered {
        let _ = shared.port.trigger(DeadLetter {
            message: outgoing.header,
            reason: format!("cannot reach {}", conn.peer),
        });
        shared.recycle_frame(outgoing.frame);
    }
}

/// Starts the transient thread that connects `conn` (whose link is already
/// [`Link::Connecting`]). Dialing is the one thing std cannot do without
/// blocking, so it is the one thing that gets a thread; it exits as soon as
/// the socket is with the I/O loop.
fn spawn_dial(shared: &Arc<Shared>, conn: Arc<Conn>) {
    let spawned = std::thread::Builder::new()
        .name(format!("tcp-dial-{}", conn.peer.port))
        .spawn({
            let shared = Arc::clone(shared);
            let conn = Arc::clone(&conn);
            move || dial(&shared, &conn)
        });
    if spawned.is_err() {
        give_up(shared, &conn);
    }
}

fn dial(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let Some(stream) = establish(shared, conn.peer) else {
        give_up(shared, conn);
        return;
    };
    let stream = Arc::new(stream);
    conn.out.lock().link = Link::Open(Arc::clone(&stream));
    shared.dialed.lock().push((stream, Arc::clone(conn)));
    shared.wake_loop();
    flush_route(shared, conn, false);
}

/// The delay before reconnection attempt `attempt` (0-based): exponential
/// from [`TcpConfig::connect_retry_delay`], capped at
/// [`TcpConfig::connect_backoff_cap`], shortened by up to
/// [`CONNECT_JITTER`] of itself. Jitter comes from a splitmix64
/// hash of (destination, attempt) — no RNG state, but different dialers (and
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
/// transport uses goes through here once, dialed or accepted, so both ends
/// of a connection behave alike: `TCP_NODELAY` — frames are already batched
/// per slice; left to Nagle, a reply on an accepted socket waits out the
/// peer's delayed ACK (~40 ms).
///
/// A failure is counted and logged, not fatal: the connection still works,
/// only slower.
pub(crate) fn configure_stream(shared: &Shared, stream: &TcpStream, peer: &dyn std::fmt::Display) {
    if let Err(err) = stream.set_nodelay(true) {
        shared.log_sockopt_error("set_nodelay", &peer.to_string(), &err);
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
                // komlint: allow(blocking-sleep) reason="reconnect backoff on the transport's transient dial thread, not a scheduler worker"
                std::thread::sleep(backoff_delay(&shared.config, destination, attempt));
            }
            Err(_) => return None,
        }
    }
    None
}

/// Dials `destination` and announces our canonical listen address with a
/// hello frame (so the peer multiplexes replies onto this socket). The
/// hello is written while the fresh socket still blocks; the stream comes
/// back non-blocking.
fn establish(shared: &Shared, destination: Address) -> Option<TcpStream> {
    let mut stream = try_connect(shared, destination)?;
    stream
        .write_all(&frame::hello_frame(shared.self_addr))
        .and_then(|()| stream.set_nonblocking(true))
        .ok()?;
    Some(stream)
}

/// When a hello frame announces `peer` as the remote's canonical listen
/// address, publish the live socket as the write route to it, making the
/// connection full duplex. Returns the route if `stream` now carries it. A
/// route that is already open or dialing (e.g. from a simultaneous dial)
/// wins; the duplicate socket then only carries inbound traffic.
pub(crate) fn register_route(
    shared: &Shared,
    peer: Address,
    stream: &Arc<TcpStream>,
) -> Option<Arc<Conn>> {
    let mut table = shared.connections.lock();
    let conn = table
        .entry((peer.ip, peer.port))
        .or_insert_with(|| Conn::new(peer, Link::Idle));
    let mut out = conn.out.lock();
    if !matches!(out.link, Link::Idle) {
        return None;
    }
    out.link = Link::Open(Arc::clone(stream));
    Some(Arc::clone(conn))
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
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_loop();
        if let Some(handle) = self.io_thread.take() {
            let _ = handle.join();
        }
        self.shared.connections.lock().clear();
        self.shared.dialed.lock().clear();
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
        let system = KompicsSystem::new(Config::default().workers(1));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        // A transport (never started) only to have its `Shared`.
        let (addr, own_listener) = TcpNetwork::bind(Address::local(0, 1)).unwrap();
        let tcp = system.create(move || {
            let registry = Arc::new(MessageRegistry::new());
            TcpNetwork::new(addr, own_listener, registry, TcpConfig::default())
        });
        let shared = tcp.on_definition(|t| Arc::clone(&t.shared)).unwrap();
        let dialed = try_connect(&shared, Address::local(port, 1)).expect("listener is up");
        let (accepted, peer) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "the OS default is Nagle on");
        configure_stream(&shared, &accepted, &peer);
        for (stream, end) in [(&dialed, "dialed"), (&accepted, "accepted")] {
            assert!(stream.nodelay().unwrap(), "{end}: TCP_NODELAY");
        }
        assert_eq!(shared.sockopt_errors.load(Ordering::Relaxed), 0);
        system.shutdown();
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
