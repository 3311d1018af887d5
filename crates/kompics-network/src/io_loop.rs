//! The TCP transport's readiness loop: one thread per `TcpNetwork` that
//! accepts, reads every connection, and finishes the writes a worker could
//! not (see DESIGN.md §16.6).
//!
//! Each turn builds a `poll` set — the waker, the listener, every socket
//! with `POLLIN` unless it is paused and `POLLOUT` only while its route is
//! handed over (`Conn::wants_write`) — waits, and serves what is ready.
//! Nothing here blocks on one peer: sockets are non-blocking, a saturated
//! destination mailbox costs its connection a short loss of read interest
//! rather than a sleep, and the only wait is the `poll` itself.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::address::Address;
use crate::frame;
use crate::net::{DeadLetter, Message};
use crate::poll::{poll, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::recv_buf::RecvBuf;
use crate::tcp::{configure_stream, connection_lost, flush_route, register_route, Conn, Shared};

/// How long a connection is left unread after a delivery reported mailbox
/// pushback, and the listener unaccepted after `accept` failed.
const READ_PAUSE: Duration = Duration::from_millis(1);

/// Interrupts the loop's `poll`. Wake-ups coalesce: between two turns of
/// the loop at most one byte is in the pipe, however many threads call
/// [`Waker::wake`].
pub(crate) struct Waker {
    tx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    /// Makes the loop take another turn. Callers change the state the loop
    /// should notice *before* calling this; the loop clears `pending`
    /// *before* looking at that state, so a change is either seen by the
    /// current turn or causes the next one.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // Cannot fill up (one byte per turn); if the loop is gone there
            // is nobody to wake.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

/// One socket the loop watches.
struct Sock {
    stream: Arc<TcpStream>,
    buf: RecvBuf,
    /// The route this socket carries outbound traffic for: set at hand-over
    /// for a dialed socket, by the peer's hello for an accepted one, never
    /// for a duplicate that lost a simultaneous dial.
    route: Option<Arc<Conn>>,
    /// No `POLLIN` interest before this instant.
    paused_until: Option<Instant>,
}

impl Sock {
    fn new(stream: Arc<TcpStream>, route: Option<Arc<Conn>>) -> Self {
        Sock {
            stream,
            buf: RecvBuf::new(),
            route,
            paused_until: None,
        }
    }
}

/// Starts the loop for `shared` on `listener` and installs its waker.
///
/// # Errors
///
/// The waker's socket pair, a non-blocking mode or the thread could not be
/// had.
pub(crate) fn spawn(shared: Arc<Shared>, listener: TcpListener) -> io::Result<JoinHandle<()>> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    listener.set_nonblocking(true)?;
    let waker = Waker {
        tx,
        pending: AtomicBool::new(false),
    };
    if shared.waker.set(waker).is_err() {
        return Err(io::Error::other("the TCP I/O loop was already started"));
    }
    std::thread::Builder::new()
        .name(format!("tcp-io-{}", shared.self_addr.port))
        .spawn(move || run(&shared, &listener, &rx))
}

/// The I/O thread's clock. Pauses are its only deadlines.
fn now() -> Instant {
    // komlint: allow(wall-clock) reason="read-pause deadlines on the real transport's dedicated I/O thread; simulation swaps in the network emulator"
    Instant::now()
}

/// The `poll` interest of something that may be paused, and how long the
/// `poll` may wait because of it. An expired pause is cleared.
fn read_interest(paused_until: &mut Option<Instant>, timeout: &mut Option<Duration>) -> i16 {
    if let Some(until) = *paused_until {
        let left = until.saturating_duration_since(now());
        if !left.is_zero() {
            *timeout = Some(timeout.map_or(left, |t| t.min(left)));
            return 0;
        }
        *paused_until = None;
    }
    POLLIN
}

fn run(shared: &Arc<Shared>, listener: &TcpListener, wake_rx: &UnixStream) {
    let mut socks: Vec<Sock> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut accept_paused_until: Option<Instant> = None;
    while !shared.shutdown.load(Ordering::SeqCst) {
        socks.extend(
            shared
                .dialed
                .lock()
                .drain(..)
                .map(|(stream, route)| Sock::new(stream, Some(route))),
        );

        let mut timeout = None;
        fds.clear();
        fds.push(PollFd::new(wake_rx, POLLIN));
        fds.push(PollFd::new(
            listener,
            read_interest(&mut accept_paused_until, &mut timeout),
        ));
        for sock in &mut socks {
            let mut events = read_interest(&mut sock.paused_until, &mut timeout);
            if sock.route.as_ref().is_some_and(|route| route.wants_write()) {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(&*sock.stream, events));
        }

        if let Err(err) = poll(&mut fds, timeout) {
            eprintln!(
                "kompics-network: poll failed on the I/O loop of {}: {err}; the transport stops",
                shared.self_addr
            );
            return;
        }

        if fds[0].revents() != 0 {
            let _ = (&*wake_rx).read(&mut [0; 8]);
            // Cleared before the next turn looks at anything a waker may
            // have changed; see `Waker::wake`.
            if let Some(waker) = shared.waker.get() {
                waker.pending.store(false, Ordering::SeqCst);
            }
        }
        // Sockets accepted now join the `poll` set next turn.
        if fds[1].revents() != 0 && !accept_ready(shared, listener, &mut socks) {
            accept_paused_until = Some(now() + READ_PAUSE);
        }
        let mut revents = fds[2..].iter().map(PollFd::revents);
        socks.retain_mut(|sock| serve(shared, sock, revents.next().unwrap_or(0)));
    }
}

/// Serves one socket's readiness; `false` once the connection is over.
fn serve(shared: &Arc<Shared>, sock: &mut Sock, revents: i16) -> bool {
    let mut alive = revents & POLLNVAL == 0;
    // A hang-up or error is read through, pause or not: what the peer sent
    // before it is still delivered, then `read` reports the end.
    if alive && revents & (POLLIN | POLLHUP | POLLERR) != 0 {
        alive = read_ready(shared, sock);
    }
    match &sock.route {
        Some(route) if !alive => connection_lost(shared, route, &sock.stream),
        Some(route) if revents & POLLOUT != 0 => flush_route(shared, route, true),
        _ => {}
    }
    alive
}

/// Accepts until nothing is pending. `false` if an `accept` failed for any
/// other reason: whatever it was (`ECONNABORTED`, `EMFILE`…) is still there
/// or gone by the next attempt, and a level-triggered `poll` would report
/// the listener again at once, so the caller looks away for a moment
/// instead of spinning.
fn accept_ready(shared: &Shared, listener: &TcpListener, socks: &mut Vec<Sock>) -> bool {
    loop {
        let accepted = listener.accept().and_then(|(stream, peer)| {
            configure_stream(shared, &stream, &peer);
            stream.set_nonblocking(true)?;
            Ok(stream)
        });
        match accepted {
            Ok(stream) => socks.push(Sock::new(Arc::new(stream), None)),
            Err(err) if !is_lost_connection(err.kind()) => return true,
            Err(_) => {
                shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
    }
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

/// Reads once from a readable socket and delivers every frame that
/// completes. One read per turn: a peer that always has more to send
/// cannot keep the loop from the others. `false` at EOF, on a read error,
/// and on an oversized frame.
fn read_ready(shared: &Shared, sock: &mut Sock) -> bool {
    let Sock {
        stream,
        buf,
        route,
        paused_until,
    } = sock;
    match (&**stream).read(buf.spare()) {
        Ok(0) => return false,
        Ok(n) => buf.advance(n),
        Err(ref e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
            return true;
        }
        Err(_) => return false,
    }
    let mut pushback = false;
    let delivered = buf.deliver_frames(|payload| {
        if frame::is_hello(&payload) {
            if let (None, Some(peer)) = (&route, frame::parse_hello(&payload)) {
                *route = register_route(shared, peer, stream);
            }
        } else {
            pushback |= deliver(shared, &payload);
        }
    });
    if let Err(len) = delivered {
        let _ = shared.port.trigger(DeadLetter {
            message: Message::new(Address::sim(0), shared.self_addr),
            reason: format!(
                "frame length {len} exceeds max_frame {}; dropping connection",
                frame::MAX_FRAME
            ),
        });
        return false;
    }
    if pushback {
        // A destination mailbox (Block lane) is saturated: stop reading
        // this connection for a beat. Its kernel receive buffer fills and
        // TCP flow control pushes back on the remote peer; pushback clears
        // once the mailbox drops below its low watermark, and reads resume
        // at full speed. Other connections are read meanwhile.
        shared.read_pauses.fetch_add(1, Ordering::Relaxed);
        *paused_until = Some(now() + READ_PAUSE);
    }
    true
}

/// Decodes and delivers one data frame payload (already a zero-copy view of
/// the receive buffer). Returns whether a destination signalled pushback.
fn deliver(shared: &Shared, payload: &Bytes) -> bool {
    shared.received.fetch_add(1, Ordering::Relaxed);
    shared.bytes_received.fetch_add(
        (payload.len() + frame::LEN_PREFIX) as u64,
        Ordering::Relaxed,
    );

    let borrowed_before = bytes::serde_support::borrowed_views();
    match frame::decode_payload(&shared.registry, payload) {
        Ok(event) => {
            if bytes::serde_support::borrowed_views() > borrowed_before {
                shared.borrowed_decodes.fetch_add(1, Ordering::Relaxed);
            }
            shared
                .port
                .trigger_shared(event)
                .is_ok_and(|feedback| feedback.pushback)
        }
        Err(err) => {
            let _ = shared.port.trigger(DeadLetter {
                message: Message::new(Address::sim(0), shared.self_addr),
                reason: format!("undecodable frame: {err}"),
            });
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
