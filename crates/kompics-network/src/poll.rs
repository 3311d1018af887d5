//! `poll(2)` — the readiness primitive under the TCP I/O loop, and the only
//! `unsafe` in this crate.
//!
//! std links libc but exposes no readiness API, and there is no `mio` or
//! `libc` crate offline, so the one function the loop needs is declared
//! here. `poll` is level-triggered: a descriptor that is ready is reported
//! on every call until the condition is consumed, so the loop carries no
//! edge bookkeeping. See DESIGN.md §16.6.

use std::ffi::c_int;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
/// Reported whether or not it was asked for.
pub(crate) const POLLERR: i16 = 0x008;
/// Reported whether or not it was asked for.
pub(crate) const POLLHUP: i16 = 0x010;
/// Reported whether or not it was asked for.
pub(crate) const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

/// `struct pollfd`, laid out as the C one.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Interest in `events` on `source`, which must stay open until the
    /// `poll` call this entry is passed to has returned (a closed
    /// descriptor is reported as [`POLLNVAL`], not undefined behaviour).
    pub(crate) fn new(source: &impl AsRawFd, events: i16) -> Self {
        PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// What the last `poll` reported for this entry.
    pub(crate) fn revents(&self) -> i16 {
        self.revents
    }
}

extern "C" {
    // SAFETY: this is `int poll(struct pollfd *fds, nfds_t nfds, int
    // timeout)` as POSIX declares it; `PollFd` is `#[repr(C)]` with the C
    // struct's three fields in order, and `NfdsT` is the platform's
    // `nfds_t`.
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Calls `f` until it returns something other than `Interrupted`.
fn retry_interrupted<T>(mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match f() {
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// Waits until a descriptor in `fds` is ready or `timeout` passes (`None`
/// waits indefinitely; a timeout is rounded up to a whole millisecond).
/// Returns how many entries have a non-zero [`PollFd::revents`]; `0` means
/// the timeout passed. A signal (`EINTR`) restarts the wait.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let millis = timeout.map_or(-1, |t| {
        let rounded_up = t.as_nanos().div_ceil(1_000_000);
        c_int::try_from(rounded_up).unwrap_or(c_int::MAX)
    });
    retry_interrupted(|| {
        // SAFETY: the pointer and length describe the caller's exclusively
        // borrowed slice, which outlives the call; the kernel writes only
        // the `revents` field of those `fds.len()` entries.
        let ready = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
        // Negative means failure, with the reason in `errno`.
        usize::try_from(ready).map_err(|_| io::Error::last_os_error())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    fn ready(source: &UnixStream, events: i16, timeout_ms: u64) -> io::Result<(usize, i16)> {
        let mut fds = [PollFd::new(source, events)];
        let n = poll(&mut fds, Some(Duration::from_millis(timeout_ms)))?;
        Ok((n, fds[0].revents()))
    }

    #[test]
    fn readable_after_a_write_and_not_before() -> io::Result<()> {
        let (mut a, b) = UnixStream::pair()?;
        assert_eq!(ready(&b, POLLIN, 0)?, (0, 0), "nothing written yet");
        a.write_all(b"x")?;
        let (n, revents) = ready(&b, POLLIN, 1_000)?;
        assert_eq!(n, 1);
        assert_ne!(revents & POLLIN, 0);
        // Level-triggered: still readable, because nothing read it.
        assert_ne!(ready(&b, POLLIN, 0)?.1 & POLLIN, 0);
        Ok(())
    }

    #[test]
    fn fresh_socket_is_writable() -> io::Result<()> {
        let (a, _b) = UnixStream::pair()?;
        let (n, revents) = ready(&a, POLLOUT, 0)?;
        assert_eq!(n, 1);
        assert_ne!(revents & POLLOUT, 0);
        Ok(())
    }

    #[test]
    fn timeout_returns_zero() -> io::Result<()> {
        let (_a, b) = UnixStream::pair()?;
        let started = std::time::Instant::now();
        assert_eq!(ready(&b, POLLIN, 30)?, (0, 0));
        assert!(started.elapsed() >= Duration::from_millis(30));
        // Sub-millisecond timeouts round up instead of spinning at zero.
        let mut fds = [PollFd::new(&b, POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_micros(1)))?, 0);
        Ok(())
    }

    #[test]
    fn closed_peer_surfaces_as_hangup_without_being_asked_for() -> io::Result<()> {
        let (a, b) = UnixStream::pair()?;
        drop(a);
        let (n, revents) = ready(&b, 0, 1_000)?;
        assert_eq!(n, 1);
        assert_ne!(revents & (POLLHUP | POLLERR), 0, "revents {revents:#x}");
        Ok(())
    }

    #[test]
    fn reset_tcp_peer_surfaces_as_error_or_hangup() -> io::Result<()> {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut dialed = TcpStream::connect(listener.local_addr()?)?;
        let (accepted, _) = listener.accept()?;
        // Closing with unread bytes in the receive queue sends a reset.
        dialed.write_all(b"unread")?;
        let mut fds = [PollFd::new(&accepted, POLLIN)];
        poll(&mut fds, Some(Duration::from_secs(1)))?;
        drop(accepted);
        let mut fds = [PollFd::new(&dialed, 0)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(1)))?, 1);
        assert_ne!(fds[0].revents() & (POLLHUP | POLLERR), 0);
        Ok(())
    }

    #[test]
    fn interrupted_calls_are_retried_and_other_errors_are_not() {
        let mut calls = 0;
        let out = retry_interrupted(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::from(io::ErrorKind::Interrupted))
            } else {
                Ok(calls)
            }
        });
        assert!(matches!(out, Ok(3)));
        let mut calls = 0;
        let out: io::Result<()> = retry_interrupted(|| {
            calls += 1;
            Err(io::Error::from(io::ErrorKind::InvalidInput))
        });
        assert!(matches!(out, Err(e) if e.kind() == io::ErrorKind::InvalidInput));
        assert_eq!(calls, 1);
    }
}
