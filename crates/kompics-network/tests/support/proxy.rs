//! A scriptable in-process TCP fault proxy: a reusable test layer.
//!
//! `Proxy::start(upstream)` listens on a loopback port and pipes every
//! connection it accepts to `upstream`, misbehaving as its [`Mode`] says.
//! The mode is read before every transfer, so a test can change it while
//! connections are live (`Stall` a healthy connection, un-stall it later).
//! Blocking std sockets and two pump threads per connection — this is test
//! support, not a transport. Include it with
//! `#[path = "support/proxy.rs"] mod proxy;`.

#![allow(dead_code)] // each test file uses the part of the script it needs

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a pump waits for bytes, or idles under `Stall`, before it looks
/// at the mode and the stop flag again.
const TICK: Duration = Duration::from_millis(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pipe both directions faithfully.
    Forward,
    /// Forward exactly this many client bytes upstream on a connection,
    /// then drop both of its sockets mid-stream. One shot: the proxy falls
    /// back to `Forward` when it fires, so the re-dial goes through.
    ResetAfter { bytes: usize },
    /// Accept, never read: the client's writes fill the kernel buffers.
    Stall,
    /// Read and discard in both directions.
    Blackhole,
}

struct Script {
    mode: Mutex<Mode>,
    stop: AtomicBool,
    accepted: AtomicUsize,
    resets: AtomicUsize,
}

pub struct Proxy {
    /// Where clients connect.
    pub addr: SocketAddr,
    script: Arc<Script>,
    acceptor: Option<JoinHandle<()>>,
}

impl Proxy {
    pub fn start(upstream: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy address");
        let script = Arc::new(Script {
            mode: Mutex::new(Mode::Forward),
            stop: AtomicBool::new(false),
            accepted: AtomicUsize::new(0),
            resets: AtomicUsize::new(0),
        });
        let acceptor = std::thread::Builder::new()
            .name("proxy-accept".into())
            .spawn({
                let script = Arc::clone(&script);
                move || accept_loop(&listener, upstream, &script)
            })
            .expect("spawn proxy acceptor");
        Proxy {
            addr,
            script,
            acceptor: Some(acceptor),
        }
    }

    pub fn set_mode(&self, mode: Mode) {
        *self.script.mode.lock().unwrap() = mode;
    }

    pub fn mode(&self) -> Mode {
        *self.script.mode.lock().unwrap()
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> usize {
        self.script.accepted.load(Ordering::SeqCst)
    }

    /// Times `ResetAfter` fired.
    pub fn resets(&self) -> usize {
        self.script.resets.load(Ordering::SeqCst)
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.script.stop.store(true, Ordering::SeqCst);
        // Unblocks `accept`; the pumps notice the flag within a tick.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, upstream: SocketAddr, script: &Arc<Script>) {
    let mut pumps = Vec::new();
    for client in listener.incoming() {
        if script.stop.load(Ordering::SeqCst) {
            break;
        }
        let (Ok(client), Ok(server)) = (client, TcpStream::connect(upstream)) else {
            continue;
        };
        script.accepted.fetch_add(1, Ordering::SeqCst);
        let pipe = Arc::new(Pipe {
            client,
            server,
            over: AtomicBool::new(false),
        });
        for upward in [true, false] {
            let (pipe, script) = (Arc::clone(&pipe), Arc::clone(script));
            pumps.push(std::thread::spawn(move || pump(&pipe, &script, upward)));
        }
    }
    for pump in pumps {
        let _ = pump.join();
    }
}

/// One proxied connection; closed when both pumps have let go of it.
struct Pipe {
    client: TcpStream,
    server: TcpStream,
    over: AtomicBool,
}

impl Pipe {
    /// Ends the connection in both directions and kicks the other pump out
    /// of its read.
    fn end(&self) {
        self.over.store(true, Ordering::SeqCst);
        let _ = self.client.shutdown(Shutdown::Both);
        let _ = self.server.shutdown(Shutdown::Both);
    }
}

/// Moves bytes one way (`upward`: client → upstream) until the connection
/// or the proxy ends.
fn pump(pipe: &Pipe, script: &Script, upward: bool) {
    let (mut from, mut to) = if upward {
        (&pipe.client, &pipe.server)
    } else {
        (&pipe.server, &pipe.client)
    };
    let _ = from.set_read_timeout(Some(TICK));
    let mut forwarded = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    while !script.stop.load(Ordering::SeqCst) && !pipe.over.load(Ordering::SeqCst) {
        let mode = *script.mode.lock().unwrap();
        if mode == Mode::Stall {
            std::thread::sleep(TICK);
            continue;
        }
        // Never read past the reset point, so "forwarded" is exact.
        let want = match mode {
            Mode::ResetAfter { bytes } if upward => chunk.len().min(bytes - forwarded.min(bytes)),
            _ => chunk.len(),
        };
        let n = match from.read(&mut chunk[..want]) {
            Ok(0) if want > 0 => break,
            Ok(n) => n,
            Err(ref e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => break,
        };
        if mode != Mode::Blackhole && to.write_all(&chunk[..n]).is_err() {
            break;
        }
        forwarded += n;
        if matches!(mode, Mode::ResetAfter { bytes } if upward && forwarded >= bytes) {
            let mut current = script.mode.lock().unwrap();
            if *current == mode {
                *current = Mode::Forward;
            }
            drop(current);
            script.resets.fetch_add(1, Ordering::SeqCst);
            break;
        }
    }
    pipe.end();
}
