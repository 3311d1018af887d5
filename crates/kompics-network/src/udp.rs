//! UDP datagram transport.
//!
//! The paper's point about Grizzly/Netty/MINA is that transports are
//! *pluggable components behind the `Network` port*; this second real
//! transport (alongside [`TcpNetwork`](crate::tcp::TcpNetwork)) makes the
//! claim concrete: best-effort, connectionless delivery, one frame per
//! datagram. Protocols built on the eventually-perfect failure detector and
//! ABD's retry loop run unchanged over it — datagram loss looks like
//! message loss, which they already mask.
//!
//! Frames over ~60 KiB cannot fit a datagram and are reported as
//! [`DeadLetter`]s.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kompics_core::event::{event_as, EventRef};
use kompics_core::port::PortRef;
use kompics_core::prelude::*;

use crate::address::Address;
use crate::error::NetworkError;
use crate::frame;
use crate::net::{DeadLetter, Message, Network};
use crate::registry::MessageRegistry;

/// Largest payload we attempt to send in one datagram.
const MAX_DATAGRAM: usize = 60 * 1024;

struct Shared {
    registry: Arc<MessageRegistry>,
    socket: UdpSocket,
    shutdown: AtomicBool,
    sent: AtomicU64,
    received: AtomicU64,
}

/// The UDP transport component: provides [`Network`] with best-effort
/// datagram semantics.
pub struct UdpNetwork {
    ctx: ComponentContext,
    net: ProvidedPort<Network>,
    self_addr: Address,
    shared: Arc<Shared>,
    /// Reusable encode buffer: `send` runs on the component's single
    /// handler thread, so one buffer serves every outgoing datagram with
    /// no per-send allocation (the TCP path's pool, degenerated to one).
    encode_buf: Vec<u8>,
    receiver: Option<std::thread::JoinHandle<()>>,
}

impl UdpNetwork {
    /// Binds a socket for the transport (port `0` for OS-assigned); the
    /// returned [`Address`] carries the actual port.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: Address) -> Result<(Address, UdpSocket), NetworkError> {
        let socket = UdpSocket::bind(addr.socket_addr())?;
        let actual = socket.local_addr()?;
        Ok((
            Address {
                ip: addr.ip,
                port: actual.port(),
                id: addr.id,
            },
            socket,
        ))
    }

    /// Creates the transport around a pre-bound socket (see
    /// [`UdpNetwork::bind`]); call inside a `create` closure.
    pub fn new(self_addr: Address, socket: UdpSocket, registry: Arc<MessageRegistry>) -> Self {
        let net: ProvidedPort<Network> = ProvidedPort::new();
        let shared = Arc::new(Shared {
            registry,
            socket,
            shutdown: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
        });
        net.subscribe_shared::<UdpNetwork, Message, _>(
            |this: &mut UdpNetwork, event: &EventRef| {
                this.send(event);
            },
        );
        let ctx = ComponentContext::new();
        ctx.subscribe_control(|this: &mut UdpNetwork, _s: &Start| {
            this.ensure_receiver();
        });
        UdpNetwork {
            ctx,
            net,
            self_addr,
            shared,
            encode_buf: Vec::new(),
            receiver: None,
        }
    }

    /// The transport's bound address.
    pub fn self_addr(&self) -> Address {
        self.self_addr
    }

    /// (datagrams sent, datagrams received) so far.
    pub fn datagram_stats(&self) -> (u64, u64) {
        (
            self.shared.sent.load(Ordering::Relaxed),
            self.shared.received.load(Ordering::Relaxed),
        )
    }

    fn send(&mut self, event: &EventRef) {
        let Some(header) = event_as::<Message>(event.as_ref()).copied() else {
            return;
        };
        // One payload per datagram: the datagram boundary is the frame
        // boundary, so there is no length prefix.
        self.encode_buf.clear();
        if let Err(err) =
            frame::encode_payload(&self.shared.registry, event.as_ref(), &mut self.encode_buf)
        {
            self.net.trigger(DeadLetter {
                message: header,
                reason: err.to_string(),
            });
            return;
        }
        if self.encode_buf.len() > MAX_DATAGRAM {
            self.net.trigger(DeadLetter {
                message: header,
                reason: format!(
                    "frame of {} bytes exceeds datagram limit",
                    self.encode_buf.len()
                ),
            });
            return;
        }
        match self
            .shared
            .socket
            .send_to(&self.encode_buf, header.destination.socket_addr())
        {
            Ok(_) => {
                self.shared.sent.fetch_add(1, Ordering::Relaxed);
            }
            Err(err) => {
                self.net.trigger(DeadLetter {
                    message: header,
                    reason: err.to_string(),
                });
            }
        }
    }

    fn ensure_receiver(&mut self) {
        if self.receiver.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let port: PortRef<Network> = self.net.inside_ref();
        let self_addr = self.self_addr;
        shared
            .socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("set socket timeout");
        let socket = shared.socket.try_clone().expect("clone udp socket");
        let handle = std::thread::Builder::new()
            .name(format!("udp-recv-{}", self.self_addr.port))
            .spawn(move || receive_loop(socket, shared, port, self_addr))
            .expect("spawn udp receiver");
        self.receiver = Some(handle);
    }
}

fn receive_loop(
    socket: UdpSocket,
    shared: Arc<Shared>,
    port: PortRef<Network>,
    self_addr: Address,
) {
    let mut buf = vec![0u8; 64 * 1024];
    while !shared.shutdown.load(Ordering::Acquire) {
        let n = match socket.recv_from(&mut buf) {
            Ok((n, _)) => n,
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        shared.received.fetch_add(1, Ordering::Relaxed);
        // Copy the datagram once into a refcounted buffer so `bytes::Bytes`
        // fields of the event borrow zero-copy views of it instead of
        // copying again.
        let datagram = bytes::Bytes::copy_from_slice(&buf[..n]);
        match frame::decode_payload(&shared.registry, &datagram) {
            Ok(event) => {
                let _ = port.trigger_shared(event);
            }
            Err(err) => {
                let _ = port.trigger(DeadLetter {
                    message: Message::new(Address::sim(0), self_addr),
                    reason: format!("undecodable datagram: {err}"),
                });
            }
        }
    }
}

impl ComponentDefinition for UdpNetwork {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "UdpNetwork"
    }
}

impl Drop for UdpNetwork {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.receiver.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kompics_core::channel::connect;
    use parking_lot::Mutex;
    use serde::{Deserialize, Serialize};
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Ping {
        base: Message,
        round: u32,
    }
    kompics_core::impl_event!(Ping, extends Message, via base);

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Blob {
        base: Message,
        data: Vec<u8>,
    }
    kompics_core::impl_event!(Blob, extends Message, via base);

    struct Node {
        ctx: ComponentContext,
        net: RequiredPort<Network>,
        pings: Arc<Mutex<Vec<u32>>>,
        dead: Arc<Mutex<Vec<String>>>,
        count: Arc<AtomicUsize>,
    }
    impl Node {
        fn new(
            count: Arc<AtomicUsize>,
            pings: Arc<Mutex<Vec<u32>>>,
            dead: Arc<Mutex<Vec<String>>>,
        ) -> Self {
            let net = RequiredPort::new();
            net.subscribe(|this: &mut Node, ping: &Ping| {
                this.pings.lock().push(ping.round);
                this.count.fetch_add(1, Ordering::SeqCst);
                if ping.round < 3 {
                    this.net.trigger(Ping {
                        base: ping.base.reply(),
                        round: ping.round + 1,
                    });
                }
            });
            net.subscribe(|this: &mut Node, dl: &DeadLetter| {
                this.dead.lock().push(dl.reason.clone());
                this.count.fetch_add(1, Ordering::SeqCst);
            });
            Node {
                ctx: ComponentContext::new(),
                net,
                pings,
                dead,
                count,
            }
        }
    }
    impl ComponentDefinition for Node {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "Node"
        }
    }

    fn registry() -> Arc<MessageRegistry> {
        let mut r = MessageRegistry::new();
        r.register::<Ping>(1).unwrap();
        r.register::<Blob>(2).unwrap();
        Arc::new(r)
    }

    struct Fixture {
        node: kompics_core::component::Component<Node>,
        addr: Address,
        count: Arc<AtomicUsize>,
        pings: Arc<Mutex<Vec<u32>>>,
        dead: Arc<Mutex<Vec<String>>>,
    }

    fn make(system: &KompicsSystem, id: u64) -> Fixture {
        let (addr, socket) = UdpNetwork::bind(Address::local(0, id)).unwrap();
        let reg = registry();
        let udp = system.create(move || UdpNetwork::new(addr, socket, reg));
        let count = Arc::new(AtomicUsize::new(0));
        let pings = Arc::new(Mutex::new(Vec::new()));
        let dead = Arc::new(Mutex::new(Vec::new()));
        let node = system.create({
            let (c, p, d) = (count.clone(), pings.clone(), dead.clone());
            move || Node::new(c, p, d)
        });
        connect(
            &udp.provided_ref::<Network>().unwrap(),
            &node.required_ref::<Network>().unwrap(),
        )
        .unwrap();
        system.start(&udp);
        system.start(&node);
        Fixture {
            node,
            addr,
            count,
            pings,
            dead,
        }
    }

    fn wait_for(count: &AtomicUsize, target: usize, ms: u64) -> bool {
        let deadline = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < deadline {
            if count.load(Ordering::SeqCst) >= target {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn ping_pong_over_udp() {
        let system = KompicsSystem::new(Config::default().workers(2));
        let a = make(&system, 1);
        let b = make(&system, 2);
        a.node
            .on_definition(|n| {
                let dest = b.addr;
                n.net.trigger(Ping {
                    base: Message::new(a.addr, dest),
                    round: 0,
                })
            })
            .unwrap();
        assert!(wait_for(&b.count, 2, 5_000));
        assert!(wait_for(&a.count, 2, 5_000));
        assert_eq!(*b.pings.lock(), vec![0, 2]);
        assert_eq!(*a.pings.lock(), vec![1, 3]);
        system.shutdown();
    }

    #[test]
    fn oversized_datagram_becomes_dead_letter() {
        let system = KompicsSystem::new(Config::default().workers(2));
        let a = make(&system, 1);
        let b = make(&system, 2);
        // Incompressible data exceeding the datagram limit.
        let data: Vec<u8> = (0..80_000u32).map(|i| (i.wrapping_mul(31)) as u8).collect();
        a.node
            .on_definition(|n| {
                let dest = b.addr;
                n.net.trigger(Blob {
                    base: Message::new(a.addr, dest),
                    data,
                })
            })
            .unwrap();
        assert!(wait_for(&a.count, 1, 5_000));
        assert!(a.dead.lock()[0].contains("datagram limit"));
        system.shutdown();
    }
}
