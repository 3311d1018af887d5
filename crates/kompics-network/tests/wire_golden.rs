//! Golden-bytes tests for the wire format, through the public API only: a
//! transport on one end, a raw `std::net` socket on the other.
//!
//! ```text
//! payload := [u8 flags][varint tag][body]      one UDP datagram
//! frame   := [u32 le len(payload)][payload]    one unit of a TCP stream
//! hello   := [u32 le 7][0x02][ip;4][port u16 le]
//! ```
//!
//! The expected bytes are spelled out from that layout and the codec's
//! documented rules (varint integers, structs as their fields in order, a
//! byte string as its varint length and then its bytes, whatever their
//! values), so a change to what goes on the wire fails here whichever
//! module made it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kompics_core::component::Component;
use kompics_core::event::{event_as, EventRef};
use kompics_core::port::PortRef;
use kompics_core::prelude::*;
use kompics_network::{
    Address, DeadLetter, Message, MessageRegistry, Network, TcpConfig, TcpNetwork, UdpNetwork,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

const FLAG_COMPRESSED: u8 = 0x01;
const FLAG_HELLO: u8 = 0x02;
const PING_TAG: u8 = 1;
const BLOB_TAG: u8 = 2;
/// Ten maximal RLE runs (129 bytes each) of one value.
const BLOB_LEN: usize = 1290;

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Ping {
    base: Message,
    round: u32,
}
impl_event!(Ping, extends Message, via base);

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Blob {
    base: Message,
    data: Vec<u8>,
}
impl_event!(Blob, extends Message, via base);

fn registry() -> Arc<MessageRegistry> {
    let mut r = MessageRegistry::new();
    r.register::<Ping>(PING_TAG.into()).unwrap();
    r.register::<Blob>(BLOB_TAG.into()).unwrap();
    Arc::new(r)
}

fn ping(source: Address, destination: Address) -> Ping {
    Ping {
        base: Message::new(source, destination),
        round: 300,
    }
}

fn blob(source: Address, destination: Address) -> Blob {
    Blob {
        base: Message::new(source, destination),
        data: vec![0x42; BLOB_LEN],
    }
}

/// Every byte value once, both sides of 0x80; short enough to stay below
/// the compression threshold.
fn high_blob(source: Address, destination: Address) -> Blob {
    Blob {
        base: Message::new(source, destination),
        data: (0..=255).collect(),
    }
}

/// Above the compression threshold, and no two adjacent bytes equal, so RLE
/// has nothing to shrink.
fn noise_blob(source: Address, destination: Address) -> Blob {
    Blob {
        base: Message::new(source, destination),
        data: (0..1000u32).map(|i| (i * 89 % 251) as u8).collect(),
    }
}

fn varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `Message { source, destination }`, each `Address { ip, port, id }`.
fn header_bytes(m: &Message, out: &mut Vec<u8>) {
    for a in [m.source, m.destination] {
        for octet in a.ip {
            varint(octet.into(), out);
        }
        varint(a.port.into(), out);
        varint(a.id, out);
    }
}

/// Small body, below the compression threshold: sent as is.
fn ping_payload(p: &Ping) -> Vec<u8> {
    let mut out = vec![0x00, PING_TAG];
    header_bytes(&p.base, &mut out);
    varint(p.round.into(), &mut out); // 300 = [0xAC, 0x02]
    assert!(out.ends_with(&[0xAC, 0x02]));
    out
}

/// Body above 512 B that RLE shrinks: flags bit 0 set, body replaced by its
/// compressed form.
fn blob_payload(b: &Blob) -> Vec<u8> {
    let mut body = Vec::new();
    header_bytes(&b.base, &mut body);
    varint(BLOB_LEN as u64, &mut body);
    body.extend_from_slice(&b.data);
    assert!(body.len() > 512);
    let compressed = kompics_codec::rle_compress(&body);
    assert!(compressed.len() < body.len());
    // The data field is exactly ten maximal runs.
    assert!(compressed.ends_with(&[0xFF, 0x42].repeat(10)));
    let mut out = vec![FLAG_COMPRESSED, BLOB_TAG];
    out.extend_from_slice(&compressed);
    out
}

/// A blob that goes out as encoded: flags bit 0 clear, the data field its
/// varint length and then the bytes themselves, one wire byte each.
fn raw_blob_payload(b: &Blob) -> Vec<u8> {
    let mut out = vec![0x00, BLOB_TAG];
    header_bytes(&b.base, &mut out);
    varint(b.data.len() as u64, &mut out);
    out.extend_from_slice(&b.data);
    let body = &out[2..];
    assert!(
        body.len() <= 512 || kompics_codec::rle_compress(body).len() >= body.len(),
        "only a body RLE cannot shrink is sent verbatim"
    );
    out
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

fn hello(addr: Address) -> Vec<u8> {
    let mut out = vec![7, 0, 0, 0, FLAG_HELLO];
    out.extend_from_slice(&addr.ip);
    out.extend_from_slice(&addr.port.to_le_bytes());
    assert_eq!(out.len(), 11);
    out
}

/// Everything a transport emitted on its `Network` port, in order.
type Seen = Arc<Mutex<Vec<EventRef>>>;

/// Starts `component` and taps its `Network` port.
fn started<C: ComponentDefinition>(
    system: &KompicsSystem,
    component: &Component<C>,
) -> (PortRef<Network>, Seen) {
    let net = component.provided_ref::<Network>().unwrap();
    let seen: Seen = Arc::default();
    net.tap({
        let seen = Arc::clone(&seen);
        move |_, event| seen.lock().push(Arc::clone(event))
    });
    system.start(component);
    (net, seen)
}

type Node<C> = (Component<C>, Address, PortRef<Network>, Seen);

fn tcp_node(system: &KompicsSystem, id: u64) -> Node<TcpNetwork> {
    let (addr, listener) = TcpNetwork::bind(Address::local(0, id)).unwrap();
    let reg = registry();
    let tcp = system.create(move || TcpNetwork::new(addr, listener, reg, TcpConfig::default()));
    let (net, seen) = started(system, &tcp);
    (tcp, addr, net, seen)
}

fn udp_node(system: &KompicsSystem, id: u64) -> Node<UdpNetwork> {
    let (addr, socket) = UdpNetwork::bind(Address::local(0, id)).unwrap();
    let reg = registry();
    let udp = system.create(move || UdpNetwork::new(addr, socket, reg));
    let (net, seen) = started(system, &udp);
    (udp, addr, net, seen)
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn delivered<E: kompics_core::event::Event + Clone>(seen: &Seen) -> Vec<E> {
    seen.lock()
        .iter()
        .filter_map(|e| event_as::<E>(e.as_ref()).cloned())
        .collect()
}

#[test]
fn tcp_sends_hello_then_golden_frames() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let (_tcp, addr, net, _seen) = tcp_node(&system, 1);
    let raw = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = Address::local(raw.local_addr().unwrap().port(), 9);

    let (p, b) = (ping(addr, peer), blob(addr, peer));
    net.trigger(p.clone()).unwrap();
    net.trigger(b.clone()).unwrap();

    let mut expected = hello(addr);
    expected.extend_from_slice(&framed(&ping_payload(&p)));
    expected.extend_from_slice(&framed(&blob_payload(&b)));

    let (mut stream, _) = raw.accept().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut got = vec![0u8; expected.len()];
    stream.read_exact(&mut got).unwrap();
    assert_eq!(got, expected);
    system.shutdown();
}

#[test]
fn udp_sends_golden_datagrams() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let (_udp, addr, net, _seen) = udp_node(&system, 1);
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let peer = Address::local(raw.local_addr().unwrap().port(), 9);

    let (p, b) = (ping(addr, peer), blob(addr, peer));
    net.trigger(p.clone()).unwrap();
    net.trigger(b.clone()).unwrap();

    // No length prefix and no hello: the datagram is the payload.
    let mut buf = [0u8; 2048];
    let (n, _) = raw.recv_from(&mut buf).unwrap();
    assert_eq!(&buf[..n], ping_payload(&p));
    let (n, _) = raw.recv_from(&mut buf).unwrap();
    assert_eq!(&buf[..n], blob_payload(&b));
    system.shutdown();
}

#[test]
fn byte_strings_go_out_raw_and_incompressible_bodies_verbatim() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let (_tcp, tcp_addr, tcp_net, _seen) = tcp_node(&system, 1);
    let (_udp, udp_addr, udp_net, _seen) = udp_node(&system, 2);
    let raw_tcp = TcpListener::bind("127.0.0.1:0").unwrap();
    let tcp_peer = Address::local(raw_tcp.local_addr().unwrap().port(), 9);
    let raw_udp = UdpSocket::bind("127.0.0.1:0").unwrap();
    raw_udp
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let udp_peer = Address::local(raw_udp.local_addr().unwrap().port(), 9);

    let (high, noise) = (
        high_blob(tcp_addr, tcp_peer),
        noise_blob(tcp_addr, tcp_peer),
    );
    assert!(
        raw_blob_payload(&noise).len() > 512 + 2,
        "above the threshold"
    );
    tcp_net.trigger(high.clone()).unwrap();
    tcp_net.trigger(noise.clone()).unwrap();
    let mut expected = hello(tcp_addr);
    expected.extend_from_slice(&framed(&raw_blob_payload(&high)));
    expected.extend_from_slice(&framed(&raw_blob_payload(&noise)));
    let (mut stream, _) = raw_tcp.accept().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut got = vec![0u8; expected.len()];
    stream.read_exact(&mut got).unwrap();
    assert_eq!(got, expected);

    let (high, noise) = (
        high_blob(udp_addr, udp_peer),
        noise_blob(udp_addr, udp_peer),
    );
    udp_net.trigger(high.clone()).unwrap();
    udp_net.trigger(noise.clone()).unwrap();
    let mut buf = [0u8; 2048];
    let (n, _) = raw_udp.recv_from(&mut buf).unwrap();
    assert_eq!(&buf[..n], raw_blob_payload(&high));
    let (n, _) = raw_udp.recv_from(&mut buf).unwrap();
    assert_eq!(&buf[..n], raw_blob_payload(&noise));
    system.shutdown();
}

#[test]
fn raw_byte_strings_and_verbatim_bodies_are_delivered() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let (_tcp, tcp_addr, _net, tcp_seen) = tcp_node(&system, 1);
    let (_udp, udp_addr, _net, udp_seen) = udp_node(&system, 2);
    let peer = Address::local(1, 9);

    let sent_tcp = vec![high_blob(peer, tcp_addr), noise_blob(peer, tcp_addr)];
    let mut stream = TcpStream::connect(tcp_addr.socket_addr()).unwrap();
    for b in &sent_tcp {
        stream.write_all(&framed(&raw_blob_payload(b))).unwrap();
    }
    let sent_udp = vec![high_blob(peer, udp_addr), noise_blob(peer, udp_addr)];
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    for b in &sent_udp {
        raw.send_to(&raw_blob_payload(b), udp_addr.socket_addr())
            .unwrap();
    }

    wait_until("the TCP frames", || tcp_seen.lock().len() >= 2);
    wait_until("the UDP datagrams", || udp_seen.lock().len() >= 2);
    assert_eq!(delivered::<Blob>(&tcp_seen), sent_tcp);
    assert_eq!(delivered::<Blob>(&udp_seen), sent_udp);
    assert!(delivered::<DeadLetter>(&tcp_seen).is_empty());
    system.shutdown();
}

#[test]
fn tcp_delivers_golden_frames() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let (_tcp, addr, _net, seen) = tcp_node(&system, 1);
    let raw = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = Address::local(raw.local_addr().unwrap().port(), 9);
    let (p, b) = (ping(peer, addr), blob(peer, addr));

    let mut stream = TcpStream::connect(addr.socket_addr()).unwrap();
    stream.write_all(&hello(peer)).unwrap();
    stream.write_all(&framed(&ping_payload(&p))).unwrap();
    stream.write_all(&framed(&blob_payload(&b))).unwrap();

    wait_until("both frames", || seen.lock().len() >= 2);
    assert_eq!(delivered::<Ping>(&seen), vec![p]);
    assert_eq!(delivered::<Blob>(&seen), vec![b]);
    assert!(delivered::<DeadLetter>(&seen).is_empty());
    system.shutdown();
}

#[test]
fn udp_delivers_golden_datagrams() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let (_udp, addr, _net, seen) = udp_node(&system, 1);
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let peer = Address::local(raw.local_addr().unwrap().port(), 9);
    let (p, b) = (ping(peer, addr), blob(peer, addr));

    raw.send_to(&ping_payload(&p), addr.socket_addr()).unwrap();
    raw.send_to(&blob_payload(&b), addr.socket_addr()).unwrap();

    wait_until("both datagrams", || seen.lock().len() >= 2);
    assert_eq!(delivered::<Ping>(&seen), vec![p]);
    assert_eq!(delivered::<Blob>(&seen), vec![b]);
    system.shutdown();
}

#[test]
fn oversized_length_prefix_dead_letters_and_closes_only_that_connection() {
    let system = KompicsSystem::new(Config::default().workers(2));
    let (_tcp, addr, _net, seen) = tcp_node(&system, 1);

    let mut hostile = TcpStream::connect(addr.socket_addr()).unwrap();
    hostile
        .write_all(&(16 * 1024 * 1024 + 1u32).to_le_bytes())
        .unwrap();
    wait_until("the dead letter", || !seen.lock().is_empty());
    let dead = delivered::<DeadLetter>(&seen);
    assert_eq!(dead.len(), 1);
    assert!(dead[0].reason.contains("exceeds max_frame"), "{dead:?}");
    // The transport hung up instead of waiting for 16 MiB.
    hostile
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match hostile.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("connection should be closed, read gave {other:?}"),
    }

    let p = ping(Address::local(1, 9), addr);
    let mut second = TcpStream::connect(addr.socket_addr()).unwrap();
    second.write_all(&framed(&ping_payload(&p))).unwrap();
    wait_until("the ping", || seen.lock().len() >= 2);
    assert_eq!(delivered::<Ping>(&seen), vec![p]);
    assert_eq!(delivered::<DeadLetter>(&seen).len(), 1);
    system.shutdown();
}
