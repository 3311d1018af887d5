//! The wire frame format — the one module that knows it.
//!
//! ```text
//! payload    := [u8 flags][varint tag][body]     one UDP datagram
//! frame      := [u32 le len(payload)][payload]   one unit of a TCP stream
//! hello      := [u32 le 7][FLAG_HELLO][ip;4][port u16 le]
//! ```
//!
//! `body` is the `kompics-codec` encoding of the event (a byte-string
//! field — `Vec<u8>`, `[u8]`, `Bytes` alike — is its varint length and then
//! the bytes themselves), RLE-compressed (`FLAG_COMPRESSED`) when it is
//! longer than [`COMPRESS_ABOVE`] and the compressed form is strictly
//! shorter. That is decided from the exact compressed length, computed
//! without compressing (`kompics_codec::rle_compressed_len`), so a body
//! that does not shrink costs one scan and goes out verbatim. Both real
//! transports encode and decode through here, so the bytes on the wire are
//! one decision. Encoding appends into a caller-owned buffer (pooled by
//! TCP, reused by UDP); decoding takes a refcounted [`Bytes`] so `Bytes`
//! fields of the event borrow it.

use bytes::Bytes;
use kompics_core::event::{Event, EventRef};

use crate::address::Address;
use crate::error::NetworkError;
use crate::registry::MessageRegistry;

const FLAG_COMPRESSED: u8 = 0b0000_0001;
/// Marks a connection-handshake frame carrying the dialer's canonical
/// listen address. Hello frames are transport-internal: they do not count
/// in message/byte stats and are never delivered to components.
const FLAG_HELLO: u8 = 0b0000_0010;

/// Size of the TCP length prefix.
pub(crate) const LEN_PREFIX: usize = 4;

/// Bodies longer than this many bytes are RLE-compressed when that makes
/// them shorter (the Zlib substitute). CATS values of 1 KiB and 16 KiB sit
/// above it, protocol chatter below.
pub(crate) const COMPRESS_ABOVE: usize = 512;

/// Largest frame payload, and largest decompressed body, a receiver
/// accepts. A length prefix above this drops the connection instead of
/// attempting a multi-GiB allocation on a corrupt or hostile prefix; an RLE
/// body (which can expand ~64×) is bounded before it is allocated.
pub(crate) const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Appends `event` to `buf` as one payload, encoding it once in place.
pub(crate) fn encode_payload(
    registry: &MessageRegistry,
    event: &dyn Event,
    buf: &mut Vec<u8>,
) -> Result<(), NetworkError> {
    let flags_at = buf.len();
    buf.push(0);
    let (_tag, body_start) = registry.encode_into(event, buf)?;
    let body = &buf[body_start..];
    if body.len() > COMPRESS_ABOVE && kompics_codec::rle_compressed_len(body) < body.len() {
        let compressed = kompics_codec::rle_compress(body);
        buf[flags_at] |= FLAG_COMPRESSED;
        buf.truncate(body_start);
        // komlint: allow(wire-path-copy) reason="compression rewrites the body in place: the smaller compressed form replaces the original, it is not a frame copy"
        buf.extend_from_slice(&compressed);
    }
    Ok(())
}

/// Appends `event` to `buf` as one length-prefixed TCP frame, the prefix
/// written in place once the payload length is known.
pub(crate) fn encode_frame(
    registry: &MessageRegistry,
    event: &dyn Event,
    buf: &mut Vec<u8>,
) -> Result<(), NetworkError> {
    let start = buf.len();
    buf.resize(start + LEN_PREFIX, 0);
    encode_payload(registry, event, buf)?;
    let len = (buf.len() - start - LEN_PREFIX) as u32;
    buf[start..start + LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Decodes a data payload into an event, borrowing `Bytes` fields from
/// `payload` (or from the decompression buffer when the body was
/// compressed).
pub(crate) fn decode_payload(
    registry: &MessageRegistry,
    payload: &Bytes,
) -> Result<EventRef, NetworkError> {
    let Some((&flags, mut rest)) = payload.split_first() else {
        return Err(NetworkError::BadFrame("empty payload"));
    };
    let tag = kompics_codec::varint::read_u64(&mut rest)?;
    let body = payload.slice(payload.len() - rest.len()..);
    if flags & FLAG_COMPRESSED != 0 {
        let decompressed = kompics_codec::rle_decompress_bounded(&body, MAX_FRAME)?;
        registry.decode_shared(tag, &Bytes::from(decompressed))
    } else {
        registry.decode_shared(tag, &body)
    }
}

/// The complete hello frame announcing `addr` as this node's canonical
/// listen endpoint.
pub(crate) fn hello_frame(addr: Address) -> [u8; 11] {
    let [l0, l1, l2, l3] = 7u32.to_le_bytes();
    let [i0, i1, i2, i3] = addr.ip;
    let [p0, p1] = addr.port.to_le_bytes();
    [l0, l1, l2, l3, FLAG_HELLO, i0, i1, i2, i3, p0, p1]
}

/// Whether `payload` is a hello (well-formed or not) rather than data.
pub(crate) fn is_hello(payload: &[u8]) -> bool {
    payload.first().is_some_and(|flags| flags & FLAG_HELLO != 0)
}

/// The address a hello payload announces; `None` if it is malformed.
pub(crate) fn parse_hello(payload: &[u8]) -> Option<Address> {
    let &[_flags, i0, i1, i2, i3, p0, p1] = payload else {
        return None;
    };
    Some(Address {
        ip: [i0, i1, i2, i3],
        port: u16::from_le_bytes([p0, p1]),
        id: 0,
    })
}

/// How many leading bytes of a TCP receive buffer are *complete* frames.
/// Each length prefix is bounded before anything is allocated for it:
/// `Err(len)` reports the first prefix above [`MAX_FRAME`].
pub(crate) fn complete_frames(acc: &[u8]) -> Result<usize, usize> {
    let mut consumed = 0;
    while let Some(prefix) = acc[consumed..].first_chunk::<LEN_PREFIX>() {
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(len);
        }
        if acc.len() - consumed - LEN_PREFIX < len {
            break;
        }
        consumed += LEN_PREFIX + len;
    }
    Ok(consumed)
}

/// Splits a run of complete frames (as measured by [`complete_frames`])
/// into zero-copy views of their payloads.
pub(crate) fn payloads(frames: &Bytes) -> impl Iterator<Item = Bytes> + '_ {
    let mut offset = 0;
    std::iter::from_fn(move || {
        let prefix = frames[offset..].first_chunk::<LEN_PREFIX>()?;
        let start = offset + LEN_PREFIX;
        offset = start + u32::from_le_bytes(*prefix) as usize;
        Some(frames.slice(start..offset))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_frame_roundtrips() {
        let addr = Address::local(45678, 0);
        let frame = hello_frame(addr);
        assert_eq!(complete_frames(&frame), Ok(frame.len()));
        let payload = &frame[LEN_PREFIX..];
        assert!(is_hello(payload));
        let peer = parse_hello(payload).unwrap();
        assert!(peer.same_endpoint(&addr));
        assert_eq!(parse_hello(&payload[..4]), None, "truncated hello rejected");
    }
}
