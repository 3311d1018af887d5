//! Wire-path framing properties: varint length boundaries, frame round-trips
//! across boundary payload sizes (with and without compression),
//! borrowed-vs-owned decode equivalence for `bytes::Bytes` fields, and byte
//! strings being one wire type whichever Rust type holds them.

use std::collections::{BTreeSet, HashSet, VecDeque};

use bytes::Bytes;
use kompics_codec::{
    from_bytes, from_bytes_shared, rle_compress, rle_decompress_bounded, to_bytes, varint,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct Frame {
    seq: u64,
    payload: Vec<u8>,
}

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct SharedFrame {
    seq: u64,
    payload: Bytes,
    trailer: Option<String>,
}

/// LEB128 boundary values: the first/last value of each encoded width,
/// including the `u32::MAX`-adjacent ones a 4 GiB-ish length would hit.
const VARINT_BOUNDARIES: &[(u64, usize)] = &[
    (0, 1),
    (127, 1),
    (128, 2),
    (129, 2),
    (16_383, 2),
    (16_384, 3),
    ((1 << 21) - 1, 3),
    (1 << 21, 4),
    (u32::MAX as u64 - 1, 5),
    (u32::MAX as u64, 5),
    (u32::MAX as u64 + 1, 5),
    (u64::MAX, 10),
];

#[test]
fn varint_boundaries_roundtrip_at_expected_widths() {
    for &(value, width) in VARINT_BOUNDARIES {
        let mut out = Vec::new();
        varint::write_u64(&mut out, value);
        assert_eq!(out.len(), width, "encoded width of {value}");
        let mut input = &out[..];
        assert_eq!(varint::read_u64(&mut input).unwrap(), value);
        assert!(input.is_empty(), "no trailing bytes for {value}");
    }
}

/// Payload sizes that straddle the varint length-prefix boundaries, plus a
/// random filler range.
fn boundary_size() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(126),
        Just(127),
        Just(128),
        Just(129),
        Just(16_383),
        Just(16_384),
        Just(16_385),
        0usize..2_048,
    ]
}

/// `len` bytes that take every value 0x00–0xFF (for `len >= 256`), in an
/// order that depends on `seed`.
fn spanning_bytes(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(167).wrapping_add(seed))
        .collect()
}

/// What a byte string is on the wire: varint length, then the bytes.
fn length_prefixed(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, bytes.len() as u64);
    out.extend_from_slice(bytes);
    out
}

#[test]
fn only_u8_slices_are_byte_strings() {
    // Other element types are sequences of varint elements, as before.
    assert_eq!(
        to_bytes(&vec![1u16, 0x80, 300]).unwrap(),
        [3, 1, 0x80, 0x01, 0xAC, 0x02]
    );
    // A fixed-size byte array is a tuple: no length, one varint per byte
    // (`Address.ip` and the hello frame rely on it).
    assert_eq!(to_bytes(&[0x7Fu8, 0x80]).unwrap(), [0x7F, 0x80, 0x01]);
    // A byte string nested in a sequence or an option is still a byte
    // string; the outer container is unchanged.
    assert_eq!(
        to_bytes(&vec![vec![0xFFu8, 0x00], vec![]]).unwrap(),
        [2, 2, 0xFF, 0x00, 0]
    );
    assert_eq!(to_bytes(&Some(vec![0x80u8])).unwrap(), [1, 1, 0x80]);
    // Collections that are not one slice write element by element, and
    // read the same way.
    let deque: VecDeque<u8> = [0x80, 0x01].into();
    assert_eq!(to_bytes(&deque).unwrap(), [2, 0x80, 0x01, 0x01]);
    let set: BTreeSet<u8> = [0xFF].into();
    assert_eq!(to_bytes(&set).unwrap(), [1, 0xFF, 0x01]);
}

proptest! {
    /// `Vec<u8>`, `&[u8]` and `Bytes` holding the same bytes are the same
    /// bytes on the wire, and each owned type decodes what the others wrote.
    #[test]
    fn byte_strings_are_one_wire_type(seed in any::<u8>(), size in boundary_size()) {
        let data = spanning_bytes(seed, size);
        let expected = length_prefixed(&data);
        let from_vec = to_bytes(&data).unwrap();
        let from_slice = to_bytes(data.as_slice()).unwrap();
        let from_shared = to_bytes(&Bytes::from(data.clone())).unwrap();
        prop_assert_eq!(&from_vec, &expected);
        prop_assert_eq!(&from_slice, &expected);
        prop_assert_eq!(&from_shared, &expected);

        let wire = Bytes::from(expected);
        prop_assert_eq!(&from_bytes::<Vec<u8>>(&wire).unwrap(), &data);
        prop_assert_eq!(&from_bytes_shared::<Vec<u8>>(&wire).unwrap(), &data);
        prop_assert_eq!(&from_bytes::<Bytes>(&wire).unwrap(), &data);
        prop_assert_eq!(&from_bytes_shared::<Bytes>(&wire).unwrap(), &data);
    }

    /// The byte-string rule changes `u8` slices and nothing else: every
    /// other container of bytes or of wider integers still round-trips.
    #[test]
    fn containers_around_bytes_roundtrip(
        seed in any::<u8>(),
        size in boundary_size(),
        wide in proptest::collection::vec(any::<u16>(), 0..300),
    ) {
        let data = spanning_bytes(seed, size);
        prop_assert_eq!(&from_bytes::<Vec<u16>>(&to_bytes(&wide).unwrap()).unwrap(), &wide);

        let nested = vec![data.clone(), Vec::new(), spanning_bytes(seed, 3)];
        prop_assert_eq!(&from_bytes::<Vec<Vec<u8>>>(&to_bytes(&nested).unwrap()).unwrap(), &nested);

        for option in [Some(data.clone()), None] {
            let back: Option<Vec<u8>> = from_bytes(&to_bytes(&option).unwrap()).unwrap();
            prop_assert_eq!(back, option);
        }

        let deque: VecDeque<u8> = data.iter().copied().collect();
        prop_assert_eq!(&from_bytes::<VecDeque<u8>>(&to_bytes(&deque).unwrap()).unwrap(), &deque);
        let ordered: BTreeSet<u8> = data.iter().copied().collect();
        prop_assert_eq!(&from_bytes::<BTreeSet<u8>>(&to_bytes(&ordered).unwrap()).unwrap(), &ordered);
        let hashed: HashSet<u8> = data.iter().copied().collect();
        prop_assert_eq!(&from_bytes::<HashSet<u8>>(&to_bytes(&hashed).unwrap()).unwrap(), &hashed);
    }

    /// A frame whose payload length sits on (or near) a varint width
    /// boundary must round-trip exactly.
    #[test]
    fn frames_roundtrip_across_length_boundaries(
        seq in any::<u64>(),
        size in boundary_size(),
        fill in any::<u8>(),
    ) {
        let frame = Frame { seq, payload: vec![fill; size] };
        let bytes = to_bytes(&frame).unwrap();
        let back: Frame = from_bytes(&bytes).unwrap();
        prop_assert_eq!(frame, back);
    }

    /// The compressed wire path (encode → RLE → bounded decompress →
    /// decode) must be lossless whenever the size bound admits the body.
    #[test]
    fn compressed_frames_roundtrip_under_bounded_decompress(
        seq in any::<u64>(),
        size in boundary_size(),
        fill in any::<u8>(),
    ) {
        let frame = Frame { seq, payload: vec![fill; size] };
        let body = to_bytes(&frame).unwrap();
        let compressed = rle_compress(&body);
        let restored = rle_decompress_bounded(&compressed, body.len()).unwrap();
        prop_assert_eq!(&restored, &body);
        let back: Frame = from_bytes(&restored).unwrap();
        prop_assert_eq!(frame, back);
        // One byte under the exact size must be refused, not mis-decoded.
        if !body.is_empty() {
            prop_assert!(rle_decompress_bounded(&compressed, body.len() - 1).is_err());
        }
    }

    /// Decoding through the zero-copy scope must produce a value equal to
    /// the plain owned decode — borrowing is an optimization, never a
    /// semantic change.
    #[test]
    fn borrowed_and_owned_decodes_agree(
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        trailer in proptest::option::of(".*"),
    ) {
        let frame = SharedFrame { seq, payload: Bytes::from(payload), trailer };
        let encoded = Bytes::from(to_bytes(&frame).unwrap());
        let owned: SharedFrame = from_bytes(&encoded).unwrap();
        let borrowed: SharedFrame = from_bytes_shared(&encoded).unwrap();
        prop_assert_eq!(&owned, &frame);
        prop_assert_eq!(&borrowed, &frame);
        // Non-empty payloads decoded in-scope must actually borrow: the
        // view's bytes live inside the source buffer's allocation.
        if !borrowed.payload.is_empty() {
            let src = encoded.as_slice().as_ptr() as usize;
            let end = src + encoded.len();
            let view = borrowed.payload.as_slice().as_ptr() as usize;
            prop_assert!(view >= src && view + borrowed.payload.len() <= end,
                "payload view does not point into the source buffer");
        }
    }
}
