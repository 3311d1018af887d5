//! # kompics-codec
//!
//! A compact, non-self-describing binary wire format over the serde data
//! model, plus a simple run-length payload compressor.
//!
//! The paper's deployments serialize messages with Kryo and compress with
//! Zlib; neither is available here, so this crate provides the substitution
//! (see DESIGN.md §4): the same architectural code paths — encode before the
//! socket, decode after — with an equivalent compact format.
//!
//! Encoding rules:
//!
//! * unsigned integers: LEB128 varint;
//! * signed integers: zigzag + varint;
//! * floats: little-endian IEEE-754;
//! * strings and byte strings (`Vec<u8>`, `[u8]`, `bytes::Bytes` — one wire
//!   type): varint length prefix + raw bytes;
//! * options: presence byte;
//! * other sequences/maps: varint length prefix + elements;
//! * enums: varint variant index + payload.
//!
//! Being non-self-describing, decoding requires the same type the value was
//! encoded from (like bincode); `deserialize_any` is unsupported.
//!
//! ```rust
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Put { key: u64, value: Vec<u8>, replicas: Option<u8> }
//!
//! # fn main() -> Result<(), kompics_codec::CodecError> {
//! let put = Put { key: 42, value: b"v".to_vec(), replicas: Some(3) };
//! let bytes = kompics_codec::to_bytes(&put)?;
//! let back: Put = kompics_codec::from_bytes(&bytes)?;
//! assert_eq!(put, back);
//! # Ok(())
//! # }
//! ```

pub mod compress;
pub mod de;
pub mod error;
pub mod ser;
pub mod varint;

pub use compress::{rle_compress, rle_compressed_len, rle_decompress, rle_decompress_bounded};
pub use de::{from_bytes, from_bytes_shared, Deserializer};
pub use error::CodecError;
pub use ser::{to_bytes, to_writer, Serializer};
