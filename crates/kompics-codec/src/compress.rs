//! Byte-oriented run-length compression.
//!
//! Substitutes for the Zlib pass the paper's deployments apply to network
//! payloads (see DESIGN.md §4): cheap, allocation-light, and effective on
//! the highly repetitive values used by the benchmarks (e.g. 1 KiB constant
//! payloads), while exercising the same compress-before-send /
//! decompress-after-receive code path.
//!
//! Format: a sequence of chunks. A chunk starts with a control byte `c`:
//! `c < 0x80` ⇒ copy the next `c + 1` literal bytes; `c >= 0x80` ⇒ repeat
//! the next byte `c - 0x80 + 2` times (runs of 2–129).

use crate::error::CodecError;

const MAX_LITERAL: usize = 128;
const MAX_RUN: usize = 129;

/// Compresses `input`. The output of an empty input is empty.
pub fn rle_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 8);
    chunks(input, &mut out);
    out
}

/// The exact length [`rle_compress`] would produce for `input`, found
/// without producing it: callers that only compress when it pays decide
/// with this and pay for the output only when they keep it.
pub fn rle_compressed_len(input: &[u8]) -> usize {
    let mut len = 0usize;
    chunks(input, &mut len);
    len
}

/// Receives the chunk sequence [`chunks`] cuts an input into.
trait Sink {
    /// A stretch with no two adjacent equal bytes (any length, maybe empty).
    fn literals(&mut self, literals: &[u8]);
    /// `n` (2..=[`MAX_RUN`]) copies of `byte`.
    fn run(&mut self, byte: u8, n: usize);
}

impl Sink for Vec<u8> {
    fn literals(&mut self, literals: &[u8]) {
        for chunk in literals.chunks(MAX_LITERAL) {
            self.push((chunk.len() - 1) as u8);
            self.extend_from_slice(chunk);
        }
    }
    fn run(&mut self, byte: u8, n: usize) {
        self.push(0x80 + (n - 2) as u8);
        self.push(byte);
    }
}

/// Counts the bytes the `Vec<u8>` sink would write.
impl Sink for usize {
    fn literals(&mut self, literals: &[u8]) {
        *self += literals.len() + literals.len().div_ceil(MAX_LITERAL);
    }
    fn run(&mut self, _byte: u8, _n: usize) {
        *self += 2;
    }
}

/// Cuts `input` into the format's chunks, greedily from the left: every
/// maximal run of equal bytes becomes run chunks of up to [`MAX_RUN`] (a
/// single left-over byte joins the literals that follow it), everything
/// between runs is literals.
fn chunks(input: &[u8], sink: &mut impl Sink) {
    let mut literal_start = 0;
    let mut at = 0;
    while let Some(pair) = next_equal_pair(input, at) {
        let byte = input[pair];
        let end = run_end(input, pair + 2, byte);
        sink.literals(&input[literal_start..pair]);
        let mut left = end - pair;
        while left >= 2 {
            let n = left.min(MAX_RUN);
            sink.run(byte, n);
            left -= n;
        }
        literal_start = end - left;
        at = end;
    }
    sink.literals(&input[literal_start..]);
}

const LANES: usize = std::mem::size_of::<u64>();
const LOW_BITS: u64 = u64::from_ne_bytes([0x01; LANES]);
const HIGH_BITS: u64 = u64::from_ne_bytes([0x80; LANES]);

/// The eight bytes at `at`, first byte in the lowest lane.
fn word(input: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(input[at..at + LANES].try_into().expect("eight bytes"))
}

/// Index of the lowest zero lane of `x`, if any. (The classic zero-byte
/// test; borrows can only set false bits above a true one, so the lowest
/// set bit is exact.)
fn first_zero_lane(x: u64) -> Option<usize> {
    let zeros = x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS;
    (zeros != 0).then(|| zeros.trailing_zeros() as usize / 8)
}

/// The smallest `i >= from` with `input[i] == input[i + 1]`. Compares eight
/// adjacent pairs per step: a word against the word one byte further on.
fn next_equal_pair(input: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + LANES < input.len() {
        if let Some(lane) = first_zero_lane(word(input, i) ^ word(input, i + 1)) {
            return Some(i + lane);
        }
        i += LANES;
    }
    while i + 1 < input.len() {
        if input[i] == input[i + 1] {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// The smallest `i >= from` with `input[i] != byte` (`input.len()` if none).
fn run_end(input: &[u8], from: usize, byte: u8) -> usize {
    let same = u64::from_ne_bytes([byte; LANES]);
    let mut i = from;
    while i + LANES <= input.len() {
        let diff = word(input, i) ^ same;
        if diff != 0 {
            return i + diff.trailing_zeros() as usize / 8;
        }
        i += LANES;
    }
    while i < input.len() && input[i] == byte {
        i += 1;
    }
    i
}

/// Decompresses data produced by [`rle_compress`].
///
/// # Errors
///
/// Returns [`CodecError::CorruptCompression`] on truncated chunks.
pub fn rle_decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    rle_decompress_bounded(input, usize::MAX)
}

/// Decompresses data produced by [`rle_compress`], refusing to produce more
/// than `max_len` output bytes. Receive paths use this to bound allocation:
/// a small hostile input can otherwise expand by ~64× per run chunk (an
/// "RLE bomb").
///
/// # Errors
///
/// Returns [`CodecError::CorruptCompression`] on truncated chunks and
/// [`CodecError::LimitExceeded`] as soon as the output would pass `max_len`
/// (before allocating past the limit).
pub fn rle_decompress_bounded(input: &[u8], max_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(input.len().saturating_mul(2).min(max_len));
    let mut i = 0;
    while i < input.len() {
        let control = input[i];
        i += 1;
        let n = if control < 0x80 {
            control as usize + 1
        } else {
            (control - 0x80) as usize + 2
        };
        if out.len() + n > max_len {
            return Err(CodecError::LimitExceeded {
                len: out.len() + n,
                max: max_len,
            });
        }
        if control < 0x80 {
            let literals = input.get(i..i + n).ok_or(CodecError::CorruptCompression)?;
            out.extend_from_slice(literals);
            i += n;
        } else {
            let &byte = input.get(i).ok_or(CodecError::CorruptCompression)?;
            i += 1;
            out.resize(out.len() + n, byte);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time compressor this module shipped before the
    /// word-at-a-time scan, kept verbatim as the oracle: the format's
    /// greedy chunking is whatever this produces.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        fn flush_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
            while !literals.is_empty() {
                let n = literals.len().min(MAX_LITERAL);
                out.push((n - 1) as u8);
                out.extend_from_slice(&literals[..n]);
                literals = &literals[n..];
            }
        }
        let mut out = Vec::with_capacity(input.len() / 4 + 8);
        let mut literal_start = 0;
        let mut i = 0;
        while i < input.len() {
            // Measure the run starting at i.
            let byte = input[i];
            let mut run = 1;
            while i + run < input.len() && input[i + run] == byte && run < MAX_RUN {
                run += 1;
            }
            if run >= 2 {
                flush_literals(&mut out, &input[literal_start..i]);
                out.push(0x80 + (run - 2) as u8);
                out.push(byte);
                i += run;
                literal_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, &input[literal_start..]);
        out
    }

    /// Output, predicted length and round trip all agree with the oracle.
    fn check(data: &[u8]) {
        let compressed = rle_compress(data);
        assert_eq!(compressed, reference_compress(data), "input {data:?}");
        assert_eq!(rle_compressed_len(data), compressed.len(), "input {data:?}");
        assert_eq!(rle_decompress(&compressed).unwrap(), data);
    }

    /// `len` bytes with no two adjacent ones equal.
    fn literals(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn run_and_literal_boundaries_match_the_reference() {
        // Runs around the 129 cap: one chunk, chunk + a left-over literal,
        // chunk + a two-byte run, two full chunks.
        for run in [2, 3, 128, 129, 130, 131, 257, 258, 259, 260] {
            check(&vec![9u8; run]);
            // ... and the same between literals, where the left-over byte
            // joins the stretch that follows.
            let mut data = literals(5);
            data.extend(std::iter::repeat_n(0xEE, run));
            data.extend(literals(5));
            check(&data);
        }
        // Literal stretches around the 128 cap, alone and before a run.
        for len in [0, 1, 2, 127, 128, 129, 255, 256, 257] {
            check(&literals(len));
            let mut data = literals(len);
            data.extend_from_slice(&[0x11, 0x11]);
            check(&data);
        }
        // Period two: never a pair. All equal: nothing but pairs.
        check(&[1u8, 2].repeat(700));
        check(&[0u8; 4096]);
    }

    #[test]
    fn short_inputs_and_pairs_at_every_offset_match_the_reference() {
        // Shorter than the nine bytes one scan step compares.
        for len in 0..=9usize {
            check(&literals(len));
            check(&vec![5u8; len]);
        }
        // One pair at every offset of a buffer a few words long, which
        // includes straddling each eight-byte boundary (7|8, 15|16, ...)
        // and sitting in the byte-wise tail.
        for len in [9usize, 16, 17, 24, 31, 40] {
            for at in 0..len - 1 {
                let mut data = literals(len);
                data[at + 1] = data[at];
                // Keep it one pair: the byte after must differ.
                if at + 2 < len && data[at + 2] == data[at] {
                    data[at + 2] ^= 0x80;
                }
                check(&data);
            }
        }
    }

    proptest! {
        #[test]
        fn matches_the_reference_on_random_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            check(&bytes);
        }

        /// Few distinct values: runs of every length, back to back.
        #[test]
        fn matches_the_reference_on_run_heavy_bytes(
            bytes in proptest::collection::vec(0u8..3, 0..2048),
        ) {
            check(&bytes);
        }

        #[test]
        fn matches_the_reference_on_long_runs_between_literals(
            pieces in proptest::collection::vec((any::<u8>(), 1usize..400, 0usize..300), 0..6),
        ) {
            let mut data = Vec::new();
            for (byte, run, lits) in pieces {
                data.extend(std::iter::repeat_n(byte, run));
                data.extend(literals(lits));
            }
            check(&data);
        }
    }

    fn roundtrip(data: &[u8]) {
        let compressed = rle_compress(data);
        let back = rle_decompress(&compressed).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_input() {
        assert!(rle_compress(&[]).is_empty());
        assert_eq!(rle_decompress(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn constant_payload_compresses_well() {
        let data = vec![0xAB; 1024];
        let compressed = rle_compress(&data);
        assert!(
            compressed.len() < 20,
            "1 KiB of one byte → {} bytes",
            compressed.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        roundtrip(&data);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut data = Vec::new();
        data.extend_from_slice(b"header");
        data.extend(std::iter::repeat_n(0u8, 300));
        data.extend_from_slice(b"trailer");
        data.extend(std::iter::repeat_n(7u8, 2));
        roundtrip(&data);
    }

    #[test]
    fn long_literal_spans_chunks() {
        let data: Vec<u8> = (0..200u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn bounded_decompress_rejects_rle_bomb() {
        // 1 KiB of runs expands to ~64 KiB; a 256-byte bound must refuse it
        // without allocating the full output.
        let bomb: Vec<u8> = std::iter::repeat_n([0xFFu8, 0xAA], 512).flatten().collect();
        let full = rle_decompress(&bomb).unwrap();
        assert_eq!(full.len(), 512 * 129);
        match rle_decompress_bounded(&bomb, 256) {
            Err(CodecError::LimitExceeded { max: 256, .. }) => {}
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
        // Exactly at the limit is fine.
        let data = vec![3u8; 200];
        let compressed = rle_compress(&data);
        assert_eq!(rle_decompress_bounded(&compressed, 200).unwrap(), data);
        assert!(rle_decompress_bounded(&compressed, 199).is_err());
    }

    #[test]
    fn truncated_run_is_corrupt() {
        // Control byte promising a run, but no value byte follows.
        assert_eq!(rle_decompress(&[0x85]), Err(CodecError::CorruptCompression));
        // Control byte promising 4 literals, only 2 present.
        assert_eq!(
            rle_decompress(&[3, 1, 2]),
            Err(CodecError::CorruptCompression)
        );
    }
}
