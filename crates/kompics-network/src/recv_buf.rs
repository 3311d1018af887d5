//! The TCP reader's receive buffer: one allocation that socket reads fill,
//! frames are cut from as zero-copy [`Bytes`] views, and that is read into
//! again once those views are gone.
//!
//! The buffer is zeroed once, when it is allocated, and stays initialised:
//! `filled` marks how much of it holds unconsumed stream bytes. To deliver,
//! the whole allocation moves behind a refcounted `Bytes` so payloads (and
//! `Bytes` fields decoded from them) are views of it. After delivery
//! [`Bytes::try_reclaim`] takes it back if nothing kept a view; only when a
//! handler-visible event still borrows it does the reader start a fresh
//! one, and the old allocation lives exactly as long as its last view. See
//! DESIGN.md §16.3.

use bytes::Bytes;

use crate::frame;

/// How many bytes a reader asks the socket for per `read` call.
pub(crate) const READ_CHUNK: usize = 64 * 1024;
/// Size of a buffer that is not in the middle of a frame larger than itself.
const IDLE_LEN: usize = 2 * READ_CHUNK;

pub(crate) struct RecvBuf {
    /// Initialised over its whole length.
    buf: Vec<u8>,
    /// `buf[..filled]` is received and not yet delivered.
    filled: usize,
}

impl RecvBuf {
    pub(crate) fn new() -> Self {
        RecvBuf {
            buf: vec![0; IDLE_LEN],
            filled: 0,
        }
    }

    /// Room for the next socket read: [`READ_CHUNK`] bytes. Only a frame
    /// larger than the buffer makes this grow it.
    ///
    /// Not the whole rest of the buffer: offering the socket up to 128 KiB
    /// per read (bigger delivery bursts, more of every reader's buffer
    /// touched) measured as ~2 MiB more peak RSS on `tcp_large` and no more
    /// throughput (DESIGN.md §16.5).
    pub(crate) fn spare(&mut self) -> &mut [u8] {
        let end = self.filled + READ_CHUNK;
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        &mut self.buf[self.filled..end]
    }

    /// Records that a read put `n` bytes into [`spare`](RecvBuf::spare).
    pub(crate) fn advance(&mut self, n: usize) {
        self.filled += n;
        debug_assert!(self.filled <= self.buf.len());
    }

    /// Hands the payload of every complete frame received so far to
    /// `deliver`, in order, as views of this buffer; a partial trailing
    /// frame stays for the next read to complete.
    ///
    /// # Errors
    ///
    /// `Err(len)` for a length prefix above [`frame::MAX_FRAME`], checked
    /// before the buffer grows for it.
    pub(crate) fn deliver_frames(&mut self, mut deliver: impl FnMut(Bytes)) -> Result<(), usize> {
        let consumed = frame::complete_frames(&self.buf[..self.filled])?;
        if consumed == 0 {
            return Ok(());
        }
        let whole = Bytes::from(std::mem::take(&mut self.buf));
        frame::payloads(&whole.slice(..consumed)).for_each(&mut deliver);

        let tail = consumed..self.filled;
        self.filled = tail.len();
        self.buf = match whole.try_reclaim() {
            Ok(mut buf) => {
                buf.copy_within(tail, 0);
                buf
            }
            // A delivered event kept a view: the allocation is theirs now.
            Err(kept) => {
                let mut buf = vec![0; IDLE_LEN.max(self.filled)];
                buf[..self.filled].copy_from_slice(&kept[tail]);
                buf
            }
        };
        if self.buf.len() > IDLE_LEN && self.filled + READ_CHUNK <= IDLE_LEN {
            self.buf.truncate(IDLE_LEN);
            self.buf.shrink_to_fit();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame whose payload is `len` bytes of `fill`.
    fn framed(fill: u8, len: usize) -> Vec<u8> {
        let mut out = (len as u32).to_le_bytes().to_vec();
        out.resize(frame::LEN_PREFIX + len, fill);
        out
    }

    /// Feeds `bytes` the way the reader loop does: into `spare`, then
    /// `advance`, as many reads as it takes.
    fn receive(buf: &mut RecvBuf, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let spare = buf.spare();
            assert_eq!(spare.len(), READ_CHUNK);
            let n = spare.len().min(bytes.len());
            spare[..n].copy_from_slice(&bytes[..n]);
            buf.advance(n);
            bytes = &bytes[n..];
        }
    }

    /// Delivers like a handler that keeps nothing: payloads are copied out.
    fn delivered(buf: &mut RecvBuf) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        buf.deliver_frames(|payload| out.push(payload.to_vec()))
            .unwrap();
        out
    }

    /// Delivers like a handler that keeps every payload view.
    fn retained(buf: &mut RecvBuf) -> Vec<Bytes> {
        let mut out = Vec::new();
        buf.deliver_frames(|payload| out.push(payload)).unwrap();
        out
    }

    fn address(buf: &RecvBuf) -> usize {
        buf.buf.as_ptr() as usize
    }

    #[test]
    fn partial_frame_is_carried_across_reads() {
        let mut buf = RecvBuf::new();
        let stream = [framed(1, 10), framed(2, 300)].concat();
        // The first read ends inside the second frame's body, the second
        // inside nothing.
        let (first, second) = stream.split_at(14 + 4 + 100);
        receive(&mut buf, first);
        let at = address(&buf);
        assert_eq!(delivered(&mut buf), vec![vec![1u8; 10]]);
        assert_eq!(buf.filled, 4 + 100, "the partial frame moved to the front");
        assert_eq!(address(&buf), at, "same allocation, taken back");
        assert!(delivered(&mut buf).is_empty(), "nothing complete yet");
        receive(&mut buf, second);
        assert_eq!(delivered(&mut buf), vec![vec![2u8; 300]]);
        assert_eq!(buf.filled, 0);
        assert_eq!(address(&buf), at);
    }

    #[test]
    fn one_read_delivers_many_frames_in_order() {
        let mut buf = RecvBuf::new();
        let stream: Vec<u8> = (0..200u8).flat_map(|i| framed(i, i as usize)).collect();
        receive(&mut buf, &stream);
        let got = delivered(&mut buf);
        assert_eq!(got.len(), 200);
        for (i, payload) in got.iter().enumerate() {
            assert_eq!(payload, &vec![i as u8; i]);
        }
        assert_eq!(buf.filled, 0);
    }

    #[test]
    fn oversized_frame_grows_the_buffer_and_delivery_shrinks_it_back() {
        const BIG: usize = 1024 * 1024;
        let mut buf = RecvBuf::new();
        let mut stream = framed(7, BIG);
        stream.extend_from_slice(&framed(8, 3)[..5]); // and a partial small one
        for read in stream.chunks(READ_CHUNK) {
            receive(&mut buf, read);
            if buf.filled < frame::LEN_PREFIX + BIG {
                assert!(delivered(&mut buf).is_empty());
            }
        }
        assert!(buf.buf.len() > BIG, "grown to hold the frame");
        assert_eq!(delivered(&mut buf), vec![vec![7u8; BIG]]);
        // Nothing was kept, so the grown buffer itself came back, cut down.
        assert_eq!(buf.buf.len(), IDLE_LEN);
        assert!(buf.buf.capacity() < BIG, "idle readers do not pin the peak");
        assert_eq!(buf.filled, 5);
        receive(&mut buf, &framed(8, 3)[5..]);
        assert_eq!(delivered(&mut buf), vec![vec![8u8; 3]]);
    }

    #[test]
    fn retained_view_forces_a_fresh_buffer_and_stays_valid() {
        let mut buf = RecvBuf::new();
        receive(
            &mut buf,
            &[framed(0xAA, 64), framed(0xBB, 8)[..6].to_vec()].concat(),
        );
        let at = address(&buf);
        let kept = retained(&mut buf).pop().unwrap();
        assert_eq!(
            kept.as_ptr() as usize,
            at + frame::LEN_PREFIX,
            "a view, not a copy"
        );
        assert_ne!(address(&buf), at, "the reader moved on to a new allocation");
        assert_eq!(buf.filled, 6, "with the partial tail");

        // The reader overwrites its buffer; the kept view is untouched.
        receive(&mut buf, &framed(0xBB, 8)[6..]);
        receive(&mut buf, &framed(0xCC, 64));
        assert_eq!(delivered(&mut buf), vec![vec![0xBB; 8], vec![0xCC; 64]]);
        assert_eq!(kept, vec![0xAA; 64]);
    }

    #[test]
    fn oversized_prefix_is_refused_before_growing() {
        let mut buf = RecvBuf::new();
        receive(&mut buf, &(frame::MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(buf.deliver_frames(|_| ()), Err(frame::MAX_FRAME + 1));
        assert_eq!(buf.buf.len(), IDLE_LEN);
    }
}
