//! A byte-string length prefix is input from the network: one that promises
//! more bytes than remain must be refused *before* anything is allocated
//! for it. This binary installs an allocator that records the largest
//! request each thread makes, so the test observes the allocation itself
//! rather than inferring it from the error.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use kompics_codec::{from_bytes, from_bytes_shared, varint, CodecError};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

thread_local! {
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

struct Watching;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = LARGEST_REQUEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording the size touches only a
// `const`-initialised thread-local `Cell` and allocates nothing.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; all three are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Put {
    key: u64,
    value: Option<Vec<u8>>,
}

/// Decodes `wire` as `T` through both entry points; both must fail with
/// `UnexpectedEof` having requested no allocation above `SMALL` bytes.
fn refused_without_allocating<T: DeserializeOwned + std::fmt::Debug>(wire: &[u8]) {
    /// Far below any hostile length here, far above what building an error
    /// value or an `Arc` header takes.
    const SMALL: usize = 4096;
    let shared = Bytes::from(wire.to_vec());
    LARGEST_REQUEST.with(|largest| largest.set(0));
    let owned = from_bytes::<T>(wire);
    let borrowed = from_bytes_shared::<T>(&shared);
    let largest = LARGEST_REQUEST.with(Cell::get);
    assert_eq!(owned.unwrap_err(), CodecError::UnexpectedEof);
    assert_eq!(borrowed.unwrap_err(), CodecError::UnexpectedEof);
    assert!(
        largest <= SMALL,
        "decoding {wire:?} requested an allocation of {largest} bytes"
    );
}

#[test]
fn length_beyond_the_input_fails_before_allocating() {
    for hostile in [u64::from(u32::MAX), u64::MAX, 1 << 40, 16 * 1024 * 1024, 4] {
        // The length, then three bytes: fewer than any of them promises.
        let mut byte_string = Vec::new();
        varint::write_u64(&mut byte_string, hostile);
        byte_string.extend_from_slice(&[1, 2, 3]);
        refused_without_allocating::<Vec<u8>>(&byte_string);
        refused_without_allocating::<Bytes>(&byte_string);
        refused_without_allocating::<String>(&byte_string);

        // The same as a field: `Put { key: 7, value: Some(<hostile>) }`.
        let mut put = vec![7, 1];
        put.extend_from_slice(&byte_string);
        refused_without_allocating::<Put>(&put);

        // ... and as an element of an outer sequence of byte strings.
        let mut nested = vec![1];
        nested.extend_from_slice(&byte_string);
        refused_without_allocating::<Vec<Vec<u8>>>(&nested);
    }
}

#[test]
fn element_sequences_keep_their_capped_preallocation() {
    // A `Vec<u16>` claiming u32::MAX elements fails at the fourth element;
    // what it reserved up front is bounded (4096 elements), not the claim.
    let mut wire = Vec::new();
    varint::write_u64(&mut wire, u64::from(u32::MAX));
    wire.extend_from_slice(&[1, 2, 3]);
    LARGEST_REQUEST.with(|largest| largest.set(0));
    assert_eq!(
        from_bytes::<Vec<u16>>(&wire).unwrap_err(),
        CodecError::UnexpectedEof
    );
    assert!(LARGEST_REQUEST.with(Cell::get) <= 4096 * std::mem::size_of::<u16>());
}

#[test]
fn honest_lengths_still_decode() {
    let put = Put {
        key: 7,
        value: Some(vec![0x80; 300]),
    };
    let wire = kompics_codec::to_bytes(&put).unwrap();
    assert_eq!(wire.len(), 1 + 1 + 2 + 300);
    assert_eq!(from_bytes::<Put>(&wire).unwrap(), put);
}
