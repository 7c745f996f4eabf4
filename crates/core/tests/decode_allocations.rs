//! A payload that fails to decode allocates no more than its own length: no
//! decoder reserves memory for a count the input cannot hold. The binary holds
//! one test function, so no other test allocates while the record runs.

use recon_base::wire::{write_uvarint, Decode};
use recon_sos::cascading::CascadingDigest;
use recon_sos::SetOfSets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single allocation.
struct RecordLargest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for RecordLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: RecordLargest = RecordLargest;

/// `varints`, then `fill` bytes of `byte`.
fn payload(varints: &[u64], fill: usize, byte: u8) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &value in varints {
        write_uvarint(&mut bytes, value);
    }
    bytes.resize(bytes.len() + fill, byte);
    bytes
}

/// `bytes` do not parse, and no single allocation the attempt makes is larger.
fn assert_refused_within_its_length(what: &str, bytes: &[u8], parses: fn(&[u8]) -> bool) {
    LARGEST.store(0, Ordering::Relaxed);
    assert!(!parses(bytes), "{what} parsed");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= bytes.len(), "{what}: {largest} B allocated for {} B", bytes.len());
}

#[test]
fn a_payload_that_fails_to_decode_allocates_at_most_its_length() {
    const MIB: usize = 1 << 20;
    // A cascade bound of 64, 2^20 levels claimed, then 1 MiB of 0xFF.
    let cascade = payload(&[64, 1 << 20], MIB, 0xFF);
    assert_refused_within_its_length("cascading digest", &cascade, |bytes| {
        CascadingDigest::from_bytes(bytes).is_ok()
    });
    // 2^20 children claimed, the first 2^40 elements long, then 1 MiB of zeros.
    let sos = payload(&[1 << 20, 1 << 40], MIB, 0);
    assert_refused_within_its_length("set of sets", &sos, |bytes| {
        SetOfSets::from_bytes(bytes).is_ok()
    });
}
