//! A counting global allocator for the benchmark binary.
//!
//! Counting is off by default, so the untraced runs that give the
//! end-to-end metrics pay one relaxed load per allocation. The traced run
//! switches it on; each allocation then bumps process-wide totals and a
//! thread-local count that the layer wrappers read on entry and exit to
//! attribute allocations to the layer call that made them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator installed by `main.rs`.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        // A const-initialised `Cell` registers no destructor, so this
        // access neither allocates nor fails during thread teardown.
        let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

#[inline]
fn note_free(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        FREED.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting around it
// touches only atomics and a destructor-free thread-local, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Turn counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Process-wide (allocations, bytes requested) since start.
pub fn totals() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Bytes freed (or given up by a reallocation) while counting was on.
pub fn freed() -> u64 {
    FREED.load(Ordering::Relaxed)
}

/// Allocations counted on the calling thread since it started.
pub fn thread_count() -> u64 {
    THREAD_COUNT.try_with(Cell::get).unwrap_or(0)
}
