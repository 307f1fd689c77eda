//! Counting allocator: allocation events **and** bytes requested.
//!
//! `gamma_bench::alloc` counts events only; the benchmark also wants the
//! bytes, so a host-side change that swaps many small allocations for a
//! few large ones (or the reverse) shows on one of the two counters.
//! Under the serial executor the simulator is single-threaded and
//! deterministic, so both counters repeat exactly from pass to pass — the
//! benchmark asserts that and reports them as exact companions to the
//! noisy wall clock.
//!
//! `alloc`, `alloc_zeroed` and `realloc` count (a realloc counts its new
//! size: it may move the whole block); `dealloc` is free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed: both are statistics that publish no other data.
static EVENTS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The benchmark's `#[global_allocator]`.
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    EVENTS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every operation is delegated to `System` unchanged; the
// counters never influence the pointers or layouts passed through.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals since process start, or a difference of two of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocation events.
    pub events: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl AllocCount {
    /// Totals right now.
    pub fn now() -> Self {
        AllocCount {
            events: EVENTS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated since `earlier`.
    pub fn since(earlier: AllocCount) -> Self {
        let now = Self::now();
        AllocCount {
            events: now.events - earlier.events,
            bytes: now.bytes - earlier.bytes,
        }
    }

    /// Bytes as MiB.
    pub fn mib(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0)
    }
}

impl std::ops::Add for AllocCount {
    type Output = AllocCount;
    fn add(self, o: AllocCount) -> AllocCount {
        AllocCount {
            events: self.events + o.events,
            bytes: self.bytes + o.bytes,
        }
    }
}

impl std::ops::Sub for AllocCount {
    type Output = AllocCount;
    fn sub(self, o: AllocCount) -> AllocCount {
        AllocCount {
            events: self.events - o.events,
            bytes: self.bytes - o.bytes,
        }
    }
}
