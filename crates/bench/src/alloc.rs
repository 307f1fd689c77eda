//! Deterministic allocation counting for the bench binaries.
//!
//! The simulator is single-process and (on the serial executor) single-threaded,
//! so the number of heap allocations a benchmark point performs is exactly
//! reproducible — unlike wall-clock time, which measures the host. The
//! `regress` binary installs [`CountingAlloc`] as its global allocator and
//! gates the allocation delta around each point against the committed
//! `ALLOC_CEILINGS.json` (Gate 5), which is how "the data plane got
//! slower" fails CI without a flaky wall-clock threshold.
//!
//! Only `alloc` and `realloc` count (a realloc that moves is the moral
//! equivalent of a fresh allocation); `dealloc` is free. The counter is a
//! relaxed atomic: total counts are scheduling-independent because the
//! *set* of allocations a deterministic program performs does not depend
//! on which thread performs them — but worker pools allocate bookkeeping
//! of their own, so ceilings are only recorded and gated on the serial
//! executor (`GAMMA_POOL` unset).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` shim that counts allocation events.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation events since process start.
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Run `f` and return `(result, allocation events during f)`.
///
/// Only meaningful when nothing else allocates concurrently — i.e. on a
/// serial executor with no worker pool active.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocation_count();
    let out = f();
    (out, allocation_count() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_is_monotonic_and_observes_boxing() {
        // Without the allocator installed the counter simply stays flat —
        // the API must still behave (the bench bins install it; unit
        // tests may not).
        let a = allocation_count();
        let (v, _delta) = count_allocs(|| vec![1u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(allocation_count() >= a);
    }
}
