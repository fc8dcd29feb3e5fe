//! A counting global allocator for a binary that records allocation
//! figures: the `benchmark/` harness installs it in its own process (no
//! binary of this workspace does — every allocation pays three atomics).
//!
//! Tracks three numbers on top of the system allocator: the cumulative
//! allocation count (a deterministic proxy for per-event overhead), the
//! currently live heap bytes, and the high-water mark of live bytes. The
//! high-water mark stands in for peak RSS in the benchmark records — unlike
//! `/proc/self/status` it exists on every platform, and unlike RSS it is
//! deterministic for a deterministic workload (modulo allocator rounding).
//!
//! A binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: bullet_bench::alloc_track::CountingAlloc = CountingAlloc;
//! ```
//!
//! and read the counters through the free functions below. The counters are
//! process-global; [`reset_peak`] rebases the high-water mark onto the
//! current live size so successive runs in one process report independent
//! peaks (the harness resets and reads on one thread with no run in flight,
//! so there is no race between the reset and the next run).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Forwards every call to [`System`] and maintains
/// the module's counters.
pub struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count a realloc as one allocation and move the live total by the
        // size delta, whether it grew or shrank.
        Self::on_alloc(new_size);
        Self::on_dealloc(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

/// Cumulative number of heap allocations since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes currently live (allocated and not yet freed).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since process start (or since the
/// last [`reset_peak`]).
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Rebases the high-water mark onto the current live size, so the next
/// workload's peak is measured above today's floor rather than inheriting a
/// previous run's maximum. Call between back-to-back runs in one process.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    // The test harness does not install the allocator (that would perturb
    // every other test's numbers), so exercise the bookkeeping directly.
    use super::*;

    #[test]
    fn live_and_peak_track_alloc_dealloc_pairs() {
        reset_peak();
        let live0 = live_bytes();
        CountingAlloc::on_alloc(1024);
        CountingAlloc::on_alloc(2048);
        assert_eq!(live_bytes(), live0 + 3072);
        assert!(peak_bytes() >= live0 + 3072);
        CountingAlloc::on_dealloc(2048);
        assert_eq!(live_bytes(), live0 + 1024);
        // The peak survives the free...
        assert!(peak_bytes() >= live0 + 3072);
        // ...until it is explicitly rebased onto the live size.
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
        CountingAlloc::on_dealloc(1024);
        assert_eq!(live_bytes(), live0);
    }
}
