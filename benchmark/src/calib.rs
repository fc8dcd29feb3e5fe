//! The reference kernel: how fast is this host right now?
//!
//! The reference host is a shared box whose speed drifts by 20–50 % for tens
//! of seconds to minutes at a time, with user + system time following wall
//! time (so it is the processor that slows, not the process that waits).
//! Over ten runs of one workload that drift alone spreads raw wall seconds
//! by 10–20 %, whatever the run reports — medians inside a 12 s run cannot
//! see a slow spell that outlasts the run. So the harness times a fixed
//! piece of work of its own beside every pass and reports host seconds
//! scaled to a quiet host: `seconds × QUIET_SECS ÷ kernel seconds`. A change
//! to the emulator cannot touch the kernel (a change that claims a gain may
//! not edit `benchmark/`), so a faster emulator still reads faster.
//!
//! The kernel mixes what the emulator does per event: a binary-heap hold,
//! a hash-map lookup over a working set of a few MB, and floating-point
//! arithmetic on the value found.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What [`kernel_secs`] reads on the reference host when nothing disturbs
/// it (the minimum over several hundred readings).
pub const QUIET_SECS: f64 = 0.0402;

/// Runs the reference kernel on `threads` threads at once and returns the
/// wall seconds of the slowest. One thread for the single-threaded
/// workloads; `lab_sweep` keeps two workers busy, and a neighbour on either
/// core slows it, which a kernel on one core would not see.
pub fn kernel_secs_on(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel_secs();
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(kernel_secs)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("the reference kernel does not panic"))
            .fold(0.0, f64::max)
    })
}

/// Runs the reference kernel once and returns the wall seconds it took.
pub fn kernel_secs() -> f64 {
    const HOLDS: u32 = 600_000;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<u64> = (0..4096).map(|_| next() >> 16).collect();
    let mut map: HashMap<u64, f64> = (0..65_536u64).map(|i| (i, i as f64)).collect();
    let mut acc = 0.0f64;
    let started = Instant::now();
    for _ in 0..HOLDS {
        let top = heap.pop().expect("the heap is never drained");
        heap.push(top.wrapping_sub(next() >> 40));
        let slot = map
            .get_mut(&(next() & 0xffff))
            .expect("every key is present");
        *slot = (*slot * 0.999 + (top as f64).sqrt()) / 1.0001;
        acc += *slot;
    }
    let secs = started.elapsed().as_secs_f64();
    black_box(acc);
    secs
}

/// How much slower than quiet the host ran around one pass: the mean of the
/// kernel readings before and after it, over [`QUIET_SECS`].
pub fn host_factor(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / QUIET_SECS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time_and_the_factor_is_its_ratio_to_quiet() {
        assert!(kernel_secs() > 0.001);
        assert!(kernel_secs_on(2) > 0.001);
        assert_eq!(host_factor(QUIET_SECS, QUIET_SECS), 1.0);
        assert_eq!(host_factor(QUIET_SECS, 3.0 * QUIET_SECS), 2.0);
    }
}
