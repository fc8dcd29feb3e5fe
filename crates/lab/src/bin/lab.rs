//! The scenario-lab CLI: list, run, sweep and benchmark the registered
//! experiment scenarios. Run `lab --help` for usage.

#![forbid(unsafe_code)]

use bullet_bench::alloc_track::CountingAlloc;

// `lab bench` records `run_allocs` and `peak_alloc_bytes` from its counters.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(bullet_lab::lab_main(std::env::args().skip(1)));
}
