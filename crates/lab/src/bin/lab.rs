//! The scenario-lab CLI: list, run, sweep and benchmark the registered
//! experiment scenarios. Run `lab --help` for usage.

#![forbid(unsafe_code)]

fn main() {
    std::process::exit(bullet_lab::lab_main(std::env::args().skip(1)));
}
