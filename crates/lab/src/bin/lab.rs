//! The scenario-lab CLI: list, run, sweep, trace and self-check the
//! registered experiment scenarios. Run `lab --help` for usage.

#![forbid(unsafe_code)]

fn main() {
    let code = bullet_lab::lab_main(std::env::args().skip(1), &mut std::io::stdout().lock());
    std::process::exit(code);
}
