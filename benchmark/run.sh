#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (and, through its path
# dependencies, the crates it measures) from source, then runs it:
#
#   benchmark/run.sh                       traced pass + dark batches of all five workloads
#   benchmark/run.sh --workload dyn_mesh   the same for one workload
#   benchmark/run.sh repeat                two alternating sets, compared against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one machine-readable run (see BENCHMARK.json)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
