#!/usr/bin/env sh
# CI gate for bullet-repro: the tier-1 verify from ROADMAP.md (build + test),
# lint and docs, the whole suite on the release build, the README
# examples, a CLI smoke, the claims of fig20 (N = 1k / 5k / 10k), fig18,
# fig04 and fig05 (`lab sweep`), the open system below capacity
# (tests/service_timeline.rs) and the wall-clock contracts (tests/wall_clock.rs)
# on the release build, and a gate that keeps the documents in the present.
# Nothing here records performance or compares against a committed number:
# that is the paired benchmark run (BENCHMARK.json, benchmark/). Run from the
# repository root: ./ci.sh
set -eu

# Formatting gate (cheap, so it runs first). The one-time whole-tree
# reformat landed with the Protocol API v2 PR; from here on drift fails CI.
echo "==> cargo fmt --check"
cargo fmt --check

# The documents state the present; history stays in git. docs/PERFORMANCE.md
# is one current ledger, under 600 lines, and none of its headings names an
# ISSUE or PR. No line of docs/, DESIGN.md, README.md or crates/ cites an
# ISSUE or PR number, except a commit pointer (`git show <commit>:<path>`).
echo "==> docs state the present (PERFORMANCE.md size and headings, no ISSUE or PR citations)"
perf_lines=$(wc -l <docs/PERFORMANCE.md)
if [ "$perf_lines" -ge 600 ] || grep -qE '^#.*(ISSUE|PR) [0-9]' docs/PERFORMANCE.md; then
    echo "FAIL: docs/PERFORMANCE.md has $perf_lines lines (limit 599) or a heading naming an ISSUE or PR"
    exit 1
fi
citations=$(grep -rnE 'ISSUE [0-9]+|PR [0-9]+' docs DESIGN.md README.md crates |
    grep -vE 'git show [0-9a-f]{7,}:' || true)
if [ -n "$citations" ]; then
    printf '%s\n' "$citations"
    echo "FAIL: the lines above cite an ISSUE or PR number; point at the present document or at a commit"
    exit 1
fi

echo "==> cargo build --release (all targets)"
cargo build --release --all-targets

# The benchmark harness (benchmark/, its own workspace) judges every PR and
# links the crates' public API, so an API change that breaks it must fail
# here, not in the driver: build it, run its self-tests, and take the digests
# of its five workloads at full scale (printed with the LoC table below).
# Its build writes the git-ignored benchmark/target/; cargo also re-resolves
# benchmark/Cargo.lock (it still lists dependencies bullet-lab has dropped,
# and only a `benchmark` PR may refresh it), so the lock file is put back as
# it was.
echo "==> cargo build + test --release (benchmark harness), run.sh golden"
cp benchmark/Cargo.lock target/benchmark-Cargo.lock.keep
harness=0
cargo build --release --offline --manifest-path benchmark/Cargo.toml &&
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml &&
    harness_digests=$(benchmark/run.sh golden) || harness=$?
mv target/benchmark-Cargo.lock.keep benchmark/Cargo.lock
[ "$harness" -eq 0 ] || exit "$harness"

# The debug suite is where every frontier solve is cross-checked: with
# debug_assertions on, Network::resolve re-solves the whole network after each
# component solve and asserts equal bits (check_solve_against_unpruned), in
# every run of every test. A run solves once per virtual instant, when the
# runner settles the instant, so every settle is cross-checked. BitTorrent's request path does the same for its
# per-piece rarity counter: each candidate piece's count is recounted from the
# neighbours' bitmaps (check_rarity_against_neighbours), so every BitTorrent
# run checks the increments and, where a peer crashes or leaves, the
# decrements (protocol_conformance's bittorrent_conforms is such a run).
# Release builds carry none of it, so this step must keep running, and before
# the release golden steps that trust the solver. Cargo.toml's
# default-members are every workspace member, so this step also runs every
# member's doc tests (vendor shims included): documented snippets compile.
echo "==> cargo test -q (workspace unit, integration and doc tests)"
cargo test -q

# clippy.toml's disallowed-methods list holds every f64 / f32 method of
# unspecified precision (powf, ln, log2, exp, sin, ...): a simulated number
# computed with one depends on the host's libm, not on the seed alone
# (DESIGN.md, "Determinism rules", rule 4; desim::ln is the one logarithm).
# Shipped code may not switch the lint off: only a test may name it, as
# crates/sim/tests/ln_reference.rs does to call std's ln as its reference.
echo "==> no unspecified-precision float method in shipped code (clippy.toml), cargo clippy --all-targets -- -D warnings"
allowed=$(grep -rln --include='*.rs' disallowed_methods crates/*/src src examples || true)
if [ -n "$allowed" ]; then
    printf '%s\n' "$allowed"
    echo "FAIL: the files above name clippy::disallowed_methods; use desim::ln or exact arithmetic instead"
    exit 1
fi
cargo clippy --all-targets -- -D warnings

# Documentation gate for the first-party crates (vendor/ shims are exempt,
# like every other lint): intra-doc links and rustdoc warnings stay clean,
# on private items too, since most of the docs are on private items (a
# runner's state, the solver's tables, a topology's delay model).
echo "==> cargo doc --no-deps --document-private-items -D warnings (first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items -q \
    -p desim -p netsim -p overlay -p dissem-codec -p bullet-prime \
    -p baselines -p bullet-bench -p bullet-lab -p bullet-repro

# The whole suite again on the release build, the build the benchmark and
# the wall-clock contracts measure. The golden digests and figures
# (tests/golden_digests.rs, tests/golden_figures.rs) must give the same bytes
# as on the debug build, and every oracle runs on it too: desim::IndexedHeap's
# scan oracle and the queue oracle, the solver's fairness, instant and
# lazy-heap references, the lazily drawn §4.1 schedule against its eager
# reference (draw orders and two threads), BitTorrent's request-selection
# reference, Bullet′'s selection oracles and request-state recount, the four
# systems' churn contract (tests/protocol_conformance.rs), the snapshot/fork
# contract (tests/snapshot_fork.rs, forks drawing one schedule on two
# threads) and the open system below capacity (tests/service_timeline.rs,
# whose default-scale cells run on a release build only). The two wall-clock
# tests are skipped here: they compare wall clocks and run one at a time in
# their own step below.
echo "==> cargo test -q --release (every suite on the release build but the wall-clock contracts)"
cargo test -q --release -- --exact \
    --skip tracing_fig05_changes_nothing_and_costs_at_most_one_and_a_half_times_dark \
    --skip four_workers_sweep_fig05_at_least_one_and_a_half_times_faster_than_one

# The three README examples are built by --all-targets above; run them, so
# one that panics or exits non-zero fails here and not for a reader.
echo "==> README examples (quickstart, dynamic_network, flash_crowd)"
for example in quickstart dynamic_network flash_crowd; do
    ./target/release/examples/"$example" >/dev/null || {
        echo "FAIL: example $example exited non-zero"
        exit 1
    }
done

# One scenario per body kind through the CLI: every command reads what a
# scenario runs off the same registry entry. A closed scenario traces the
# Bullet' run of its own workload (the trace must replay the probe series,
# and the output ends with one row per receiver and no wall-clock section);
# fig15's Shotgun run is such a workload too. An open-system scenario traces
# its last cell (fig21's top load, fig22's only cell), and that trace must
# replay the probe series over every slot of the pool too. `lab run` of an
# open scenario must print its curves as statistics of y (two rows with
# different y's cannot show the same numbers, which they did while every row
# was quantiles of the shared x axis), and a reader that closes the pipe early
# ends a command with status 0, not a panic.
echo "==> lab smoke (list, trace per body kind, run of an open scenario, fig22's full pool, closed pipe)"
rows=$(./target/release/lab list | tail -n +2 | wc -l)
if [ "$rows" -ne 21 ]; then
    echo "FAIL: lab list printed $rows scenario rows, expected 21"
    exit 1
fi
traced=$(./target/release/lab trace fig11 --nodes 6 --mb 0.125)
printf '%s\n' "$traced" | grep -q "replay check: OK" || {
    echo "FAIL: lab trace fig11 did not pass its replay check"
    exit 1
}
# Receiver rows are the only lines that begin with a number (the node id).
receiver_rows=$(printf '%s\n' "$traced" | grep -c '^ *[0-9][0-9]* ' || true)
if [ "$receiver_rows" -ne 5 ] || printf '%s\n' "$traced" | grep -q profiler; then
    echo "FAIL: lab trace fig11 printed $receiver_rows receiver rows (expected 5) or a profiler section"
    exit 1
fi
# The `timer` record's schema as docs/OBSERVABILITY.md gives it: every line
# of a `--kind timer` dump is a timer record naming the timer it carries.
tmp=$(mktemp)
./target/release/lab trace fig11 --nodes 6 --mb 0.125 --json "$tmp" --kind timer >/dev/null
timer_lines=$(wc -l <"$tmp")
odd_lines=$(grep -cv '"kind":"timer".*"timer":' "$tmp" || true)
rm -f "$tmp"
if [ "$timer_lines" -eq 0 ] || [ "$odd_lines" -ne 0 ]; then
    echo "FAIL: lab trace fig11 --kind timer wrote $timer_lines lines, $odd_lines without \"kind\":\"timer\" and a \"timer\" field"
    exit 1
fi
# The §4.1 schedule as the trace shows it: fig05's link-change batches
# fire every 20 s (at 20, 40 and 60 s for this run) and each record's `index`
# is the batch's place in scheduling order, counting up from 0.
./target/release/lab trace fig05 --nodes 8 --mb 32 --json "$tmp" --kind link_change >/dev/null
link_changes=$(sed -n 's/^{"t":\([^,]*\),.*"kind":"link_change","index":\([0-9]*\)}$/\1 \2/p' "$tmp" |
    awk '$2 != NR - 1 || $1 % 20 != 0 { bad = 1 } END { print (bad ? -1 : NR) }')
all_lines=$(wc -l <"$tmp")
rm -f "$tmp"
if [ "$link_changes" -lt 3 ] || [ "$link_changes" -ne "$all_lines" ]; then
    echo "FAIL: lab trace fig05 --kind link_change wrote $all_lines lines; expected at least 3 link_change records, indices 0, 1, 2, ... in order, each at a multiple of 20 s"
    exit 1
fi
expect_replay() {
    # $@ = scenario and options
    replayed=$(./target/release/lab trace "$@") || {
        echo "FAIL: lab trace $* exited non-zero"
        exit 1
    }
    printf '%s\n' "$replayed" | grep -q "replay check: OK" || {
        echo "FAIL: lab trace $* did not pass its replay check"
        exit 1
    }
}
expect_replay fig15 --nodes 6 --mb 0.125
expect_replay fig22 --nodes 12 --mb 0.25
expect_replay fig21 --nodes 16 --mb 0.25 --time-limit 300
fig21=$(./target/release/lab run fig21 --nodes 16 --mb 0.25 --time-limit 300 2>/dev/null)
columns() {
    # $1 = series label; prints the four numeric columns of its row
    printf '%s\n' "$fig21" | grep "^$1" | awk '{ print $(NF-3), $(NF-2), $(NF-1), $NF }'
}
goodput=$(columns "sustained goodput (Mbps)")
completed=$(columns "swarms completed in the window")
if [ -z "$goodput" ] || [ -z "$completed" ] || [ "$goodput" = "$completed" ]; then
    echo "FAIL: lab run fig21 prints '$goodput' for goodput and '$completed' for completions"
    exit 1
fi
# fig22 at paper scale: the 2,016-slot pool over one shared core link is
# built and served within a 20 s horizon (a topology quadratic in links
# would show here first).
full_pool=$(./target/release/lab run fig22 --full --time-limit 20 2>/dev/null) || {
    echo "FAIL: lab run fig22 --full --time-limit 20 exited non-zero"
    exit 1
}
printf '%s\n' "$full_pool" | head -1 | grep -q '2016-slot pool' || {
    echo "FAIL: lab run fig22 --full --time-limit 20 does not name the 2016-slot pool in its header"
    exit 1
}
# The writer's exit status, past the pipe: fd 3 carries it around `head`.
piped=$({ {
    status=0
    ./target/release/lab sweep fig13 --nodes 4 --mb 0.1 2>/dev/null || status=$?
    echo "$status" >&3
} | head -1 >/dev/null; } 3>&1)
if [ "$piped" -ne 0 ]; then
    echo "FAIL: lab sweep fig13 | head -1 exited $piped"
    exit 1
fi
echo "lab list: 21 rows; trace fig11 replays, lists 5 receivers and dumps $timer_lines timer records; trace fig05 dumps $link_changes link changes in order; traces of fig15, fig22 and fig21 replay; run fig22 --full serves the 2016-slot pool"
echo "lab run fig21: goodput $goodput, completions $completed; sweep | head -1 exits 0"

# A scenario's claims at the default seed: `lab sweep <scenario> --seed-count
# 1` prints one `ok` / `FAIL` line per claim per cell and exits 1 on a FAIL;
# the count of `ok` lines guards against a sweep that lost a cell or a claim.
expect_claims() {
    echo "==> $1's claims (lab sweep $1 --seed-count 1)"
    status=0
    claims=$(./target/release/lab sweep "$1" --seed-count 1) || status=$?
    printf '%s\n' "$claims" | grep -E '^(ok|FAIL) ' || true
    ok_claims=$(printf '%s\n' "$claims" | grep -c '^ok ' || true)
    if [ "$status" -ne 0 ] || [ "$ok_claims" -ne "$2" ] || printf '%s\n' "$claims" | grep -q '^FAIL '; then
        echo "FAIL: lab sweep $1 exited $status and printed $ok_claims ok claim lines, expected 0, $2 and no FAIL"
        exit 1
    fi
}

# fig20: one cell runs the trajectory at N = 1,000 / 5,000 / 10,000, and each
# swarm must end with every receiver complete (three claims).
expect_claims fig20 3
# fig18: each of the two meshes sharing the core has its median 2-5x the lone
# mesh's, and the two medians lie within 25 % of each other (three claims).
expect_claims fig18 3
# fig04, at its default scale (three swarm sizes, ~4 s): no system finishes
# left of the physical bound (four systems, so four claims per cell), and
# Bullet' is at most 5 % behind the best other system's median (one claim per
# cell, "not applicable" at 20 nodes).
expect_claims fig04 15
# fig05: the same margin claim under the §4.1 schedule (one per cell).
expect_claims fig05 3

# Wall-clock contracts (tests/wall_clock.rs), ignored on a debug build: fig05
# under the §4.1 schedule traced into a counting sink gives the dark run's
# canonical report at <= 1.5x its wall clock, and on a host with four threads
# the fig05 sweep on 4 workers gives the 1-worker bytes >= 1.5x faster. One
# test at a time, because each compares two wall clocks of its own.
echo "==> wall-clock contracts on the release build (tests/wall_clock.rs)"
cargo test -q --release --test wall_clock -- --test-threads=1

# Nothing here writes a perf record: they are gone for good.
if git status --porcelain | grep -q 'BENCH_.*\.json'; then
    echo "FAIL: a perf-record file appeared at the root; performance is recorded by benchmark/ only"
    exit 1
fi
# Nor is there a second timer: no member may carry a bench target.
for member in . crates/* vendor/*; do
    if [ -d "$member/benches" ] || grep -q '^\[\[bench\]\]' "$member/Cargo.toml"; then
        echo "FAIL: $member has a benches/ directory or a [[bench]] table; layers are timed by benchmark/src/drivers.rs only"
        exit 1
    fi
done

# LoC per crate, the series CHANGES.md continues from PR to PR: non-blank,
# non-`//` lines before a file's first `#[cfg(test)]`. "all" counts every
# *.rs under crates/<c>/src, a test-only file such as netsim's
# network/tests.rs included; "prod" skips the
# files that are only reachable through a `#[cfg(test)] mod name;`.
echo "==> code lines per crate (informational; CHANGES.md records them)"
code_lines() {
    xargs awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
        !t { s = $0; sub(/^[ \t]+/, "", s); if (s != "" && s !~ /^\/\//) n++ }
        END { print n + 0 }'
}
test_only=$(find crates/*/src -name '*.rs' | sort | xargs awk '
    /^#\[cfg\(test\)\]/ { armed = 1; next }
    armed && /^mod [a-z0-9_]+;/ {
        dir = FILENAME; sub(/\.rs$/, "", dir); sub(/\/(lib|mod|main)$/, "", dir)
        name = $2; sub(/;/, "", name); print dir "/" name ".rs"
    }
    { armed = 0 }')
total_all=0
total_prod=0
for src in crates/*/src; do
    all=$(find "$src" -name '*.rs' | sort | code_lines)
    prod=$(find "$src" -name '*.rs' | sort | grep -vxF "${test_only:-none}" | code_lines)
    printf '%-18s all %6d   prod %6d\n' "$src" "$all" "$prod"
    total_all=$((total_all + all))
    total_prod=$((total_prod + prod))
done
printf '%-18s all %6d   prod %6d\n' "total" "$total_all" "$total_prod"
# The panic audit's counts (ROADMAP item 3 (c)), so each PR measures them
# instead of a hand count at each re-anchor: every site, in-file test modules
# included, and the sites that ship, counted by the LoC table's "prod" rule
# (lines before a file's first `#[cfg(test)]`, test-only files skipped).
panic_re='panic!\|expect(\|unreachable!\|unwrap()'
panic_sites=$(grep -rn "$panic_re" crates/*/src | wc -l)
shipped_sites=$(find crates/*/src -name '*.rs' | sort | grep -vxF "${test_only:-none}" |
    xargs awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { print }' |
    grep -c "$panic_re" || true)
echo "panic sites (panic!, expect(, unreachable!, unwrap() under crates/*/src; informational): $panic_sites, of which shipped: $shipped_sites"

# The harness's digests of its five workloads' canonical reports at the
# default seed. benchmark/golden.json goes stale whenever a digest moves, by
# contract (only a `benchmark` PR refreshes it), so nothing is compared here:
# a PR that claims unchanged behaviour quotes these lines before and after.
echo "==> benchmark/run.sh golden (informational; CHANGES.md records them)"
printf '%s\n' "$harness_digests"

echo "==> CI green"
