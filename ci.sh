#!/usr/bin/env sh
# CI gate for bullet-repro. Mirrors the tier-1 verify from ROADMAP.md plus
# lint, smoke and perf-trajectory gates. Run from the repository root: ./ci.sh
set -eu

# Formatting gate (cheap, so it runs first). The one-time whole-tree
# reformat landed with the Protocol API v2 PR; from here on drift fails CI.
echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release (all targets)"
cargo build --release --all-targets

# The benchmark harness (benchmark/, its own workspace) judges every PR and
# links the crates' public API, so an API change that breaks it must fail
# here, not in the driver. Its build writes the git-ignored benchmark/target/;
# cargo also re-resolves benchmark/Cargo.lock (it still lists dependencies
# bullet-lab dropped in PR 13, and only a `benchmark` PR may refresh it), so
# the lock file is put back as it was.
echo "==> cargo build --release (benchmark harness)"
cp benchmark/Cargo.lock target/benchmark-Cargo.lock.keep
harness=0
cargo build --release --offline --manifest-path benchmark/Cargo.toml || harness=$?
mv target/benchmark-Cargo.lock.keep benchmark/Cargo.lock
[ "$harness" -eq 0 ] || exit "$harness"

echo "==> cargo test -q (workspace unit + integration suites)"
cargo test -q

# Documented snippets must compile forever: every rustdoc example in every
# workspace member (vendor shims included) runs as a test. `cargo test -q`
# above already covers the default members; the explicit --doc --workspace
# pass gives the gate a name and catches members outside default-members.
echo "==> cargo test --doc --workspace"
cargo test --doc --workspace -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# Documentation gate for the first-party crates (vendor/ shims are exempt,
# like every other lint): intra-doc links and rustdoc warnings stay clean.
echo "==> cargo doc --no-deps -D warnings (first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p desim -p netsim -p overlay -p dissem-codec -p shotgun \
    -p bullet-prime -p baselines -p bullet-bench -p bullet-lab -p bullet-repro

# The figure harness must stay runnable end to end at tiny scale. These tests
# are part of the plain suite already (none are #[ignore]d — keep it that
# way); running the file alone gives CI a named, attributable gate.
echo "==> figure smoke gate (tests/figures_smoke.rs)"
cargo test -q --test figures_smoke

# Golden digests (tests/golden_digests.rs) pin the canonical report of one
# fixed-seed run per system. `cargo test -q` above checked them on the debug
# build; the optimised build is the one the benchmark and the BENCH_* records
# measure, so it must produce the same bytes.
echo "==> golden digests on the release build (tests/golden_digests.rs)"
cargo test -q --release --test golden_digests

# Golden figures (tests/golden_figures.rs) pin the harness above the
# emulator: every registry scenario's figure, the fig05w sweep with warm-up
# sharing on and off, and both `lab serve` runs, at tiny scale. A refactor of
# bullet_bench / bullet_lab is correct iff the file passes unedited.
echo "==> golden figures on the release build (tests/golden_figures.rs)"
cargo test -q --release --test golden_figures

# One scenario per body kind through the CLI: every command reads what a
# scenario runs off the same registry entry. A closed scenario traces the
# Bullet' run of its own workload (and the trace must replay the probe
# series); an open-system scenario and the analytic model are refused with
# exit status 2 and a message saying where to go instead.
echo "==> lab smoke (list, trace per body kind)"
rows=$(./target/release/lab list | tail -n +2 | wc -l)
if [ "$rows" -ne 21 ]; then
    echo "FAIL: lab list printed $rows scenario rows, expected 21"
    exit 1
fi
./target/release/lab trace fig11 --nodes 6 --mb 0.125 | grep -q "replay check: OK" || {
    echo "FAIL: lab trace fig11 did not pass its replay check"
    exit 1
}
expect_refusal() {
    # $1 = scenario, $2 = text the message must contain
    status=0
    message=$(./target/release/lab trace "$1" 2>&1 >/dev/null) || status=$?
    if [ "$status" -ne 2 ] || ! printf '%s' "$message" | grep -q "$2"; then
        echo "FAIL: lab trace $1 exited $status saying: $message"
        exit 1
    fi
}
expect_refusal fig21 "lab serve fig21"
expect_refusal fig15 "Shotgun"
echo "lab list: 21 rows; trace fig11 replays; fig21 and fig15 refused with status 2"

# Perf trajectory: a fixed-seed, dynamics-heavy Figure-5-style run. The JSON
# records events-processed (a deterministic scheduler-efficiency proxy), the
# heap-allocation count of the run, and the wall-clock seconds of the machine
# that last ran CI. Events are GATED (a >10% increase fails CI, so scheduler
# or network-model regressions cannot land silently). Wall-clock is also
# GATED, absolutely: the heap-ordered solver brought the run to ~0.55s, so
# anything above 0.72s (the old regressed 1.05s minus a generous margin for
# machine noise) fails CI and 0.60–0.72s warns. The relative delta against
# the committed baseline stays informational — it compares different
# machines.
echo "==> perf record + regression gate (BENCH_events.json)"
# Baseline = the *committed* record, so re-running ci.sh after a failure does
# not silently compare the regressed value against itself. Fall back to the
# working-tree file outside a git checkout.
committed=$(git show HEAD:BENCH_events.json 2>/dev/null || cat BENCH_events.json 2>/dev/null || true)
# Every field is read optional-with-warning: a baseline written before a
# field existed (e.g. run_allocs/wall_clock_secs predate the Protocol API v2
# record) must never wedge CI — re-baselining in the same commit is routine.
prev_events=$(printf '%s' "$committed" \
    | grep -o '"events_processed": *[0-9]*' | grep -o '[0-9]*$' || true)
prev_wall=$(printf '%s' "$committed" \
    | grep -o '"wall_clock_secs": *[0-9.]*' | grep -o '[0-9.]*$' || true)
prev_allocs=$(printf '%s' "$committed" \
    | grep -o '"run_allocs": *[0-9]*' | grep -o '[0-9]*$' || true)
./target/release/bench_events --out BENCH_events.json
new_events=$(grep -o '"events_processed": *[0-9]*' BENCH_events.json | grep -o '[0-9]*$')
new_wall=$(grep -o '"wall_clock_secs": *[0-9.]*' BENCH_events.json | grep -o '[0-9.]*$')
new_allocs=$(grep -o '"run_allocs": *[0-9]*' BENCH_events.json | grep -o '[0-9]*$' || true)
if [ -n "$prev_wall" ] && [ -n "$new_wall" ]; then
    awk -v prev="$prev_wall" -v cur="$new_wall" 'BEGIN {
        printf "wall-clock %.3fs -> %.3fs (%+.1f%%, cross-machine delta is informational)\n", prev, cur, (cur - prev) / prev * 100
    }'
else
    echo "WARN: wall_clock_secs missing from the committed baseline (predates the field?); skipping comparison (now ${new_wall:-unrecorded}s)"
fi
awk -v cur="$new_wall" 'BEGIN {
    if (cur > 0.72) {
        printf "FAIL: bench_events wall clock %.3fs exceeds the 0.72s ceiling\n", cur
        exit 1
    }
    if (cur > 0.60) {
        printf "WARN: bench_events wall clock %.3fs above the 0.6s target (ceiling 0.72s)\n", cur
    } else {
        printf "bench_events wall clock %.3fs within the 0.6s target\n", cur
    }
}'
if [ -n "$prev_allocs" ] && [ -n "$new_allocs" ]; then
    awk -v prev="$prev_allocs" -v cur="$new_allocs" 'BEGIN {
        printf "run-allocs %d -> %d (%+.1f%%, informational only)\n", prev, cur, (cur - prev) / prev * 100
    }'
else
    echo "WARN: run_allocs missing from the committed baseline (predates the field?); skipping comparison (now ${new_allocs:-unrecorded})"
fi
if [ -n "$prev_events" ]; then
    awk -v prev="$prev_events" -v cur="$new_events" 'BEGIN {
        if (cur > prev * 1.10) {
            printf "FAIL: events-processed regressed %d -> %d (more than 10%%)\n", prev, cur
            exit 1
        }
        printf "events-processed %d -> %d (within the 10%% gate)\n", prev, cur
    }'
else
    echo "WARN: no committed BENCH_events.json baseline; recorded $new_events without gating"
fi

# Observability contract (docs/OBSERVABILITY.md): bench_events reruns the
# same fixed-seed workload fully instrumented (counting trace sink +
# profiler) and records the comparison under "trace". Two hard gates:
# (a) the canonical report of the traced run is byte-identical to the
# untraced one — observation must not perturb the simulation — and (b) the
# traced wall-clock stays within 1.5x of untraced. Both values come from the
# record just written, so these gates are machine-local and need no baseline.
echo "==> observability gate (trace identity + overhead, BENCH_events.json)"
canon_ok=$(grep -o '"canonical_identical": *[a-z]*' BENCH_events.json \
    | grep -o '[a-z]*$' || true)
overhead=$(grep -o '"trace_overhead_ratio": *[0-9.]*' BENCH_events.json \
    | grep -o '[0-9.]*$' || true)
if [ "$canon_ok" != "true" ]; then
    echo "FAIL: traced run's canonical report differs from the untraced run (canonical_identical=${canon_ok:-missing})"
    exit 1
fi
if [ -z "$overhead" ]; then
    echo "FAIL: trace_overhead_ratio missing from BENCH_events.json"
    exit 1
fi
awk -v r="$overhead" 'BEGIN {
    if (r > 1.5) {
        printf "FAIL: traced run %.2fx slower than untraced (ceiling 1.5x)\n", r
        exit 1
    }
    printf "trace identity holds; overhead %.2fx (ceiling 1.5x)\n", r
}'

# Scale trajectory: the fig20 workload (join-only Bullet' swarm on the O(n)
# uniform core) at N = 1000 / 5000 / 10000. Every point records events
# processed, events/sec, wall-clock and the counting-allocator live-heap
# high-water mark (the portable peak-RSS stand-in — no /proc dependency).
# The N=1000 events/sec is GATED: a >10% drop against the committed baseline
# fails CI. The larger Ns stay informational so a single noisy 30 s run
# cannot wedge CI, but they are committed so the trajectory to 10^4 nodes is
# visible. Every point must still run to AllComplete.
echo "==> scale record + regression gate (BENCH_scale.json)"
committed_scale=$(git show HEAD:BENCH_scale.json 2>/dev/null || cat BENCH_scale.json 2>/dev/null || true)
scale_eps() {
    # events_per_sec of the point whose swarm size is $1.
    printf '%s' "$2" | awk -v n="$1" '
        $0 ~ "\"nodes\": " n ",$" { f = 1 }
        f && /"events_per_sec":/ { gsub(/[^0-9.]/, "", $2); print $2; exit }
    '
}
prev_eps=$(scale_eps 1000 "$committed_scale")
./target/release/bench_scale --out BENCH_scale.json
new_eps=$(scale_eps 1000 "$(cat BENCH_scale.json)")
if grep '"stop_reason"' BENCH_scale.json | grep -qv AllComplete; then
    echo "FAIL: a BENCH_scale point did not run to AllComplete"
    grep '"stop_reason"' BENCH_scale.json
    exit 1
fi
if [ -n "$prev_eps" ] && [ -n "$new_eps" ]; then
    awk -v prev="$prev_eps" -v cur="$new_eps" 'BEGIN {
        if (cur < prev * 0.90) {
            printf "FAIL: N=1000 events/sec regressed %.0f -> %.0f (more than 10%%; if this is a machine change, re-baseline deliberately)\n", prev, cur
            exit 1
        }
        printf "N=1000 events/sec %.0f -> %.0f (within the 10%% gate)\n", prev, cur
    }'
else
    echo "WARN: no committed BENCH_scale.json baseline; recorded ${new_eps:-nothing} events/sec at N=1000 without gating"
fi

# Open-system service trajectory: the reduced fixed-seed fig21 offered-load
# sweep (Poisson swarm arrivals over a shared core, netsim::run_service).
# Every point's counters and percentiles are deterministic; the sustained
# goodput at the TOP offered load is GATED — a >10% drop against the
# committed baseline fails CI, so admission-path or steady-state regressions
# cannot land silently. The top-load point is the last one in the record, so
# the extraction takes the last sustained_goodput_bps line.
echo "==> service record + regression gate (BENCH_service.json)"
committed_service=$(git show HEAD:BENCH_service.json 2>/dev/null || cat BENCH_service.json 2>/dev/null || true)
prev_goodput=$(printf '%s' "$committed_service" \
    | grep -o '"sustained_goodput_bps": *[0-9.]*' | grep -o '[0-9.]*$' | tail -n1 || true)
./target/release/bench_service --out BENCH_service.json
new_goodput=$(grep -o '"sustained_goodput_bps": *[0-9.]*' BENCH_service.json \
    | grep -o '[0-9.]*$' | tail -n1)
if [ -n "$prev_goodput" ] && [ -n "$new_goodput" ]; then
    awk -v prev="$prev_goodput" -v cur="$new_goodput" 'BEGIN {
        if (cur < prev * 0.90) {
            printf "FAIL: top-load sustained goodput regressed %.0f -> %.0f bps (more than 10%%)\n", prev, cur
            exit 1
        }
        printf "top-load sustained goodput %.0f -> %.0f bps (within the 10%% gate)\n", prev, cur
    }'
else
    echo "WARN: no committed BENCH_service.json baseline; recorded ${new_goodput:-nothing} bps without gating"
fi

# Parallel-sweep trajectory: `lab bench` runs the same fig05 sweep at 1 and 4
# worker threads, *asserts* the two canonical renderings are byte-identical
# (the determinism-under-parallelism guarantee; per-cell wall-clock telemetry
# is schedule-dependent and excluded), and records wall-clock per thread
# count AND per cell in BENCH_sweep.json. `--snapshot fig05w` additionally
# runs the warm-up-split scenario with prefix sharing on and off; the bench
# itself fails hard on any canonical divergence between forked and fresh
# cells.
echo "==> sweep record (BENCH_sweep.json)"
./target/release/lab bench fig05 --threads 1,4 --seed-count 2 --mb 2 \
    --time-limit 3600 --snapshot fig05w --out BENCH_sweep.json

# Snapshot gate: the record must attest that forked-vs-fresh matched and
# that prefix sharing actually avoided some warm-up simulation time.
grep -q '"canonical_matches_fresh": *true' BENCH_sweep.json || {
    echo "FAIL: BENCH_sweep.json does not attest canonical_matches_fresh=true for the snapshot run"
    exit 1
}
saved=$(grep -o '"warmup_secs_saved": *[0-9.]*' BENCH_sweep.json \
    | grep -o '[0-9.]*$' | tail -n1)
awk -v s="${saved:-0}" 'BEGIN {
    if (s <= 0) {
        printf "FAIL: warm-up sharing saved no time (warmup_secs_saved=%s)\n", s
        exit 1
    }
    printf "warm-up sharing saved %.3fs of warm-up simulation with canonical output unchanged\n", s
}'

# Scaling gate: with the longest-first lock-free executor, 4 workers must
# beat 1 worker by >= 1.5x (target 2x) — but only where the host can
# physically run 4 workers. On narrower hosts the ratio is recorded as
# informational; committing BENCH_sweep.json keeps the trajectory visible
# either way.
sweep_wall() {
    # First run-level wall_clock_secs after the matching "threads" line (the
    # per-cell timings come later inside the cells array).
    awk -v t="$1" '
        /"threads":/ { cur = $2 + 0 }
        /"wall_clock_secs":/ && cur == t && !seen[cur]++ {
            gsub(/[",]/, "", $2); print $2; exit
        }
    ' BENCH_sweep.json
}
wall_t1=$(sweep_wall 1 || true)
wall_t4=$(sweep_wall 4 || true)
cores=$( (nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1) | head -n1)
if [ -n "$wall_t1" ] && [ -n "$wall_t4" ]; then
    if [ "$cores" -ge 4 ]; then
        awk -v w1="$wall_t1" -v w4="$wall_t4" 'BEGIN {
            s = w1 / w4
            if (s < 1.5) {
                printf "FAIL: 4-thread sweep only %.2fx faster than 1 thread (need >= 1.5x on a %d-core-capable host)\n", s, 4
                exit 1
            }
            if (s < 2.0) {
                printf "WARN: 4-thread sweep %.2fx faster than 1 thread (target >= 2x)\n", s
            } else {
                printf "sweep scaling %.2fx (1 thread %.3fs -> 4 threads %.3fs)\n", s, w1, w4
            }
        }'
    else
        awk -v w1="$wall_t1" -v w4="$wall_t4" -v c="$cores" 'BEGIN {
            printf "sweep scaling %.2fx on a %d-core host (1 thread %.3fs -> 4 threads %.3fs; gate needs >= 4 cores)\n", w1 / w4, c, w1, w4
        }'
    fi
else
    echo "WARN: could not read per-thread wall clocks from BENCH_sweep.json; scaling not checked"
fi

# LoC per crate, the series CHANGES.md continues from PR to PR: non-blank,
# non-`//` lines before a file's first `#[cfg(test)]`. "all" counts every
# *.rs under crates/<c>/src (ISSUE 14's rule, which takes a test-only file
# such as netsim's network/tests.rs for production code); "prod" skips the
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

echo "==> CI green"
