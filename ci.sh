#!/usr/bin/env bash
# The repo's CI gate. Local runs and hosted CI execute this same script,
# so "passes ci.sh" and "passes CI" are the same statement.
#
#   ./ci.sh quick     fmt → clippy → rustdoc (-D warnings, so a dangling
#                     intra-doc link fails) → build → test
#                     (CIM_THREADS=1), plus the perfbench self-check
#                     (the BENCHMARK.json benchmark still builds and
#                     runs every workload briefly), the small-sample
#                     analytic_check (two-tier agreement, single-device
#                     and fleet), the SLO alerting smoke (healthy
#                     silent, overload pages), and the three
#                     fleet_smoke scenarios: failover (zero loss at
#                     200k requests), powerloss (crash
#                     recovery at 100k requests) and adversarial
#                     (armed-fleet attack campaign, zero cross-tenant
#                     reads at 100k requests). The fast inner-loop
#                     gate; hosted CI runs it on every push and pull
#                     request.
#   ./ci.sh           The full gate: quick plus the CIM_THREADS=4 test
#   ./ci.sh full      pass (both test passes run the serving,
#                     fleet-failover and power-loss soak tests), example
#                     smokes (quickstart, and secure_pipeline, whose
#                     asserts cover the NoC's ciphertext on the wire,
#                     its tamper rejection and its isolation boundary),
#                     the one-million-request failover soak, the
#                     chaos campaigns (clean sweep, 4-device fleet
#                     sweep, power-loss sweep and the adversarial fleet
#                     sweep, each gated on full action-kind coverage,
#                     plus three weakened-invariant replay
#                     self-checks), the wide-sample analytic_check seed
#                     sweep, and the bench-regression comparison
#                     against the committed BENCH_*.json baselines (with
#                     the ≥10× analytic serving speedup floor). Hosted
#                     CI runs it on pushes to main.
#   ./ci.sh baseline  Regenerates BENCH_*.json from this machine and
#                     overwrites the committed baselines. Run it (and
#                     commit the result) when a deliberate change moves
#                     wall-clock medians past the ±30% host-scaled
#                     tolerance, or when switching baseline hardware.
#
# Failure artifacts (fresh bench JSONL, analytic disagreement lines,
# shrunk chaos reproducers, action-kind coverage histograms) land in
# target/ci-artifacts/ so hosted CI can upload them. Per-step wall-clock
# timings are printed as a sorted table at exit and written to
# target/ci-artifacts/ci_timing.txt on every run, pass or fail.
#
# The workspace is hermetic: zero registry dependencies, so every step
# runs with --offline and succeeds from a clean checkout with no crates.io
# access. Keep it that way — see README.md "CI and the zero-dependency policy".
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"
case "$MODE" in
    quick|full|baseline) ;;
    *) echo "usage: ./ci.sh [quick|full|baseline]" >&2; exit 2 ;;
esac

# Failure artifacts accumulate here; target/ is cached between hosted
# runs, so start clean or a stale disagreement file would be re-uploaded.
ART="target/ci-artifacts"
rm -rf "$ART"
mkdir -p "$ART"

# --------------------------------------------------------- step timing
# Every step's wall-clock is recorded; the exit trap prints a
# slowest-first table and writes it to $ART/ci_timing.txt so a slow
# gate names its own bottleneck.
STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""
STEP_START=0

step_finish() {
    if [ -n "$CURRENT_STEP" ]; then
        STEP_NAMES+=("$CURRENT_STEP")
        STEP_SECS+=("$((SECONDS - STEP_START))")
        CURRENT_STEP=""
    fi
}

step() {
    step_finish
    CURRENT_STEP="$1"
    STEP_START=$SECONDS
    printf '\n== %s\n' "$1"
}

SCRATCH=""
finish() {
    step_finish
    if [ "${#STEP_NAMES[@]}" -gt 0 ]; then
        mkdir -p "$ART"
        {
            printf '\n== step timing (wall-clock, slowest first)\n'
            printf '%8s  %s\n' "seconds" "step"
            for i in "${!STEP_NAMES[@]}"; do
                printf '%8d  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
            done | sort -rn -k1,1
        } | tee "$ART/ci_timing.txt"
    fi
    [ -n "$SCRATCH" ] && rm -rf "$SCRATCH"
    return 0
}
trap finish EXIT

# ---------------------------------------------------------------- quick
step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo doc (-D warnings)"
# Docs link across crates; a renamed or deleted item leaves a dangling
# intra-doc link that only rustdoc sees.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "cargo build --release --offline"
cargo build --workspace --release --offline

step "cargo test -q --offline (CIM_THREADS=1)"
CIM_THREADS=1 cargo test --workspace -q --offline

step "perfbench self-check: the declared benchmark builds and runs"
# perfbench is a package of its own (see BENCHMARK.json) that builds
# against the library crates by path, so the workspace build and test
# steps above never compile it. Its self-check runs every workload
# briefly, untraced and traced, so a library change that breaks the
# benchmark fails here instead of at the next measurement.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

step "analytic_check: two-tier agreement, small sample"
# The analytic fast path must agree with the DES within the declared
# bounds (latency ±10%, energy ±5%, throughput ordering preserved);
# disagreements land in the artifact dir for upload.
cargo run --release --offline -p cim-bench --bin analytic_check -- \
    --sample small --out "$ART/analytic_disagreements.jsonl"

step "slo_smoke: healthy point silent, overload pages"
# Alerting polarity of the observability pipeline: a healthy serving
# point must fire zero SLO alerts, overload must fire a page.
cargo run --release --offline -p cim-bench --bin slo_smoke -- --requests 300

step "fleet_smoke failover: whole-device failover, zero loss (200k requests)"
# The fleet resilience gates at quick scale: a mid-stream device outage
# voids and re-routes without loss or double execution, and the fleet
# out-serves the cluster baseline on the identical workload. The full
# gate reruns this at the one-million-request soak scale.
cargo run --release --offline -p cim-bench --bin fleet_smoke -- failover --requests 200000

step "fleet_smoke powerloss: crash recovery, detectable-recovery contract (100k requests)"
# Every engineered outage window becomes a power-loss crash: the device
# loses its volatile state and rejoins through the nonvolatile restore.
# Zero loss, exact accounting, pristine restores, double-run determinism.
cargo run --release --offline -p cim-bench --bin fleet_smoke -- powerloss --requests 100000

step "fleet_smoke adversarial: armed fleet, zero cross-tenant reads (100k requests)"
# Every device carries a fenced adversary tile firing one of every
# attack archetype (forged token, stale replay, cross-partition scan,
# hostile self-prog, hostile dataflow). Every probe must be blocked,
# nothing leaks, innocent goodput is untouched, and the leak-control
# run proves the detector is not vacuous.
cargo run --release --offline -p cim-bench --bin fleet_smoke -- adversarial --requests 100000

if [ "$MODE" = quick ]; then
    printf '\n== ci.sh quick: all gates passed\n'
    exit 0
fi

# ----------------------------------------------------------- full extras
# The suite runs a second time multi-threaded. The determinism contract
# (see DESIGN.md "Host-parallel execution") says both passes must see
# bit-identical modeled numbers, so any thread-count sensitivity fails
# here rather than on a user's machine.
step "cargo test -q --offline (CIM_THREADS=4)"
CIM_THREADS=4 cargo test --workspace -q --offline

step "smoke-run examples/quickstart.rs"
cargo run --release --offline --example quickstart

step "smoke-run examples/secure_pipeline.rs"
# The example asserts what the detailed NoC walk's cipher, tamper and
# isolation steps must do: ciphertext on the wire, a tampered packet
# rejected, and a cross-tenant packet blocked until the domains are
# allowed. `cargo test` only builds examples, so this is where they run.
cargo run --release --offline --example secure_pipeline

step "telemetry smoke: quickstart --telemetry + schema check"
SCRATCH="$(mktemp -d -t cim-ci-XXXXXX)"
cargo run --release --offline --example quickstart -- --telemetry "$SCRATCH/telemetry.jsonl"
# Every line must parse as JSON with component/metric/value keys; the
# checker is in-tree (no external JSON tooling, per the hermetic policy).
cargo run --release --offline -p cim-bench --bin telemetry_check -- "$SCRATCH/telemetry.jsonl"

step "observability artifacts: series/alert/profile export + folded stacks"
# The overload artifact run must export all three observability record
# families (CI fails if an exporter silently drops one) and the
# flamegraph/utilization artifacts land in target/ci-artifacts for
# upload.
cargo run --release --offline -p cim-bench --bin slo_smoke -- \
    --requests 300 --artifacts "$ART"
cargo run --release --offline -p cim-bench --bin telemetry_check -- \
    "$ART/serving_obs.jsonl" --require-kinds series,alert,profile
[ -s "$ART/serving_time.folded" ]
[ -s "$ART/serving_energy.folded" ]
[ -s "$ART/serving_utilization.txt" ]

step "fleet_smoke failover: one-million-request failover soak"
# The tentpole acceptance at full scale: zero loss and exact failover
# accounting across four devices under the two-outage campaign.
cargo run --release --offline -p cim-bench --bin fleet_smoke -- failover

# Chaos campaign outputs — shrunk reproducers and action-kind coverage
# histograms — land in $ART so a red gate uploads its own evidence.
# Every campaign runs with --require-full-coverage: a green sweep must
# prove it exercised every action kind its config enables, not just the
# seeds that happened to fit the budget. Seed counts are sized to spend
# about 10-20 % of each budget on a 2-core host (4096 single-device
# seeds ≈18 s, 3072 fleet or power-loss seeds ≈15 s, 5120 adversarial
# seeds ≈35 s), so the budget is a safety cap, not the sweep size.
step "chaos campaign: 4096-seed sweep must be clean, full kind coverage"
# Fixed root seed, budgeted for CI. Any invariant violation writes a
# shrunk replay file and fails the gate.
cargo run --release --offline -p cim-chaos --bin chaos_campaign -- \
    --seeds 4096 --budget-ms 120000 --out "$ART/chaos_repro.jsonl" \
    --require-full-coverage --coverage-out "$ART/chaos_coverage.txt"

step "chaos campaign: fleet mode (4 devices, 3072 seeds) must be clean, full kind coverage"
# The same invariants plus the fleet-only no-double-execution check,
# with whole-device outages in the generated action mix.
cargo run --release --offline -p cim-chaos --bin chaos_campaign -- \
    --seeds 3072 --fleet-devices 4 --budget-ms 120000 \
    --out "$ART/chaos_fleet_repro.jsonl" \
    --require-full-coverage --coverage-out "$ART/chaos_fleet_coverage.txt"

step "chaos campaign: power-loss fleet mode (3072 seeds) must be clean, full kind coverage"
# Crashes join the fleet action mix; every schedule containing one is
# held to the detectable-recovery contract (crash_conservation,
# crash_no_double_execution, crash_determinism).
cargo run --release --offline -p cim-chaos --bin chaos_campaign -- \
    --seeds 3072 --fleet-devices 4 --power-loss --budget-ms 120000 \
    --out "$ART/chaos_powerloss_repro.jsonl" \
    --require-full-coverage --coverage-out "$ART/chaos_powerloss_coverage.txt"

step "chaos campaign: adversarial fleet mode (5120 seeds) must be clean, full kind coverage"
# The full grammar: isolation attacks (forged/replayed tokens,
# cross-partition scans, hostile programs) join crashes and outages in
# the fleet action mix. Every device boots with an armed adversary tile
# and every run is held to the containment contract
# (iso_no_cross_tenant_read, iso_bounded_blast_radius, iso_innocent_qos).
cargo run --release --offline -p cim-chaos --bin chaos_campaign -- \
    --seeds 5120 --fleet-devices 4 --power-loss --adversarial --budget-ms 240000 \
    --out "$ART/chaos_adversarial_repro.jsonl" \
    --require-full-coverage --coverage-out "$ART/chaos_adversarial_coverage.txt"

# Weakened-invariant self-checks: each row sabotages one invariant. The
# campaign must detect it and shrink it to a reproducer that names the
# invariant it tripped, and the replay must reproduce the exact same
# violation fingerprint at both thread settings.
#   recovery_bound_zero   the recovery bound forced to zero
#   skip_volatile_clear   a power-loss restart keeps stale volatile state
#   leak_cross_partition  the NoC domain check reports but does not block
SELF_CHECKS=(
    "recovery_bound_zero  recovery_bound            weakened_repro.jsonl      --seeds 64"
    "skip_volatile_clear  crash_no_double_execution dirty_restore_repro.jsonl --seeds 32 --power-loss"
    "leak_cross_partition iso_no_cross_tenant_read  leak_repro.jsonl          --seeds 32 --adversarial"
)
for row in "${SELF_CHECKS[@]}"; do
    read -r weaken invariant repro flags <<<"$row"
    step "chaos self-check: --weaken $weaken must trip $invariant and replay bit-identically"
    # $flags is deliberately unquoted: it holds several campaign flags.
    # shellcheck disable=SC2086
    if cargo run --release --offline -p cim-chaos --bin chaos_campaign -- \
        $flags --weaken "$weaken" --out "$ART/$repro"; then
        echo "FAIL: --weaken $weaken was not detected" >&2
        exit 1
    fi
    if ! grep -q "\"invariant\":\"$invariant\"" "$ART/$repro"; then
        echo "FAIL: $repro does not name invariant $invariant" >&2
        exit 1
    fi
    for threads in 1 4; do
        CIM_THREADS=$threads cargo run --release --offline -p cim-chaos --bin chaos_replay -- \
            "$ART/$repro"
    done
done

step "analytic_check: two-tier agreement, wide sample + seed sweep"
cargo run --release --offline -p cim-bench --bin analytic_check -- \
    --sample wide --seeds 3 --out "$ART/analytic_disagreements.jsonl"

# ------------------------------------------------------------- benches
# Fresh bench runs land in target/ci-artifacts (uploaded by hosted CI on
# failure); `full` compares them against the committed baselines (median
# wall-clock within ±30% after host-speed calibration, modeled
# throughput exact), `baseline` overwrites the committed files.
step "bench: serial vs parallel batch throughput"
BENCH_SAMPLES=10 BENCH_WARMUP_MS=20 \
    cargo bench --offline -p cim-bench --bench parallel | tee "$ART/BENCH_parallel.json"
cargo run --release --offline -p cim-bench --bin bench_compare -- \
    --validate "$ART/BENCH_parallel.json" \
    --expect parallel/matvec_batch64_t1 --expect parallel/matvec_batch64_t4

step "bench: serving front-end throughput"
BENCH_SAMPLES=10 BENCH_WARMUP_MS=20 \
    cargo bench --offline -p cim-bench --bench serving | tee "$ART/BENCH_serving.json"
cargo run --release --offline -p cim-bench --bin bench_compare -- \
    --validate "$ART/BENCH_serving.json" \
    --expect serving/open_loop_light_100k --expect serving/open_loop_overload_3200k \
    --expect serving/boot_standard_mix

step "bench: two-tier serving wall-clock"
BENCH_SAMPLES=10 BENCH_WARMUP_MS=20 \
    cargo bench --offline -p cim-bench --bench analytic | tee "$ART/BENCH_analytic.json"
cargo run --release --offline -p cim-bench --bin bench_compare -- \
    --validate "$ART/BENCH_analytic.json" \
    --expect analytic/serving_detailed --expect analytic/serving_analytic

step "bench: fleet router tier wall-clock"
BENCH_SAMPLES=10 BENCH_WARMUP_MS=20 \
    cargo bench --offline -p cim-bench --bench fleet | tee "$ART/BENCH_fleet.json"
cargo run --release --offline -p cim-bench --bin bench_compare -- \
    --validate "$ART/BENCH_fleet.json" \
    --expect fleet/failover_analytic_4dev --expect fleet/cluster_replay_4dev

step "analytic speedup: detailed/analytic median ratio must stay >= 10x"
# Both records are in the file just validated; the ratio is the tier's
# whole reason to exist, so a collapse below 10x fails the gate.
awk '
    /"bench":"analytic\/serving_detailed"/ {
        split($0, a, "\"median_ns\":"); split(a[2], b, ","); det = b[1]
    }
    /"bench":"analytic\/serving_analytic"/ {
        split($0, a, "\"median_ns\":"); split(a[2], b, ","); ana = b[1]
    }
    END {
        if (ana + 0 <= 0 || det + 0 <= 0) {
            print "FAIL: missing analytic bench medians" > "/dev/stderr"; exit 1
        }
        ratio = det / ana
        printf "analytic serving speedup: %.1fx (detailed %.3f ms, analytic %.3f ms)\n", \
            ratio, det / 1e6, ana / 1e6
        if (ratio < 10) {
            printf "FAIL: analytic speedup %.1fx is below the 10x floor\n", ratio > "/dev/stderr"
            exit 1
        }
    }
' "$ART/BENCH_analytic.json"

if [ "$MODE" = baseline ]; then
    cp "$ART/BENCH_parallel.json" BENCH_parallel.json
    cp "$ART/BENCH_serving.json" BENCH_serving.json
    cp "$ART/BENCH_analytic.json" BENCH_analytic.json
    cp "$ART/BENCH_fleet.json" BENCH_fleet.json
    printf '\n== ci.sh baseline: BENCH_parallel.json, BENCH_serving.json, BENCH_analytic.json and BENCH_fleet.json regenerated — commit them\n'
    exit 0
fi

step "bench regression: fresh medians vs committed baselines"
# Every file is compared and its verdict printed before the step fails,
# so one red file does not hide the verdicts of the files after it.
BENCH_FAILED=()
for f in BENCH_parallel.json BENCH_serving.json BENCH_analytic.json BENCH_fleet.json; do
    if ! cargo run --release --offline -p cim-bench --bin bench_compare -- \
        --baseline "$f" --fresh "$ART/$f"; then
        BENCH_FAILED+=("$f")
    fi
done
if [ "${#BENCH_FAILED[@]}" -gt 0 ]; then
    printf 'FAIL: bench regression in %s\n' "${BENCH_FAILED[*]}" >&2
    exit 1
fi

printf '\n== ci.sh: all gates passed\n'
