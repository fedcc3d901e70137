#!/bin/sh
# One-command local CI: build → test → clippy gate → scenario sweep → bench smoke.
#
#   scripts/ci.sh           # 10-seed smokes (a few minutes)
#   scripts/ci.sh --soak    # full 200-seed fault sweeps (tens of minutes)
#
# Chains the tier-1 verification (scripts/check.sh, which builds, runs
# every test suite, the clippy and rustdoc gates, and the benchmark
# package's fast tests) with the benchmark's one-window smoke
# test, a big-N convergence smoke (the 200-seed soak narrowed to 10
# seeds at 64 proxies, every fault class on), the adversarial scenario
# suite at the same scale (pinned ruler regressions plus the
# false-hit-storm / peer-churn fault sweep), and a short benchmark
# smoke run (SC_BENCH_MS=25 per case) that proves the hotpath,
# scaleout, and scenario bench harnesses still run end-to-end without
# paying the full measurement budget, and that their deterministic
# rows match the committed files. Everything is offline.
set -eu

cd "$(dirname "$0")/.."

SWEEP_SEEDS="${SC_SIM_SEEDS:-10}"
for arg in "$@"; do
    case "$arg" in
    --soak) SWEEP_SEEDS=200 ;;
    *)
        echo "usage: scripts/ci.sh [--soak]" >&2
        exit 2
        ;;
    esac
done

scripts/check.sh

echo "==> benchmark/ one-window smoke"
cargo test --release -q --offline --manifest-path benchmark/Cargo.toml --test smoke

echo "==> big-N smoke (SC_SIM_PEERS=64, ${SWEEP_SEEDS} seeds)"
SC_SIM_PEERS=64 SC_SIM_SEEDS="$SWEEP_SEEDS" \
    cargo test -q --offline --test simnet_properties seeded_soak

echo "==> scenario suite (SC_SIM_PEERS=64, ${SWEEP_SEEDS}-seed fault sweep)"
SC_SIM_PEERS=64 SC_SIM_SEEDS="$SWEEP_SEEDS" \
    cargo test -q --offline --test scenario_properties

echo "==> bench smoke (SC_BENCH_MS=${SC_BENCH_MS:-25})"
# The committed row is the baseline the request-path gate compares
# against. The smoke writes to a scratch dir, so the tracked files
# stay exactly as committed.
row_of() {
    awk -F': ' -v row="\"$1\"" 'index($1, row) { gsub(/,/, "", $2); print $2 }' "$2" 2>/dev/null
}
BASE_NSPR="$(row_of e2e/ns-per-request BENCH_hotpath.json || true)"
BASE_MD5="$(row_of md5/url-digest BENCH_hotpath.json || true)"
SMOKE_OUT="$(mktemp -d)"
SC_BENCH_OUT="$SMOKE_OUT" SC_BENCH_MS="${SC_BENCH_MS:-25}" scripts/bench.sh

# The scaleout rows and every scenario row but the wall-clock
# ns-per-request are simnet counts: the smoke must reproduce the
# committed files exactly, or the protocol changed.
echo "==> deterministic bench rows match the committed files"
drift=""
cmp "$SMOKE_OUT/BENCH_scaleout.json" BENCH_scaleout.json || drift=yes
counts() { grep -v '/ns-per-request"' "$1"; }
counts BENCH_scenarios.json > "$SMOKE_OUT/scenarios.committed"
counts "$SMOKE_OUT/BENCH_scenarios.json" > "$SMOKE_OUT/scenarios.smoke"
diff "$SMOKE_OUT/scenarios.committed" "$SMOKE_OUT/scenarios.smoke" || drift=yes
rm -rf "$SMOKE_OUT"
if [ -n "$drift" ]; then
    echo "ci: a deterministic bench row differs from the committed file" >&2
    exit 1
fi

# Hot-path regression gate: the end-to-end request cost may not
# regress more than 20% over the committed row. The smoke window is
# too short to find a scheduler-quiet run, so the gate re-measures the
# hotpath bench with its own window (SC_GATE_MS, default 300 ms) and
# retries up to three times — a real regression fails every attempt,
# a busy-box blip passes a later one. Each attempt also prints the same
# run's md5/url-digest row next to the committed one; it decides nothing,
# but when host load slows the run, both rows slow together.
if [ -n "$BASE_NSPR" ]; then
    GATE_MS="${SC_GATE_MS:-300}"
    GATE_JSON="$(mktemp)"
    attempt=1
    passed=""
    while [ "$attempt" -le 3 ]; do
        SC_BENCH_JSON="$GATE_JSON" SC_BENCH_MS="$GATE_MS" \
            cargo bench --offline -q -p sc-bench --bench hotpath >/dev/null
        NEW_NSPR="$(row_of e2e/ns-per-request "$GATE_JSON" || true)"
        NEW_MD5="$(row_of md5/url-digest "$GATE_JSON" || true)"
        echo "==> hotpath gate (attempt ${attempt}): e2e/ns-per-request ${NEW_NSPR} vs committed ${BASE_NSPR} (limit +20%)"
        echo "    same run, for host load: md5/url-digest ${NEW_MD5} vs committed ${BASE_MD5}"
        if [ -n "$NEW_NSPR" ] &&
            awk -v new="$NEW_NSPR" -v base="$BASE_NSPR" 'BEGIN { exit !(new <= base * 1.2) }'; then
            passed=yes
            break
        fi
        attempt=$((attempt + 1))
    done
    rm -f "$GATE_JSON"
    if [ -z "$passed" ]; then
        echo "ci: e2e/ns-per-request regressed >20% (${NEW_NSPR} ns vs ${BASE_NSPR} ns committed)" >&2
        exit 1
    fi
fi

echo "==> ci passed"
