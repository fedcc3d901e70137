#!/bin/sh
# Tier-1 verification: build, test, run the clippy and rustdoc gates,
# then build and test the benchmark package.
#
# Everything runs offline — the workspace has zero registry
# dependencies (the `deps` rule in tests/source_rules.rs enforces
# exactly that), so no step here ever touches the network.
#
#   scripts/check.sh            # from the workspace root
#   scripts/check.sh --soak     # + simnet property suite and scenario
#                               #   fault sweep over an extended seed
#                               #   range (SC_SIM_SEEDS, default 1000;
#                               #   SC_SIM_SEED replays one seed), + the
#                               #   live daemon suites 10 times each
#
set -eu

SOAK=0
for arg in "$@"; do
    case "$arg" in
        --soak) SOAK=1 ;;
        *) echo "usage: scripts/check.sh [--soak]" >&2; exit 2 ;;
    esac
done

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

# `default-members` covers the whole workspace: every crate's unit
# tests, the proxy's integration pins, the root clippy gate
# (tests/gate.rs), and the `locks` and `deps` source rules
# (tests/source_rules.rs).
echo "==> cargo test -q"
cargo test -q --offline

# Bench targets are built by nothing else (`cargo build` skips them and
# ci.sh only runs three), so compile every one of them here.
echo "==> cargo build --release -p sc-bench --benches"
cargo build --release --offline -p sc-bench --benches

# The architecture gate: crates/clippy.toml bans clocks, sleeps and
# sockets outside the socket shells; sc-proxy and sc-wire deny
# unwrap/expect outside tests. Warm, this step takes well under a second.
echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline --quiet -- -D warnings

# Run the in-process examples: quickstart asserts its publish and probe
# results, the other two must run to completion. proxy_cluster opens
# live sockets and stays out. Warm, the three take about 0.3 s.
echo "==> examples: quickstart, bloom_tuning, cache_sharing_sim"
for example in quickstart bloom_tuning cache_sharing_sim; do
    cargo run --release --offline --quiet --example "$example" > /dev/null
done

# Doc links are checked too: a deleted item must not leave a dangling
# intra-doc link behind.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

# The benchmark package (its own workspace and lock file) compiles
# against public paths in crates/*; build it so a rename fails here.
# `--locked`: a changed dependency edge between the crates would
# rewrite benchmark/Cargo.lock, which is frozen, so it fails here.
echo "==> benchmark/ build + determinism, list, replay_vs_live"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --release -q --offline --locked --manifest-path benchmark/Cargo.toml \
    --test determinism --test list --test replay_vs_live

if [ "$SOAK" = 1 ]; then
    SC_SIM_SEEDS="${SC_SIM_SEEDS:-1000}"
    export SC_SIM_SEEDS
    echo "==> seeded soak (simnet property suite, $SC_SIM_SEEDS seeds)"
    cargo test -q --offline --test simnet_properties seeded_soak -- --nocapture

    # The scenario driver counts its report in place; sweep false-hit
    # storm and peer churn over the same seeds under the full fault plan.
    echo "==> scenario fault sweep ($SC_SIM_SEEDS seeds)"
    cargo test -q --offline --test scenario_properties scenario_fault_sweep -- --nocapture

    # Request threads queue directory changes to the daemon's protocol
    # thread, so an ordering race between them shows up as a flake, not
    # as a steady failure: repeat the live suites.
    echo "==> live daemon suites, 10 runs each"
    for run in 1 2 3 4 5 6 7 8 9 10; do
        echo "    run $run/10"
        cargo test -q --offline -p summary-cache \
            --test live_cluster --test failure_recovery --test observability
    done
fi

echo "==> all checks passed"
