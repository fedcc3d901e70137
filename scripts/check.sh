#!/bin/sh
# Tier-1 verification: build, test, run the sc-check and rustdoc gates,
# then build and test the benchmark package.
#
# Everything runs offline — the workspace has zero registry
# dependencies (sc-check's `deps` rule enforces exactly that), so no
# step here ever touches the network.
#
#   scripts/check.sh            # from the workspace root
#   scripts/check.sh --soak     # + simnet property suite over an
#                               #   extended seed range (SC_SIM_SEEDS,
#                               #   default 1000; SC_SIM_SEED replays
#                               #   one seed)
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
# tests, the proxy's integration pins and sc-check's own gate tests.
echo "==> cargo test -q"
cargo test -q --offline

# Bench targets are built by nothing else (`cargo build` skips them and
# ci.sh only runs three), so compile every one of them here.
echo "==> cargo build --release -p sc-bench --benches"
cargo build --release --offline -p sc-bench --benches

echo "==> sc-check (static-analysis gate)"
cargo run -p sc-check --offline --quiet

# Doc links are checked too: a deleted item must not leave a dangling
# intra-doc link behind.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

# The benchmark package (its own workspace and lock file) compiles
# against public paths in crates/*; build it so a rename fails here.
echo "==> benchmark/ build + determinism, list, replay_vs_live"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release -q --offline --manifest-path benchmark/Cargo.toml \
    --test determinism --test list --test replay_vs_live

if [ "$SOAK" = 1 ]; then
    SC_SIM_SEEDS="${SC_SIM_SEEDS:-1000}"
    export SC_SIM_SEEDS
    echo "==> seeded soak (simnet property suite, $SC_SIM_SEEDS seeds)"
    cargo test -q --offline --test simnet_properties seeded_soak -- --nocapture
fi

echo "==> all checks passed"
