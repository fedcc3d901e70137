#!/usr/bin/env bash
# Run the whole benchmark <k> times on this checkout and show how steady
# every end-to-end metric is.
#
#   benchmark/repeat.sh <k> [first-seed] [vary|same] [seconds]
#
# `vary` (the default) gives run i the seed first-seed + i, as the
# acceptance procedure does; `same` repeats first-seed. For each workload
# and metric it prints min / median / max and the spread - the distance
# between the first and third quartile as a share of the median, Python's
# statistics.quantiles(values, n=4) - against the metric's bound in
# BENCHMARK.json. It exits non-zero when a run fails or a spread exceeds
# its bound (setup_s is shown but not gated: its spread is not part of the
# contract). When a spread is too wide, fix the measurement - more or
# longer windows - not the bound.
set -euo pipefail

k=${1:?usage: benchmark/repeat.sh <k> [first-seed] [vary|same] [seconds]}
first=${2:-1}
mode=${3:-vary}
root=$(cd "$(dirname "$0")/.." && pwd)
seconds=${4:-$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}
mkdir -p "$root/benchmark/out"
out=$(mktemp -d "$root/benchmark/out/repeat.XXXXXX")
echo "every run's output is kept in $out" >&2

cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

for w in $(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- list); do
  for i in $(seq 0 $((k - 1))); do
    seed=$([ "$mode" = same ] && echo "$first" || echo $((first + i)))
    echo "run $((i + 1))/$k  $w  seed $seed" >&2
    log="$out/$w.$seed.$i.txt"
    # A failed run still prints its result line (correct: false); only a
    # run that died without one gets a stand-in, so it is counted once.
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$log" || echo "FAILED: $w seed $seed, see $log" >&2
    if tail -n 1 "$log" | grep -q '^{"correct"'; then
      tail -n 1 "$log" >>"$out/$w.jsonl"
    else
      echo '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}' >>"$out/$w.jsonl"
    fi
  done
done

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import json, statistics, sys, pathlib

spec = json.load(open(sys.argv[1]))
bad = False
for w in spec["workloads"]:
    runs = [json.loads(l) for l in pathlib.Path(sys.argv[2], w["name"] + ".jsonl").read_text().splitlines()]
    wrong = [r for r in runs if not r["correct"] or r["failed"]]
    print(f"\n{w['name']}: {len(runs)} runs, {len(wrong)} incorrect")
    bad |= bool(wrong)
    print(f"  {'metric':<20}{'min':>12}{'median':>12}{'max':>12}{'spread':>9}{'bound':>7}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
        if len(values) < 2:
            print(f"  {m['name']:<20} too few values")
            bad = True
            continue
        q = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q[2] - q[0]) / median if median else float("inf")
        gated = m["name"] != "setup_s"
        over = gated and spread > m["bound"]
        bad |= over
        flag = "  OVER" if over else ("" if gated else "  (not gated)")
        print(f"  {m['name']:<20}{min(values):>12.4g}{median:>12.4g}{max(values):>12.4g}"
              f"{spread:>9.3f}{m['bound']:>7.2f}{flag}")
sys.exit(1 if bad else 0)
EOF
