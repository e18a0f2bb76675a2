#!/usr/bin/env bash
# Run every workload, end-to-end then traced, with one seed:
#
#   kvbench/run.sh [seed] [seconds]
#
# Prints each run's table and appends one line per run to
# kvbench/out/results-<seed>.jsonl:
#   {"workload": .., "seed": .., "trace": 0|1, "result": <the run's result line>}
# Two such files compare with
#   cargo run --release --manifest-path kvbench/Cargo.toml -- --compare A.jsonl B.jsonl
set -euo pipefail

seed="${1:-1}"
seconds="${2:-8}"
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out/results-$seed.jsonl"
mkdir -p "$here/out"
: > "$out"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
status=0
for trace in 0 1; do
  for workload in mem_mix cache_read sst_read ingest remote_mix serve_resp; do
    # The run's table goes to the terminal, its last line into the result set.
    result="$(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      | tee /dev/stderr | tail -n 1)" || status=1
    case "$result" in
      '{'*) printf '{"workload": "%s", "seed": %s, "trace": %s, "result": %s}\n' \
              "$workload" "$seed" "$trace" "$result" >> "$out" ;;
      *) echo "kvbench/run.sh: $workload (trace $trace) printed no result" >&2; status=1 ;;
    esac
  done
done
echo "results: $out"
exit "$status"
