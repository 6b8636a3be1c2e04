#!/usr/bin/env bash
# Runs the four workloads untraced, then traced, on the default seed and on a
# second seed, and collects the result lines in benchmarks/out/results.jsonl:
# one JSON object per run with the workload, seed and trace flag beside the
# fields the driver reads.
#
#   benchmarks/run.sh              # 16 runs, about 8 minutes
#   benchmarks/run.sh 20090601     # one seed only
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seeds=("${@:-20090601 20090602}")
mkdir -p "$here/out"
results="$here/out/results.jsonl"
: > "$results"
for seed in ${seeds[@]}; do
	for trace in 0 1; do
		for workload in snippet_read document_read author_mix bulk_recover; do
			echo "== $workload seed=$seed trace=$trace" >&2
			line="$(bash "$here/bench.sh" --workload "$workload" --seed "$seed" --seconds 16 --trace "$trace" |
				tee /dev/stderr | tail -n 1)"
			printf '{"workload":"%s","seed":%s,"trace":%s,%s\n' "$workload" "$seed" "$trace" "${line#\{}" >> "$results"
		done
	done
done
echo "results in $results" >&2
