#!/usr/bin/env bash
# Compares the end-to-end benchmark of the working tree with a base
# commit. Run from anywhere inside a checkout:
#
#   bash scripts/bench-compare.sh [PAIRS] [BASE] [WORKLOADS]
#
# The base side is a git worktree of BASE (default HEAD) under
# .bench_build/base; the change side is the working tree. Each of PAIRS
# (default 10) pairs runs `bash benchmark/run.sh --seconds 15` once per
# side with seed 1..PAIRS, alternating which side goes first, over
# WORKLOADS (one workload name, or all, the default). The run files land
# in .bench_build/compare/. The script ends with `benchmark -compare`
# from the root of the checkout, exits with its status, and removes the
# worktree.
set -euo pipefail

pairs=${1:-10}
base=${2:-HEAD}
workloads=${3:-all}

root=$(git rev-parse --show-toplevel)
cd "$root"
out=.bench_build/compare
wt=.bench_build/base
mkdir -p "$out"
rm -f "$out"/*.json
if [ -e "$wt" ]; then
	git worktree remove --force "$wt"
fi
git worktree add --detach "$wt" "$base" >/dev/null
trap 'git worktree remove --force "$wt"' EXIT

# run SIDE DIR SEED: one benchmark run of the checkout at DIR.
run() {
	echo "bench-compare: $1 seed $3" >&2
	(cd "$2" && bash benchmark/run.sh --workload "$workloads" --seed "$3" --seconds 15 \
		-out "$root/$out/$1-$3.json" >/dev/null)
}

old="" new=""
for seed in $(seq 1 "$pairs"); do
	if ((seed % 2)); then
		run base "$wt" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run base "$wt" "$seed"
	fi
	old+="${old:+,}$out/base-$seed.json"
	new+="${new:+,}$out/change-$seed.json"
done
.bench_build/benchmark -compare "$old" "$new"
