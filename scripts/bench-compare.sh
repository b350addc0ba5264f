#!/usr/bin/env bash
# Compares the end-to-end benchmark of the working tree with a base
# commit. Run from anywhere inside a checkout:
#
#   bash scripts/bench-compare.sh [PAIRS] [BASE] [WORKLOADS]
#
# The base side is a git worktree of BASE (default HEAD) under
# .bench_build/base; the change side is the working tree. Each of PAIRS
# (default 10, at least 3) pairs runs `bash benchmark/run.sh --seconds
# 15` once per side with seed 1..PAIRS, alternating which side goes
# first, over WORKLOADS (one workload name, or all, the default). After
# the pairs it runs `benchmark -compare` from the root of the checkout,
# then one `--trace 1` pass of the working tree per selected workload.
# The run files and their printed reports land in .bench_build/compare/.
# The script exits non-zero when the comparison fails or when any run,
# traced or not, is not correct (it prints that run's failures), and
# removes the worktree.
set -euo pipefail

pairs=${1:-10}
base=${2:-HEAD}
workloads=${3:-all}

# One run per side has no spread, so one noisy sample would read as a
# regression; the quartiles the comparison needs take three.
if ! [[ "$pairs" =~ ^[0-9]+$ ]] || ((pairs < 3)); then
	echo "bench-compare: PAIRS must be a number of at least 3, got '$pairs'" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
out=.bench_build/compare
wt=.bench_build/base
mkdir -p "$out"
rm -f "$out"/*.json "$out"/*.txt
if [ -e "$wt" ]; then
	git worktree remove --force "$wt"
fi
git worktree add --detach "$wt" "$base" >/dev/null
trap 'git worktree remove --force "$wt"' EXIT

# run SIDE DIR SEED: one benchmark run of the checkout at DIR.
run() {
	echo "bench-compare: $1 seed $3" >&2
	(cd "$2" && bash benchmark/run.sh --workload "$workloads" --seed "$3" --seconds 15 \
		-out "$root/$out/$1-$3.json" >"$root/$out/$1-$3.txt")
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
status=0
.bench_build/benchmark -compare "$old" "$new" || status=$?

# A traced run replays its ops on a plain and on a decorated system and is
# not correct when their answers or layer counters differ, which no
# untraced run shows. Each workload runs in a process of its own.
if [ "$workloads" = all ]; then
	names=$(sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
else
	names=$workloads
fi
for w in $names; do
	echo "bench-compare: change $w --trace 1" >&2
	bash benchmark/run.sh --workload "$w" --seed 1 --seconds 15 --trace 1 \
		-out "$out/trace-$w.json" >"$out/trace-$w.txt"
done

for f in $(grep -l '"correct": false' "$out"/*.json || true); do
	echo "bench-compare: $f is not correct:" >&2
	grep -h 'FAILURE:' "${f%.json}.txt" >&2 || true
	status=1
done
exit "$status"
