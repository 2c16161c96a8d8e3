#!/bin/sh
# The host-speed regression gate: alternating base/head pairs of the
# benchmark on all five workloads, each pair judged by `perf.exe compare`.
#
#   bench/perf-compare.sh BASE_PERF_EXE HEAD_PERF_EXE [OUT_DIR]
#
# BASE_PERF_EXE and HEAD_PERF_EXE are copies of `bench/perf/perf.exe` built
# from the two trees (a copy survives a rebuild; perf.exe re-runs itself per
# rep).  For each of 3 pairs, one seed per pair, the script runs
# `--workload W --seed S --seconds 15 --trace 0` on both sides for
# kv-uniform-miss (the miss path), kv-zipf-hit (the per-access path),
# voltdb-write (the write-miss path: dirty tracking and line shipping),
# integrity-scrub (replicas, verified fetches, leases and scrubbing) and
# rack-heat (the rack: WFQ, the migrator and the rack scheduler), one
# process at a time; the side that goes first alternates from pair to
# pair.  Then it runs the head's `perf.exe compare BASE.json HEAD.json` on
# every pair: one seed per pair holds the modeled metrics to compare's
# same-seed bound.  It exits 1 when some pair has a regressed row (compare
# exits 1) and 2 when a run or a compare fails outright; unresolved rows
# pass.  Results and logs go to OUT_DIR (default perf-compare/).
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 BASE_PERF_EXE HEAD_PERF_EXE [OUT_DIR]" >&2
  exit 2
fi
base=$1
head=$2
out=${3:-perf-compare}
seeds="701 702 703"
workloads="kv-uniform-miss kv-zipf-hit voltdb-write integrity-scrub rack-heat"
mkdir -p "$out"

run() { # side exe workload seed
  echo "perf-compare: $1 $3 seed $4"
  "$2" --workload "$3" --seed "$4" --seconds 15 --trace 0 \
    --out "$out/$1.$3.$4.json" > "$out/$1.$3.$4.log" \
    || { echo "perf-compare: $1 run failed, see $out/$1.$3.$4.log" >&2; exit 2; }
}

start=$(date +%s)
base_first=1
for seed in $seeds; do
  for w in $workloads; do
    if [ $base_first = 1 ]; then
      run base "$base" "$w" "$seed"
      run head "$head" "$w" "$seed"
    else
      run head "$head" "$w" "$seed"
      run base "$base" "$w" "$seed"
    fi
  done
  base_first=$((1 - base_first))
done

status=0
for w in $workloads; do
  for seed in $seeds; do
    echo "== $w, seed $seed"
    rc=0
    "$head" compare "$out/base.$w.$seed.json" "$out/head.$w.$seed.json" || rc=$?
    case $rc in
      0) ;;
      1) status=1 ;;
      *) echo "perf-compare: compare failed (exit $rc)" >&2; exit 2 ;;
    esac
  done
done
echo "perf-compare: $(( $(date +%s) - start )) s, $([ $status = 0 ] && echo 'no regressed row' || echo 'REGRESSED')"
exit $status
