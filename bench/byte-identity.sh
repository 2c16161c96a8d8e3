#!/bin/sh
# The byte-identity check for a change meant to keep behaviour: run the
# same fixed recipe on two builds and `cmp` everything it writes.
#
#   bench/byte-identity.sh A_BUILD B_BUILD [DIR]
#
# A_BUILD and B_BUILD are `_build/default` trees with `bin/konactl.exe` and
# `bench/main.exe` built (say, a build of the parent commit and one of the
# change).  Each side runs in its own directory, DIR/a and DIR/b (default
# DIR: byte-identity/), one command at a time:
#
#   - `konactl run` on kv-uniform over the four systems, and on Kona alone
#     with a fault plan of every kind armed at create (a crash, two link
#     flaps, a partition and all seven probabilistic kinds) under
#     replicas, verified fetches and scrubbing; `konactl stats` on kv-zipf;
#   - four `konactl rack` specs: a three-tenant heat rack with shm-RPC
#     calls, the add/drain/rebalance calendar, positional partition, flap
#     and torn-write faults, and a leased two-tenant rack with a timed
#     crash, link flap and partition;
#   - `konactl soak` and `konactl fuzz`;
#   - `bench/main.exe --quick system faults integrity recovery ablate fig7
#     fig8` and `--quick rack placement shmrpc`, each in its own
#     directory.
#
# Every command's stdout, stderr and exit code are kept, with every JSON it
# writes.  Before comparing, the bench's `done in` lines (host time) and
# the artifacts' `commit` stamp are dropped.  The script exits 0 when every
# file is `cmp`-equal, 1 when some differ (it lists them) and 2 on a usage
# error.  perf.exe's digests are not here: `dune runtest` compares them.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 A_BUILD B_BUILD [DIR]" >&2
  exit 2
fi
out=${3:-byte-identity}
for build in "$1" "$2"; do
  for exe in bin/konactl.exe bench/main.exe; do
    [ -x "$build/$exe" ] || { echo "byte-identity: no $build/$exe" >&2; exit 2; }
  done
done

step() { # NAME CMD ARGS...: stdout, stderr and exit code to NAME.{out,err,rc}
  name=$1
  shift
  rc=0
  "$@" > "$name.out" 2> "$name.err" || rc=$?
  echo "$rc" > "$name.rc"
}

recipe() { # SIDE BUILD
  dir="$out/$1"
  rm -rf "$dir"
  mkdir -p "$dir/bench" "$dir/bench-rack"
  build=$(cd "$2" && pwd)
  k="$build/bin/konactl.exe"
  b="$build/bench/main.exe"
  start=$(date +%s)
  (
    cd "$dir"
    step run "$k" run -w kv-uniform --system kona,kona-vm,legoos,infiniswap \
      --seed 7 --metrics-json run.json
    step faults "$k" run -w kv-uniform --system kona --replicas 1 \
      --verify-checksums --scrub-interval 200000 --fault-seed 7 \
      --fault-spec 'node-crash@2ms:id=1;link-flap@1ms:dur=50us;link-flap@3ms:dur=20us;partition@4ms:dur=200us,nodes=0;rpc-timeout:p=0.5;wqe-drop:p=0.05;wqe-delay:p=0.05,ns=2us;bit-flip:p=0.3;torn-write:p=0.3;stale-read:p=0.05;dup-deliver:p=0.3' \
      --metrics-json faults.json
    step stats "$k" stats -w kv-zipf --system kona --seed 3
    step rack "$k" rack \
      'setup:tenants=3,nodes=3,replicas=0,fmem=1024,scrub=0ns,verify=0,workloads=kv-zipf|kv-uniform|voltdb,policy=heat,slowns=2us,writers=2,seg=64,segops=256;run:n=1000000000;shmrpc:calls=64' \
      --metrics-json rack.json
    step rackops "$k" rack \
      'setup:tenants=2,nodes=3,fmem=64,scrub=0ns,verify=0,workloads=kv-zipf|kv-uniform,policy=heat,slowns=2us,seg=64,segops=256;add@2ms:cap=16777216;drain@4ms:id=1;rebalance@6ms' \
      --repro-check --metrics-json rackops.json
    step positional "$k" rack \
      'setup:tenants=2,cap=33554432,fmem=64;partition:dur=2ms,nodes=1;flap:dur=2ms;torn-write:p=0.2' \
      --repro-check --metrics-json positional.json
    step timed "$k" rack \
      'setup:tenants=2,nodes=3,replicas=1,fmem=64,hb=10us,lease=50us,workloads=kv-zipf|kv-uniform,seg=64,segops=256;node-crash@2ms:id=1;link-flap@1ms:dur=100us;partition@3ms:dur=300us,nodes=2;run:n=1000000000' \
      --repro-check --metrics-json timed.json
    step soak "$k" soak --episodes 3 --ops 10 --seed 7 --metrics-json soak.json
    step fuzz "$k" fuzz --episodes 8 --ops 10 --seed 7 --metrics-json fuzz.json
  )
  (
    cd "$dir/bench"
    step bench "$b" --quick system faults integrity recovery ablate fig7 fig8
  )
  (
    cd "$dir/bench-rack"
    step bench-rack "$b" --quick rack placement shmrpc
  )
  echo "byte-identity: $1 ($2) took $(( $(date +%s) - start )) s"
}

normalize() { # FILE: drop host-time lines and the provenance stamp
  sed -e '/^done in /d' -e 's/"commit": *"[^"]*"/"commit": ""/g' "$1"
}

recipe a "$1"
recipe b "$2"

differ=0
files=$( (cd "$out/a" && find . -type f; cd "$out/b" && find . -type f) | sort -u)
for f in $files; do
  if [ ! -f "$out/a/$f" ] || [ ! -f "$out/b/$f" ]; then
    echo "byte-identity: only one side wrote $f"
    differ=1
  elif ! normalize "$out/a/$f" > "$out/a.cmp" || ! normalize "$out/b/$f" > "$out/b.cmp" \
    || ! cmp -s "$out/a.cmp" "$out/b.cmp"; then
    echo "byte-identity: $f differs"
    differ=1
  fi
done
rm -f "$out/a.cmp" "$out/b.cmp"
count=$(echo "$files" | wc -l)
if [ $differ = 0 ]; then
  echo "byte-identity: all $count files cmp-equal"
else
  echo "byte-identity: DIFFERENT (see $out/a and $out/b)"
fi
exit $differ
