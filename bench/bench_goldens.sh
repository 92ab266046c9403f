#!/bin/sh
# Runs the bench experiments whose JSON artifacts are pinned, each in
# its reduced configuration, and compares every artifact with its
# committed golden bench/<name>.expected.json.
#
#   sh bench/bench_goldens.sh BENCH [--update]
#
# BENCH is the bench/main.exe executable.  Run it from the repository
# root: the zoo experiment reads corpus/, and each experiment writes its
# BENCH_<name>.json into the current directory.  An experiment's own
# checks gate the run (a failure prints FAIL: and stops the script);
# then each artifact must equal its golden byte for byte, so a field
# that differs between runs, or moves with a change to the compiler,
# fails here.  With --update the artifacts are copied over the goldens
# instead.
set -eu
bench=$1
update=${2:-}
goldens=$(dirname "$0")
status=0
# experiment, BENCH_SAMPLE, artifacts
for run in "speedup 6 speedup critpath" "conformance 10 conformance" "incr-fine 3 incr" \
  "serve 2 serve" "farm 2 farm" "trace 2 trace" "zoo 2 zoo"; do
  set -- $run
  BENCH_SAMPLE=$2 "$bench" "$1"
  shift 2
  for a in "$@"; do
    if [ "$update" = --update ]; then
      cp "BENCH_$a.json" "$goldens/$a.expected.json"
    elif ! cmp "$goldens/$a.expected.json" "BENCH_$a.json"; then
      status=1
    fi
  done
done
exit $status
