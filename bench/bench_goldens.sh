#!/bin/sh
# Checks every golden the bench harness and the DES's event log pin,
# byte for byte:
#   - bench/virtual_time.expected: the DES renders of Tables 1-2 and
#     Figs. 4 and 7;
#   - bench/profile_synth1_p4.expected.json and
#     bench/trace_synth1_p4.expected.json: the profile and the Chrome
#     trace of suite program 1 on 4 simulated processors, both read
#     back from the DES's event log;
#   - bench/<name>.expected.json: the BENCH_<name>.json artifact of each
#     bench experiment that writes one, run in its reduced
#     configuration.
#
#   sh bench/bench_goldens.sh BENCH M2C [--update]
#
# BENCH is the bench/main.exe executable and M2C the bin/m2c.exe one.
# Run it from the repository root: the zoo experiment reads corpus/,
# and every output is written into the current directory.  An
# experiment's own checks gate the run (a failure prints FAIL: and
# stops the script); then each output must equal its golden, so a field
# that differs between runs, or moves with a change to the compiler,
# fails here.  With --update the outputs are copied over the goldens
# instead.
set -eu
bench=$1
m2c=$2
update=${3:-}
goldens=$(dirname "$0")
status=0
# check OUTPUT GOLDEN: compare OUTPUT with bench/GOLDEN, or install it
check() {
  if [ "$update" = --update ]; then
    cp "$1" "$goldens/$2"
  elif ! cmp "$goldens/$2" "$1"; then
    status=1
  fi
}
"$bench" table1 table2 fig4 fig7 > virtual_time.out
check virtual_time.out virtual_time.expected
"$m2c" profile --synth 1 --procs 4 --json profile_synth1.json
check profile_synth1.json profile_synth1_p4.expected.json
"$m2c" compile --synth 1 --procs 4 --trace-json trace_synth1.json
check trace_synth1.json trace_synth1_p4.expected.json
# experiment, BENCH_SAMPLE, artifacts
for run in "speedup 6 speedup critpath" "conformance 10 conformance" "incr-fine 3 incr" \
  "serve 2 serve" "farm 2 farm" "trace 2 trace" "zoo 2 zoo"; do
  set -- $run
  BENCH_SAMPLE=$2 "$bench" "$1"
  shift 2
  for a in "$@"; do
    check "BENCH_$a.json" "$a.expected.json"
  done
done
exit $status
