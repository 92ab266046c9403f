#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments, from the root of a checkout:
#
#   bash benchmark/run.sh --workload suite-compile --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error, so the last line of standard
# output is the benchmark's JSON result.  Fails without a result when
# the checkout cannot be built.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
