#!/bin/sh
# Replays every corpus scenario's prepared interface edits through
# `m2c build --explain-rebuild` and prints each build's report.
#
#   sh bench/explain_rebuild.sh M2C [CORPUS]
#
# M2C is the m2c executable, CORPUS the scenario directory (default
# corpus).  Per scenario with `<Iface>.def.<variant>` files: one cold
# build into a fresh cache, then, in name order, one build per variant
# against that cache, each variant overlaid on the unedited scenario
# (as `m2c zoo`'s incremental oracle does).  A build that fails (an
# edit can make a module ill-typed) prints its exit status after its
# report.  The output is deterministic; CI compares it with
# bench/explain_rebuild.expected.
set -eu
m2c=$1
corpus=${2:-corpus}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
build() {
  (cd "$tmp/src" && "$m2c" build --cache="$tmp/cache" --explain-rebuild "$main.mod") ||
    echo "(build failed: exit $?)"
}
for d in "$corpus"/*/; do
  s=$(basename "$d")
  variants=$(cd "$d" && ls | grep '\.def\.' || true)
  [ -n "$variants" ] || continue
  main=$(sed -n 's/^main:[[:space:]]*//p' "$d/manifest")
  [ -n "$main" ] || { echo "error: $s: variants need a main: line in its manifest" >&2; exit 1; }
  rm -rf "$tmp/src" "$tmp/cache"
  mkdir "$tmp/src"
  cp "$d"*.def "$d"*.mod "$tmp/src/"
  echo "== $s: cold"
  build
  for v in $variants; do
    target=${v%.def.*}.def
    cp "$d$target" "$tmp/src/$target.orig"
    cp "$d$v" "$tmp/src/$target"
    echo "== $s: $v"
    build
    mv "$tmp/src/$target.orig" "$tmp/src/$target"
  done
done
