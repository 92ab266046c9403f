#!/bin/sh
# Render `--help=plain` for m2c and every subcommand it lists; fail if a
# page does not render or cmdliner reports an error in its doc markup.
# Usage: help_check.sh PATH/TO/m2c.exe
m2c=$1
top=$("$m2c" --help=plain 2>&1) || { echo "m2c --help failed"; exit 1; }
cmds=$(printf '%s\n' "$top" | sed -n '/^COMMANDS/,/^[A-Z]/s/^       \([a-z][a-z-]*\) .*/\1/p')
[ -n "$cmds" ] || { echo "m2c --help lists no commands"; exit 1; }
status=0
for cmd in "" $cmds; do
  out=$("$m2c" $cmd --help=plain 2>&1) || { echo "m2c $cmd --help exited nonzero"; status=1; }
  case $out in
    *"cmdliner error"*) echo "m2c $cmd --help: $out" | head -3; status=1 ;;
  esac
done
exit $status
