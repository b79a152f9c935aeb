#!/usr/bin/env bash
# Prints one digest line per deterministic simulator bench:
#
#   <bench> <exit code> <sha256 of stdout>
#
# Usage: tools/sim_digests.sh <build-dir>
#
# Runs every bench_* executable in <build-dir> except the two that measure
# wall-clock time (bench_micro_engine, bench_threaded_saturation). The
# simulator is deterministic, so two runs of one build must print identical
# lines, and a refactor that claims to keep behaviour must print the same
# lines as its parent commit. The benches' BENCH_*.json files go to a
# temporary directory that is removed on exit. Exits 1 if any bench exits
# nonzero (after printing every line), 2 on bad usage.

set -u

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build_dir=$1

json_dir=$(mktemp -d)
trap 'rm -rf "$json_dir"' EXIT
export SCADS_BENCH_JSON_DIR=$json_dir

status=0
found=0
for bench in "$build_dir"/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name=$(basename "$bench")
  case "$name" in
    bench_micro_engine | bench_threaded_saturation) continue ;;
  esac
  found=$((found + 1))
  out=$(mktemp)
  "$bench" >"$out" 2>/dev/null
  code=$?
  echo "$name $code $(sha256sum <"$out" | cut -d' ' -f1)"
  rm -f "$out"
  [ "$code" -eq 0 ] || status=1
done

if [ "$found" -eq 0 ]; then
  echo "no bench_* executables in $build_dir" >&2
  exit 2
fi
exit "$status"
