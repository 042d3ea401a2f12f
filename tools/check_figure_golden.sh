#!/usr/bin/env bash
# Figure-output pin, run by ctest under the "figures" label.
#
# The figure benches are deterministic (fixed seeds, no wall-clock
# output), so their stdout is a fingerprint of every estimate behind
# the paper's figures. This check runs one bench with its default
# effort and seed and byte-compares the output with the committed
# golden file, printing a unified diff on mismatch. A change that is
# meant to move a figure regenerates the file:
#   build/bench/<bench> > tests/golden/<bench>.txt
#
# Usage: tools/check_figure_golden.sh <bench-binary> <golden-file>
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <bench-binary> <golden-file>" >&2
  exit 2
fi
bench="$1"
golden="$2"

# The environment knobs scale effort and reseed; the golden files
# record the defaults.
unset MQPI_RUNS MQPI_SEED MQPI_CSV

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
if ! "$bench" > "$out"; then
  echo "check_figure_golden: $bench exited non-zero" >&2
  exit 1
fi
if ! diff -u "$golden" "$out"; then
  echo "check_figure_golden: $(basename "$bench") stdout differs from" \
    "$golden" >&2
  exit 1
fi
