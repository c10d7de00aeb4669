#!/bin/sh
# Builds the benchmark runner from source and runs it with the given
# arguments, from the root of a checkout:
#
#   sh perfbench/run.sh --workload corpus --seed 42 --seconds 10 --trace 0
#
# Build output goes to stderr, so the runner's JSON result stays the last
# line of stdout.  The dune cache is disabled so that nothing is written
# outside the checkout.
set -eu

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
