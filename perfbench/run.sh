#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
# Usage: bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
set -euo pipefail
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
