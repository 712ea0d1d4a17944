#!/usr/bin/env bash
# Build the benchmark from source and run it.  Run from the repository root:
#   bash perfbench/run.sh --workload paper-nassc --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the benchmark's result is the last line of
# standard output.
set -euo pipefail
cd "$(dirname "$0")/.."
# the shared dune cache lives outside the checkout; keep the build inside it
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
