#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 15 --trace 0
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi

# keep dune's shared cache out of it: everything stays under _build/
export DUNE_CACHE=disabled
dune build --root . ./perfbench/benchmark.exe 1>&2

if [ -e .git ]; then
  PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  export PERFBENCH_COMMIT
fi
exec ./_build/default/perfbench/benchmark.exe "$@"
