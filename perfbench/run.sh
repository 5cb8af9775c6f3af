#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload.
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 12 --trace 0
# Run from the repository root.  The last stdout line is the JSON result.
set -euo pipefail
dune build --root . ./bin/entropydb_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe \
  --daemon ./_build/default/bin/entropydb_cli.exe "$@"
