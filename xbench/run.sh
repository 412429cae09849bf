#!/usr/bin/env bash
# Build xbound and the benchmark from source, then run the benchmark.
#
#   bash xbench/run.sh --workload cli-suite|static-suite|serve-mix \
#                      --seed N --seconds S --trace 0|1
#   bash xbench/run.sh --selftest
#
# Run from the repository root. Build output goes to _build/, run
# scratch, Chrome traces and result records to .xbench/.
set -euo pipefail

if [[ ! -f dune-project || ! -f bin/dune || ! -f xbench/dune ]]; then
  echo "xbench: run from the root of an xbound checkout" >&2
  exit 2
fi

command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
# Keep dune's shared cache out of it: everything is built in the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/xbound_cli.exe ./xbench/xbench.exe >&2

XBENCH_COMMIT=unknown
if [[ -e .git ]]; then XBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown); fi
export XBENCH_COMMIT
# Not exec: the benchmark reads its children's peak RSS, and must not
# inherit dune's.
_build/default/xbench/xbench.exe --xbound _build/default/bin/xbound_cli.exe "$@"
