#!/bin/sh
# Build the end-to-end benchmark from source, then run it with the
# given arguments. Run from the root of a checkout:
#   sh e2ebench/run.sh --workload sync-paper --seed 1 --seconds 20 --trace 0
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --build-dir .bench_build --display quiet ./e2ebench/main.exe 1>&2
exec ./.bench_build/default/e2ebench/main.exe "$@"
