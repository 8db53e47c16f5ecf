#!/bin/sh
# Build relpipe and the benchmark from source, then run one workload.
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Everything the build and the run write
# (objects, daemon socket, transcripts, traces, compiler temporaries)
# stays under .bench_build/.
set -eu
build=.bench_build
mkdir -p "$build/tmp"
TMPDIR="$(pwd)/$build/tmp"
XDG_CACHE_HOME="$(pwd)/$build/cache"
export TMPDIR XDG_CACHE_HOME
if ! dune build --root . --build-dir "$build" --profile release \
  --cache=disabled perfbench/main.exe bin/relpipe_cli.exe \
  >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "perfbench: build failed" >&2
  exit 2
fi
exec "$build/default/perfbench/main.exe" \
  --relpipe "$build/default/bin/relpipe_cli.exe" "$@"
