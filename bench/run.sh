#!/usr/bin/env bash
# The one command: builds bench/ from source and runs it with the given
# flags from the repository root. Binary, Go build cache and temporary
# files all live in .bench_build/ at the root, so nothing is written
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
(cd "$root/bench" && go build -o "$build/cebench" .)
cd "$root"
exec "$build/cebench" "$@"
