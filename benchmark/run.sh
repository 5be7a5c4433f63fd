#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source (the
# go tool caches the binary) and runs it with the caller's arguments, from
# this directory so the nested module resolves.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
exec go run . "$@"
