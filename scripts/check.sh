#!/usr/bin/env bash
# check.sh — the repository's lint and static-analysis gate, runnable
# locally exactly as CI runs it.
#
# Usage: scripts/check.sh [section ...]
#
# Sections: gofmt vet staticcheck rstore-vet docs benchmark fuzz. No
# arguments runs the default gate (everything except fuzz, which CI runs
# as a separate smoke because it costs tens of seconds). benchmark covers
# the nested rstore/benchmark module, which `go build ./... && go test
# ./...` at the root skips: it compiles against this module's internal
# packages, so an API drift there is otherwise invisible until the
# benchmark pipeline runs (~10 s, incl. a 1/20-scale smoke of every
# workload). staticcheck is skipped with a
# warning when the binary is not installed — CI installs a pinned version;
# the zero-dependency module itself never requires it.
set -euo pipefail
cd "$(dirname "$0")/.."

run_gofmt() {
  echo "== gofmt"
  out=$(gofmt -l .)
  if [ -n "$out" ]; then
    echo "gofmt needed on:"
    echo "$out"
    return 1
  fi
}

run_vet() {
  echo "== go vet"
  go vet ./...
}

run_staticcheck() {
  echo "== staticcheck"
  if ! command -v staticcheck >/dev/null 2>&1; then
    echo "staticcheck not installed; skipping (CI installs it)"
    return 0
  fi
  staticcheck ./...
}

run_rstore_vet() {
  echo "== rstore-vet"
  tool="$(mktemp -d)/rstore-vet"
  go build -o "$tool" ./cmd/rstore-vet
  go vet -vettool="$tool" ./...
}

run_docs() {
  echo "== docs"
  ./scripts/check-docs.sh
}

run_benchmark() {
  echo "== benchmark module"
  (
    cd benchmark
    out=$(gofmt -l .)
    if [ -n "$out" ]; then
      echo "gofmt needed on:"
      echo "$out"
      exit 1
    fi
    go vet ./...
    go test ./...
  )
}

run_fuzz() {
  echo "== fuzz smoke"
  go test -fuzz=FuzzReadFrame -fuzztime=10s -run '^$' ./internal/engine/remote/wire/
  go test -fuzz=FuzzHashTreeFrame -fuzztime=10s -run '^$' ./internal/engine/remote/wire/
  go test -fuzz=FuzzHashRangeFrame -fuzztime=10s -run '^$' ./internal/engine/remote/wire/
  go test -fuzz=FuzzUnenvelope -fuzztime=10s -run '^$' ./internal/kvstore/
}

sections=("$@")
if [ ${#sections[@]} -eq 0 ]; then
  sections=(gofmt vet staticcheck rstore-vet docs benchmark)
fi
for s in "${sections[@]}"; do
  case "$s" in
  gofmt) run_gofmt ;;
  vet) run_vet ;;
  staticcheck) run_staticcheck ;;
  rstore-vet) run_rstore_vet ;;
  docs) run_docs ;;
  benchmark) run_benchmark ;;
  fuzz) run_fuzz ;;
  *)
    echo "unknown section: $s (known: gofmt vet staticcheck rstore-vet docs benchmark fuzz)"
    exit 2
    ;;
  esac
done
echo "ok"
