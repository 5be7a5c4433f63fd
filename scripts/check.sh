#!/usr/bin/env bash
# check.sh — the repository's lint and static-analysis gate, runnable
# locally exactly as CI runs it.
#
# Usage: scripts/check.sh [section ...]
#
# Sections: gofmt vet staticcheck rstore-vet docs benchmark fuzz, and
# compare <base-ref>. No arguments runs the default gate (everything except
# fuzz, which CI runs as a separate smoke because it costs tens of seconds,
# and compare, which costs minutes and needs a ref). benchmark covers
# the nested rstore/benchmark module, which `go build ./... && go test
# ./...` at the root skips: it compiles against this module's internal
# packages, so an API drift there is otherwise invisible until the
# benchmark pipeline runs (~10 s, incl. a 1/20-scale smoke of every
# workload). compare checks the working tree against <base-ref> on the
# gated metrics of BENCHMARK.json: the base is checked out into a temporary
# git worktree, every workload runs three times per side, alternating which
# side goes first, and `benchmark/run.sh --compare` is the verdict (~6 min).
# Runs are 8 s windows: ingest commits a fixed 54 times per second of
# --seconds and refuses a run that gives a class too few samples (300
# commits, 20 batch closings), which rules out anything under 6.
# staticcheck is skipped with a
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

run_compare() {
  base_ref=$1
  echo "== benchmark compare against $base_ref"
  work=$(mktemp -d)
  trap 'git worktree remove --force "$work/base" 2>/dev/null; rm -rf "$work"' EXIT
  git worktree add --detach "$work/base" "$base_ref"
  workloads=$(sed -n '/"workloads"/,/^  \]/p' BENCHMARK.json | sed -n 's/.*"name": "\([^"]*\)".*/\1/p')
  for w in $workloads; do
    for i in 1 2 3; do
      sides="base head"
      if [ $((i % 2)) -eq 0 ]; then sides="head base"; fi
      for side in $sides; do
        root=.
        if [ "$side" = base ]; then root=$work/base; fi
        bash "$root/benchmark/run.sh" --workload "$w" --seed "$i" --seconds 8 --trace 0 --out "$work/$side.ndjson"
      done
    done
  done
  bash benchmark/run.sh --compare "$work/base.ndjson" "$work/head.ndjson"
}

run_fuzz() {
  echo "== fuzz smoke"
  go test -fuzz=FuzzReadFrame -fuzztime=10s -run '^$' ./internal/engine/remote/wire/
  go test -fuzz=FuzzMessages -fuzztime=20s -run '^$' ./internal/engine/remote/wire/
  go test -fuzz=FuzzScanFrames -fuzztime=10s -run '^$' ./internal/engine/reclog/
  go test -fuzz=FuzzManifest -fuzztime=10s -run '^$' ./internal/engine/lsm/
  go test -fuzz=FuzzUnenvelope -fuzztime=10s -run '^$' ./internal/kvstore/
  go test -fuzz=FuzzVerdict -fuzztime=10s -run '^$' ./internal/kvstore/
  go test -fuzz=FuzzApplyPlacement -fuzztime=10s -run '^$' ./internal/core/
  go test -fuzz=FuzzDecodeDeltaEntry -fuzztime=10s -run '^$' ./internal/core/
  go test -fuzz=FuzzDecodeDelta -fuzztime=10s -run '^$' ./internal/codec/
  go test -fuzz=FuzzDecodeSegment -fuzztime=10s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzDecodeMap -fuzztime=10s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzValueRuns -fuzztime=10s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzPackedLiterals -fuzztime=10s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzDecodeGroup -fuzztime=10s -run '^$' ./internal/baseline/
}

if [ $# -eq 0 ]; then
  set -- gofmt vet staticcheck rstore-vet docs benchmark
fi
while [ $# -gt 0 ]; do
  case "$1" in
  gofmt) run_gofmt ;;
  vet) run_vet ;;
  staticcheck) run_staticcheck ;;
  rstore-vet) run_rstore_vet ;;
  docs) run_docs ;;
  benchmark) run_benchmark ;;
  fuzz) run_fuzz ;;
  compare)
    shift
    run_compare "${1:?compare needs a base ref: scripts/check.sh compare <base-ref>}"
    ;;
  *)
    echo "unknown section: $1 (known: gofmt vet staticcheck rstore-vet docs benchmark fuzz compare)"
    exit 2
    ;;
  esac
  shift
done
echo "ok"
