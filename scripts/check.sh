#!/usr/bin/env bash
# check.sh — the repository's lint and static-analysis gate, runnable
# locally exactly as CI runs it.
#
# Usage: scripts/check.sh [section ...]
#
# Sections: gofmt vet staticcheck rstore-vet docs benchmark daemons fuzz,
# and compare <base-ref>. No arguments runs the default gate (everything
# except daemons, fuzz and compare: daemons starts processes on fixed
# loopback ports 17420-17422 and 18099, fuzz costs tens of seconds, and
# compare costs minutes and needs a ref). daemons smokes the shipped
# binaries on their defaults: three rstore-node (lsm) and an rstore-server
# over them at rf 2, a commit and a read through HTTP, a SIGTERM of
# everything, a restart that must read the same records, and the rstore
# CLI's init/commit/get on its default data directory. benchmark covers
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

run_daemons() {
  echo "== daemons"
  (
    work=$(mktemp -d)
    pids=()
    stop() {
      for p in "${pids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
      for p in "${pids[@]}"; do wait "$p" 2>/dev/null || true; done
      pids=()
    }
    trap 'stop; rm -rf "$work"' EXIT
    go build -o "$work/bin/" ./cmd/rstore-node ./cmd/rstore-server ./cmd/rstore
    addrs=127.0.0.1:17420,127.0.0.1:17421,127.0.0.1:17422
    server=http://127.0.0.1:18099
    wait_for() { # wait_for <what> <command...>: retry for 10 s
      what=$1
      shift
      for _ in $(seq 100); do
        if "$@" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
      done
      echo "daemons: timed out waiting for $what"
      cat "$work"/*.log
      return 1
    }
    start() {
      for i in 0 1 2; do
        "$work/bin/rstore-node" -addr "127.0.0.1:$((17420 + i))" -data "$work/node$i" >>"$work/node$i.log" 2>&1 &
        pids+=($!)
      done
      for i in 0 1 2; do
        wait_for "rstore-node $i" grep -q "rstore-node serving" "$work/node$i.log"
      done
      "$work/bin/rstore-server" -addr 127.0.0.1:18099 -backend remote -rf 2 -node-addrs "$addrs" >>"$work/server.log" 2>&1 &
      pids+=($!)
      wait_for rstore-server curl -sf "$server/stats"
    }
    records() { curl -sf "$server/version/main" | grep '"record"' | sort; }

    start
    for i in 0 1 2; do
      if ! head -n1 "$work/node$i/MANIFEST" | grep -q '^rstore-lsm '; then
        echo "daemons: rstore-node $i on its defaults wrote no lsm MANIFEST"
        ls -l "$work/node$i"
        exit 1
      fi
    done
    v=$(curl -sf -X POST -d '{"parent":-1,"puts":{"doc":"'"$(printf '{"x":1}' | base64)"'"},"branch":"main"}' "$server/commit" | jq .version)
    curl -sf -X POST -d '{"parent":'"$v"',"puts":{"doc2":"'"$(printf 'two' | base64)"'"},"branch":"main"}' "$server/commit" >/dev/null
    before=$(records)
    if [ "$(echo "$before" | wc -l)" -ne 2 ]; then
      echo "daemons: /version/main read $before, want two records"
      exit 1
    fi
    stop
    start
    grep -q "reopened 2 versions" "$work/server.log"
    after=$(records)
    if [ "$before" != "$after" ]; then
      echo "daemons: /version/main changed across a restart:"
      echo "$before"
      echo "$after"
      exit 1
    fi
    stop

    mkdir "$work/cli"
    cd "$work/cli"
    "$work/bin/rstore" init
    "$work/bin/rstore" commit -put 'doc={"x":1}'
    got=$("$work/bin/rstore" get -key doc -branch main)
    if [ "$got" != '{"x":1}' ] || [ ! -f .rstore/node-0/MANIFEST ]; then
      echo "daemons: the CLI's default store read $got"
      exit 1
    fi
  )
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
  daemons) run_daemons ;;
  fuzz) run_fuzz ;;
  compare)
    shift
    run_compare "${1:?compare needs a base ref: scripts/check.sh compare <base-ref>}"
    ;;
  *)
    echo "unknown section: $1 (known: gofmt vet staticcheck rstore-vet docs benchmark daemons fuzz compare)"
    exit 2
    ;;
  esac
  shift
done
echo "ok"
