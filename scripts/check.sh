#!/usr/bin/env bash
# check.sh — the repository's lint and static-analysis gate, runnable
# locally exactly as CI runs it.
#
# Usage: scripts/check.sh [section ...]
#
# Sections: gofmt vet staticcheck rstore-vet docs ci-names benchmark examples
# daemons fuzz, and compare <base-ref>. No arguments runs the default gate
# (everything except daemons, fuzz and compare: daemons starts processes on
# fixed loopback ports 17420-17422, 17430-17432, 18099 and 18100, fuzz costs tens of seconds, and
# compare costs minutes and needs a ref). ci-names fails when a test
# selector of CI or of this script names nothing: each alternative of a go
# test run, bench or fuzz pattern in .github/workflows/ci.yml and here must
# match some func Test, Benchmark or Fuzz in the repository, or the step
# it belongs to quietly runs less than it says. daemons smokes the shipped
# binaries on their defaults: three rstore-node (lsm), an rstore log of them
# while fresh that must say "run init first" and pin nothing, an
# rstore-server over them at rf 2, a commit and a read through HTTP, a
# fetch of each daemon's /debug/pprof/ from its -debug-addr, a SIGTERM of
# everything, a restart at rf 1 that must be refused and one at rf 2 that
# must read the same records, an lsm server at two nodes whose restart at
# three must be refused, and the rstore CLI's init/commit/get on its
# default data directory. benchmark covers
# the nested rstore/benchmark module, which `go build ./... && go test
# ./...` at the root skips: it compiles against this module's internal
# packages, so an API drift there is otherwise invisible until the
# benchmark pipeline runs (~10 s, incl. a 1/20-scale smoke of every
# workload). examples runs every examples/* program, each about a second,
# and fails on a non-zero exit (the build alone does not run them); a
# failing program's output is printed. compare checks the working tree
# against <base-ref> on the gated metrics of BENCHMARK.json: the base is
# checked out into a temporary git worktree, every workload runs three
# times per side, alternating which side goes first, and
# `benchmark/run.sh --compare` is the verdict (~6 min).
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

run_ci_names() {
  echo "== ci-names"
  names=$(grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]+' . | cut -d' ' -f2 | sort -u)
  flag=$'(^|[[:space:]])-(run|bench|fuzz)[= ](\'[^\']*\'|"[^"]*"|[^[:space:]\'"]+)'
  status=0
  for f in .github/workflows/ci.yml scripts/check.sh; do
    while IFS= read -r pattern; do
      IFS='|' read -ra alts <<<"$pattern"
      for alt in "${alts[@]}"; do
        alt=${alt%%/*} # a subtest selector: its top-level part
        case "$alt" in '' | '^$') continue ;; esac
        if ! grep -qE -- "$alt" <<<"$names"; then
          echo "$f: test selector '$alt' (of '$pattern') matches no test, benchmark or fuzz target"
          status=1
        fi
      done
    done < <(grep -vE '^[[:space:]]*#' "$f" | grep -oE -- "$flag" | sed -E $'s/^[[:space:]]*-(run|bench|fuzz)[= ]//; s/^[\'"]//; s/[\'"]$//')
  done
  return $status
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

run_examples() {
  echo "== examples"
  bin=$(mktemp -d)
  go build -o "$bin/" ./examples/...
  status=0
  for dir in examples/*/; do
    name=$(basename "$dir")
    if ! "$bin/$name" >"$bin/$name.out" 2>&1; then
      echo "examples: $name failed:"
      cat "$bin/$name.out"
      status=1
    fi
  done
  rm -rf "$bin"
  return $status
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
    start_nodes() {
      for i in 0 1 2; do
        "$work/bin/rstore-node" -addr "127.0.0.1:$((17420 + i))" -debug-addr "127.0.0.1:$((17430 + i))" -data "$work/node$i" >>"$work/node$i.log" 2>&1 &
        pids+=($!)
      done
      for i in 0 1 2; do
        wait_for "rstore-node $i" grep -q "rstore-node serving" "$work/node$i.log"
      done
    }
    start_server() { # start_server <rstore-server flags...>
      "$work/bin/rstore-server" -addr 127.0.0.1:18099 -debug-addr 127.0.0.1:18100 "$@" >>"$work/server.log" 2>&1 &
      pids+=($!)
      wait_for rstore-server curl -sf "$server/stats"
    }
    refused() { # refused <want> <rstore-server flags...>: the server must exit non-zero saying want
      want=$1
      shift
      if "$work/bin/rstore-server" -addr 127.0.0.1:18099 "$@" >"$work/refused.out" 2>&1; then
        echo "daemons: rstore-server $* started, want a refusal"
        exit 1
      fi
      if ! grep -q "$want" "$work/refused.out"; then
        echo "daemons: rstore-server $* failed without \"$want\":"
        cat "$work/refused.out"
        exit 1
      fi
    }
    records() { curl -sf "$server/version/main" | grep '"record"' | sort; }

    start_nodes
    # A read of the fresh daemons finds no store and pins nothing on them:
    # the rf-2 server after it initializes the cluster.
    if "$work/bin/rstore" -backend remote -rf 1 -node-addrs "$addrs" log >"$work/fresh.out" 2>&1; then
      echo "daemons: rstore log on fresh daemons succeeded, want \"run init first\""
      exit 1
    fi
    if ! grep -q "run init first" "$work/fresh.out"; then
      echo "daemons: rstore log on fresh daemons failed without \"run init first\":"
      cat "$work/fresh.out"
      exit 1
    fi
    start_server -backend remote -rf 2 -node-addrs "$addrs"
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
    # Every daemon serves net/http/pprof on its -debug-addr.
    for debug in 127.0.0.1:17430 127.0.0.1:17431 127.0.0.1:17432 127.0.0.1:18100; do
      if ! curl -sf "http://$debug/debug/pprof/" | grep -q goroutine; then
        echo "daemons: no pprof index on -debug-addr $debug"
        exit 1
      fi
    done
    # The CLI's read commands beside the live server open the cluster
    # read-only: they answer from the server's acknowledged commits and
    # delete nothing, which the restart below reads back.
    cli=("$work/bin/rstore" -backend remote -rf 2 -node-addrs "$addrs")
    got=$("${cli[@]}" get -key doc -branch main)
    if [ "$got" != '{"x":1}' ]; then
      echo "daemons: rstore get beside the server read $got"
      exit 1
    fi
    log=$("${cli[@]}" log)
    if [ "$(echo "$log" | grep -c '^version ')" -ne 2 ] || ! echo "$log" | grep -q '^version 1 .*<- main$'; then
      echo "daemons: rstore log beside the server printed:"
      echo "$log"
      exit 1
    fi
    stop
    start_nodes
    # The daemons are pinned at rf 2: a server at another rf is refused, and
    # the correct restart still serves both records.
    refused "cluster is pinned at replication factor 2 but was opened with 1" -backend remote -rf 1 -node-addrs "$addrs"
    start_server -backend remote -rf 2 -node-addrs "$addrs"
    grep -q "reopened 2 versions" "$work/server.log"
    after=$(records)
    if [ "$before" != "$after" ]; then
      echo "daemons: /version/main changed across a restart:"
      echo "$before"
      echo "$after"
      exit 1
    fi
    stop

    # An lsm data directory carries the same pin: opened at two nodes, it
    # refuses a restart at three.
    start_server -backend lsm -nodes 2 -data "$work/lsm.d"
    stop
    refused "reordered or resized" -backend lsm -nodes 3 -data "$work/lsm.d"

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

# Each run bounds the minimization of a new input to 1 s: at the default
# of 60 s an input found early stalls a 10-20 s run at 0 execs/s.
run_fuzz() {
  echo "== fuzz smoke"
  go test -fuzz=FuzzReadFrame -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/engine/remote/wire/
  go test -fuzz=FuzzMessages -fuzztime=20s -fuzzminimizetime=1s -run '^$' ./internal/engine/remote/wire/
  go test -fuzz=FuzzScanFrames -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/engine/reclog/
  go test -fuzz=FuzzManifest -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/engine/lsm/
  go test -fuzz=FuzzOpenSSTable -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/engine/lsm/
  go test -fuzz=FuzzUnenvelope -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/kvstore/
  go test -fuzz=FuzzVerdict -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/kvstore/
  go test -fuzz=FuzzApplyPlacement -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/core/
  go test -fuzz=FuzzDecodeDeltaEntry -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/core/
  go test -fuzz=FuzzDecodeDelta -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/codec/
  go test -fuzz=FuzzDeltaLen -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/codec/
  go test -fuzz=FuzzCommitBody -fuzztime=20s -fuzzminimizetime=1s -run '^$' ./internal/server/
  go test -fuzz=FuzzDecodeSegment -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzDecodeMap -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzValueRuns -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzPackedLiterals -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzSegmentRoundTrip -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/chunk/
  go test -fuzz=FuzzDecodeGroup -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/baseline/
  go test -fuzz=FuzzBottomUp -fuzztime=10s -fuzzminimizetime=1s -run '^$' ./internal/partition/
}

if [ $# -eq 0 ]; then
  set -- gofmt vet staticcheck rstore-vet docs ci-names benchmark examples
fi
while [ $# -gt 0 ]; do
  case "$1" in
  gofmt) run_gofmt ;;
  vet) run_vet ;;
  staticcheck) run_staticcheck ;;
  rstore-vet) run_rstore_vet ;;
  docs) run_docs ;;
  ci-names) run_ci_names ;;
  benchmark) run_benchmark ;;
  examples) run_examples ;;
  daemons) run_daemons ;;
  fuzz) run_fuzz ;;
  compare)
    shift
    run_compare "${1:?compare needs a base ref: scripts/check.sh compare <base-ref>}"
    ;;
  *)
    echo "unknown section: $1 (known: gofmt vet staticcheck rstore-vet docs ci-names benchmark examples daemons fuzz compare)"
    exit 2
    ;;
  esac
  shift
done
echo "ok"
