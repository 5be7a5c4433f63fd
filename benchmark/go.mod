// The benchmark is a module of its own because the contract it is run
// under asks for one: a benchmark that has to be compiled is a package in
// its own directory with its own build file. Nothing else needs it: as a
// plain package of module rstore it would build just as well. The price is
// that the parent's `go build ./... && go test ./...` and scripts/check.sh
// skip it; `cd benchmark && go vet ./... && go test ./...` covers it. The
// module path sits under "rstore/" so the toolchain lets it import
// rstore/internal/...; the replace directive points at the checkout.
module rstore/benchmark

go 1.23

require rstore v0.0.0

replace rstore => ../
