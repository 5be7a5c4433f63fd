// Package clockseam forbids direct time.Now reads in the LWW / envelope /
// repair code paths: rstore/internal/kvstore must take wall-clock
// timestamps through the walltime accessor in clock.go, the package's one
// designated clock seam. LWW correctness (envelope timestamps, tombstone
// GC) hinges on every timestamp flowing through one swappable source — a
// stray time.Now() reintroduces the untestable clock the seam exists to
// remove.
package clockseam

import (
	"go/ast"
	"path/filepath"

	"rstore/internal/analysis/rvet"
)

// Analyzer is the clockseam rule.
var Analyzer = &rvet.Analyzer{
	Name: "clockseam",
	Doc: "time.Now is forbidden in kvstore's LWW/envelope/repair paths outside the clock.go walltime seam\n\n" +
		"Scope: rstore/internal/kvstore, non-test files. Both time.Now() calls and\n" +
		"bare time.Now references (assigning the func value) are flagged; clock.go,\n" +
		"which defines the walltime accessor, is the only file allowed to name it.",
	Run: run,
}

// seamFile is the one file of the scoped package allowed to reference
// time.Now: it defines the walltime accessor everything else must use.
const seamFile = "clock.go"

func run(pass *rvet.Pass) error {
	if !pass.InScope("rstore/internal/kvstore") {
		return nil
	}
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		name := filepath.Base(pass.Fset().Position(f.Pos()).Filename)
		if name == seamFile || pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := info.Uses[sel.Sel]
			if obj == nil || obj.Name() != "Now" || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(), "time.Now in an LWW/envelope/repair path: take timestamps through the walltime seam (clock.go)")
			return true
		})
	}
	return nil
}
