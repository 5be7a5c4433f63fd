// Package fsyncrename enforces the commit discipline of the storage
// engines (docs/FORMATS.md): a rename that publishes durable state —
// installing an SSTable, replacing a log or a pin file, committing a
// manifest — whether os.Rename or the file-system seam's (reclog.FS) Rename,
// must be preceded, in the same function, by an fsync of the file being
// renamed (directly via (*os.File).Sync or reclog.File's Sync, or through a
// package-local helper that transitively syncs, like sstWriter.finish), and
// must be followed by a directory fsync (reclog.FS's SyncDir or a helper
// reaching it) so the new directory entry itself is durable. Rename-before-sync
// is the torn-header bug class: after a crash the name points at data the
// disk never promised to keep.
//
// The analysis is intraprocedural over statement order with a
// package-local call-graph closure (rvet/callgraph) for the sync sets — it
// proves presence on the straight-line reading, not all-paths correctness.
// Functions that rename files synced by an earlier phase (crash-recovery
// replay, commit helpers fed a sealed temp file) carry a reasoned escape.
//
// The seam is what lets the engines' tests crash them after any file
// operation, so in the non-test files of lsm, disklog and reclog a second
// rule reports every file operation that goes around it — a call of an os
// file-system function, a method of an os type, syscall.Flock — except in
// reclog's os.go, the seam's one implementation on the host.
package fsyncrename

import (
	"go/ast"
	"go/token"
	"path/filepath"

	"rstore/internal/analysis/rvet"
	"rstore/internal/analysis/rvet/callgraph"
)

// Analyzer is the fsyncrename rule.
var Analyzer = &rvet.Analyzer{
	Name: "fsyncrename",
	Doc: "a rename committing durable engine state needs a file Sync before and a directory fsync after; lsm, disklog and reclog touch files only through reclog.FS\n\n" +
		"Scope: rstore/internal/engine/..., non-test files. A rename is os.Rename or\n" +
		"reclog.FS's Rename; a file sync (*os.File).Sync or reclog.File's Sync, or a\n" +
		"call to a package-local function that transitively makes one; a directory\n" +
		"fsync reclog.FS's SyncDir, or a call reaching it. In lsm, disklog and reclog\n" +
		"every os file-system call and syscall.Flock is reported, reclog's os.go\n" +
		"(the seam's host implementation) excepted.",
	Run: run,
}

const reclogPath = "rstore/internal/engine/reclog"

// osFileCalls are the os package's file-system functions.
var osFileCalls = map[string]bool{
	"Chdir": true, "Chmod": true, "Chown": true, "Chtimes": true, "CopyFS": true, "Create": true,
	"CreateTemp": true, "DirFS": true, "Lchown": true, "Link": true, "Lstat": true, "Mkdir": true,
	"MkdirAll": true, "MkdirTemp": true, "NewFile": true, "Open": true, "OpenFile": true,
	"OpenInRoot": true, "OpenRoot": true, "ReadDir": true, "ReadFile": true, "Readlink": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Stat": true, "Symlink": true,
	"Truncate": true, "WriteFile": true,
}

func run(pass *rvet.Pass) error {
	if !pass.InScope("rstore/internal/engine") {
		return nil
	}
	info := pass.TypesInfo()
	isRename := func(call *ast.CallExpr) bool {
		return rvet.IsPkgCall(info, call, "os", "Rename") || rvet.IsMethodCall(info, call, reclogPath, "FS", "Rename")
	}
	isFileSync := func(call *ast.CallExpr) bool {
		return rvet.IsMethodCall(info, call, "os", "File", "Sync") || rvet.IsMethodCall(info, call, reclogPath, "File", "Sync")
	}
	isDirSync := func(call *ast.CallExpr) bool {
		return rvet.IsMethodCall(info, call, reclogPath, "FS", "SyncDir")
	}

	// Pass 1: package-local call graph and the directly-syncing functions.
	g := callgraph.Build(pass.Pkg)
	fileSyncers := g.Closure(isFileSync)
	dirSyncers := g.Closure(isDirSync)

	// Pass 2: per-function statement-order check around each rename.
	for fn, fd := range g.Decls {
		var renames []*ast.CallExpr
		var fileSyncPos, dirSyncPos []token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case isRename(call):
				renames = append(renames, call)
			case isFileSync(call):
				fileSyncPos = append(fileSyncPos, call.Pos())
			case isDirSync(call):
				dirSyncPos = append(dirSyncPos, call.Pos())
			}
			if callee := rvet.Callee(info, call); callee != nil && callee != fn {
				if fileSyncers[callee] {
					fileSyncPos = append(fileSyncPos, call.Pos())
				}
				if dirSyncers[callee] {
					dirSyncPos = append(dirSyncPos, call.Pos())
				}
			}
			return true
		})
		for _, ren := range renames {
			if !anyBefore(fileSyncPos, ren.Pos()) {
				pass.Reportf(ren.Pos(), "rename commits durable state with no preceding file Sync in this function: fsync the renamed file first (or escape with the phase that already sealed it)")
			}
			if !anyAfter(dirSyncPos, ren.Pos()) {
				pass.Reportf(ren.Pos(), "rename is not followed by a directory fsync in this function: call SyncDir so the new entry survives a crash")
			}
		}
	}

	// The seam's bypass rule.
	if !pass.InScope("rstore/internal/engine/lsm", "rstore/internal/engine/disklog", reclogPath) {
		return nil
	}
	for _, f := range pass.Files() {
		if pass.IsTestFile(f.Pos()) || pass.BasePath() == reclogPath && filepath.Base(pass.Fset().Position(f.Pos()).Filename) == "os.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := rvet.Callee(info, call)
			switch {
			case fn == nil:
			case rvet.IsPkgCall(info, call, "os", fn.Name()) && osFileCalls[fn.Name()],
				rvet.MethodOnPackageType(info, call, "os") != "",
				rvet.IsPkgCall(info, call, "syscall", "Flock"):
				pass.Reportf(call.Pos(), "%s.%s goes around the file-system seam: make every file operation through reclog.FS, so the crash tests see it", fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
	return nil
}
func anyBefore(positions []token.Pos, p token.Pos) bool {
	for _, q := range positions {
		if q < p {
			return true
		}
	}
	return false
}

func anyAfter(positions []token.Pos, p token.Pos) bool {
	for _, q := range positions {
		if q > p {
			return true
		}
	}
	return false
}
