// Package lockio enforces the "mu held only at the edges" discipline
// documented for the storage and transport layers: blocking network I/O —
// conn reads/writes/closes, dials, accepts, wire frame exchanges — must
// not run while a sync.Mutex or sync.RWMutex is held. A network peer can
// stall indefinitely; a stalled peer holding a pool or connection-table
// lock wedges every other operation on the struct, which is precisely the
// failure mode the remote path's pool/breaker design avoids by doing all
// I/O outside its pool lock.
//
// In the engine packages the write side of the rule is supplemented: file
// mutation under a read lock (RLock) is flagged too — a write or sync of an
// *os.File or a reclog.File (the engines' file-system seam), and a rename,
// remove, open, mkdir or directory sync through os or reclog.FS. Readers
// sharing an RWMutex must never pay write-I/O latency, and a writer
// disguised as a reader defeats the lock's point.
//
// The analysis is intraprocedural and straight-line: a lock region opens
// at x.Lock()/x.RLock() and closes at the next matching x.Unlock()/
// x.RUnlock() on the same receiver expression; a deferred unlock holds the
// region open to the end of the function. Non-blocking conn bookkeeping
// (SetDeadline and friends, address getters) is exempt.
package lockio

import (
	"go/ast"
	"go/types"

	"rstore/internal/analysis/rvet"
)

// Analyzer is the lockio rule.
var Analyzer = &rvet.Analyzer{
	Name: "lockio",
	Doc: "no blocking network or wire I/O while holding a mutex; no file writes under a read lock\n\n" +
		"Scope: every non-test package for the network rule; the RLock file-write\n" +
		"rule applies under rstore/internal/engine. Deadline setters and address\n" +
		"getters on conns are exempt (they do not block).",
	Run: run,
}

// nonBlockingConnMethods are net methods that complete without touching
// the wire.
var nonBlockingConnMethods = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
	"LocalAddr":        true,
	"RemoteAddr":       true,
	"Addr":             true,
	"String":           true,
	"Network":          true,
}

func run(pass *rvet.Pass) error {
	engineScope := pass.InScope("rstore/internal/engine")
	for _, f := range pass.Files() {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body, engineScope)
		}
	}
	return nil
}

// lockState tracks, in statement order, which mutex expressions are held.
type lockState struct {
	held map[string]string // canonical mutex expr -> "lock" | "rlock"
}

// checkBody scans one function body in source order, maintaining the held
// set and flagging blocking calls inside lock regions.
func checkBody(pass *rvet.Pass, body *ast.BlockStmt, engineScope bool) {
	st := &lockState{held: make(map[string]string)}
	info := pass.TypesInfo()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested function's calls run on its own schedule (often a
			// goroutine); analyze it independently with an empty held set.
			checkBody(pass, n.Body, engineScope)
			return false
		case *ast.DeferStmt:
			if _, mode, ok := rvet.MutexOp(info, n.Call); ok && (mode == "unlock" || mode == "runlock") {
				// Deferred unlock: the region stays open for the rest of the
				// body; skip the call so it is not taken as closing the
				// region at the defer statement itself.
				return false
			}
		case *ast.CallExpr:
			if expr, mode, ok := rvet.MutexOp(info, n); ok {
				key := types.ExprString(expr)
				switch mode {
				case "lock":
					st.held[key] = "lock"
				case "rlock":
					st.held[key] = "rlock"
				case "unlock", "runlock":
					delete(st.held, key)
				}
				return true
			}
			if len(st.held) == 0 {
				return true
			}
			reportBlocking(pass, n, st, engineScope)
		}
		return true
	})
}

// reportBlocking flags call if it is blocking I/O forbidden under the
// currently held locks.
func reportBlocking(pass *rvet.Pass, call *ast.CallExpr, st *lockState, engineScope bool) {
	info := pass.TypesInfo()
	if m := rvet.MethodOnPackageType(info, call, "net"); m != "" && !nonBlockingConnMethods[m] {
		pass.Reportf(call.Pos(), "net %s call while holding a mutex: a stalled peer would wedge every operation contending for the lock", m)
		return
	}
	for _, name := range [3]string{"Dial", "DialTimeout", "Listen"} {
		if rvet.IsPkgCall(info, call, "net", name) {
			pass.Reportf(call.Pos(), "net.%s while holding a mutex: dials block for the full timeout", name)
			return
		}
	}
	for _, name := range [2]string{"ReadFrame", "WriteFrame"} {
		if rvet.IsPkgCall(info, call, "rstore/internal/engine/remote/wire", name) {
			pass.Reportf(call.Pos(), "wire.%s while holding a mutex: a frame exchange can stall on the peer", name)
			return
		}
	}
	if !engineScope || !st.anyReadHeld() {
		return
	}
	for _, m := range fileWrites {
		if rvet.IsMethodCall(info, call, m[0], m[1], m[2]) {
			pass.Reportf(call.Pos(), "file write/sync under a read lock: readers sharing this RWMutex would pay write-I/O latency")
			return
		}
	}
	for _, name := range [4]string{"Rename", "Remove", "Create", "OpenFile"} {
		if rvet.IsPkgCall(info, call, "os", name) {
			pass.Reportf(call.Pos(), "os.%s under a read lock: directory mutation belongs on the write side", name)
			return
		}
	}
	for _, name := range [5]string{"Rename", "Remove", "OpenFile", "Mkdir", "SyncDir"} {
		if rvet.IsMethodCall(info, call, reclogPath, "FS", name) {
			pass.Reportf(call.Pos(), "reclog.FS.%s under a read lock: directory mutation belongs on the write side", name)
			return
		}
	}
}

const reclogPath = "rstore/internal/engine/reclog"

// fileWrites are the file writes and syncs, as (package, type, method):
// *os.File's and those of the engines' file-system seam.
var fileWrites = [...][3]string{
	{"os", "File", "Sync"}, {"os", "File", "Write"}, {"os", "File", "WriteString"}, {"os", "File", "WriteAt"},
	{reclogPath, "File", "Sync"}, {reclogPath, "File", "Write"}, {reclogPath, "File", "WriteAt"}, {reclogPath, "File", "Truncate"},
}

func (st *lockState) anyReadHeld() bool {
	for _, mode := range st.held {
		if mode == "rlock" {
			return true
		}
	}
	return false
}
