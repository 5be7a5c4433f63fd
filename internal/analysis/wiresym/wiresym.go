// Package wiresym implements the rstore-vet analyzer that keeps the wire
// protocol's opcodes symmetric across their homes: the wire package that
// declares them, the client (internal/engine/remote) whose methods send
// them, and the server (internal/engine/remote/engined) that dispatches them
// — plus the op table documented in docs/FORMATS.md. An opcode with no
// client method is dead weight; one with no dispatch arm is a frame the
// server drops on the floor; a FORMATS.md row that disagrees on the numeric
// value documents a protocol that does not exist. (What bytes a message is,
// and which error sentinels survive the hop, need no analyzer: each is
// written once, in the wire package, for both directions.)
package wiresym

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"rstore/internal/analysis/rvet"
)

// Analyzer checks wire-protocol symmetry: opcodes against client, server
// dispatch, and docs.
var Analyzer = &rvet.Analyzer{
	Name: "wiresym",
	Doc: `every wire opcode needs a client method, a server dispatch arm, and a docs/FORMATS.md row

Runs on the wire package. Every Op* constant must be referenced by a Client
method in the parent package (the sender), appear as a case arm in the
server's dispatch switch, and have a row in the docs/FORMATS.md op table
whose numeric value matches the constant.`,
	Run: run,
}

func run(pass *rvet.Pass) error {
	base := pass.BasePath()
	if !strings.HasSuffix(base, "/wire") {
		return nil
	}
	parent := strings.TrimSuffix(base, "/wire")
	client, err := pass.Load(parent)
	if err != nil {
		return fmt.Errorf("loading client package %s: %v", parent, err)
	}
	server, err := pass.Load(parent + "/engined")
	if err != nil {
		return fmt.Errorf("loading server package %s/engined: %v", parent, err)
	}

	ops := collectOps(pass.TypesPkg())
	clientOps := clientOpRefs(client, base)
	dispatchOps := dispatchArms(server, base)
	docOps, err := docTable(pass)
	if err != nil {
		return err
	}

	for _, op := range ops {
		if !clientOps[op.name] {
			pass.Reportf(op.pos, "%s has no Client method in %s referencing it: the op cannot be sent", op.name, parent)
		}
		if !dispatchOps[op.name] {
			pass.Reportf(op.pos, "%s has no dispatch arm in %s/engined: the server drops the frame", op.name, parent)
		}
		docVal, documented := docOps[op.name]
		switch {
		case !documented:
			pass.Reportf(op.pos, "%s (value %d) has no row in the docs/FORMATS.md op table", op.name, op.value)
		case docVal != op.value:
			pass.Reportf(op.pos, "docs/FORMATS.md gives %s value %d, but the constant is %d", op.name, docVal, op.value)
		}
	}
	pkgPos := pass.Files()[0].Name.Pos()
	known := make(map[string]bool, len(ops))
	for _, op := range ops {
		known[op.name] = true
	}
	for _, name := range sortedKeys(docOps) {
		if !known[name] {
			pass.Reportf(pkgPos, "docs/FORMATS.md documents %s, which is not declared in the wire package", name)
		}
	}
	return nil
}

type opConst struct {
	name  string
	value int64
	pos   token.Pos
}

// collectOps gathers the Op* constants of the wire package with their
// numeric values and declaration positions.
func collectOps(pkg *types.Package) []opConst {
	var ops []opConst
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Op") || len(name) < 3 || name[2] < 'A' || name[2] > 'Z' {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		v, exact := constant.Int64Val(constant.ToInt(c.Val()))
		if !exact {
			continue
		}
		ops = append(ops, opConst{name: name, value: v, pos: c.Pos()})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].value < ops[j].value })
	return ops
}

// clientOpRefs returns the names of wirePath's Op* constants referenced in
// pkg's non-test method bodies whose receiver type is named Client — the
// senders.
func clientOpRefs(pkg *rvet.Package, wirePath string) map[string]bool {
	used := make(map[string]bool)
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if receiverTypeName(fd) != "Client" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if c, ok := pkg.Info.Uses[id].(*types.Const); ok &&
						c.Pkg() != nil && c.Pkg().Path() == wirePath && strings.HasPrefix(c.Name(), "Op") {
						used[c.Name()] = true
					}
				}
				return true
			})
		}
	}
	return used
}

// receiverTypeName returns the name of fd's receiver type (pointer
// indirection stripped), or "" for plain functions.
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// dispatchArms returns the wirePath Op* constants that appear as switch
// case expressions in pkg's non-test files — the server's dispatch arms.
func dispatchArms(pkg *rvet.Package, wirePath string) map[string]bool {
	arms := make(map[string]bool)
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if obj := rvet.ExprObject(pkg.Info, e); obj != nil {
					if c, ok := obj.(*types.Const); ok &&
						c.Pkg() != nil && c.Pkg().Path() == wirePath && strings.HasPrefix(c.Name(), "Op") {
						arms[c.Name()] = true
					}
				}
			}
			return true
		})
	}
	return arms
}

// docRowRe matches one row of the FORMATS.md op table: | `OpName` | value |
var docRowRe = regexp.MustCompile("(?m)^\\|\\s*`(Op\\w+)`\\s*\\|\\s*(\\d+)\\s*\\|")

// docTable locates docs/FORMATS.md above the wire package (the directory
// holding go.mod is the module root) and parses its op table.
func docTable(pass *rvet.Pass) (map[string]int64, error) {
	start := pass.Fset().Position(pass.Files()[0].Pos()).Filename
	dir := filepath.Dir(start)
	for i := 0; i < 12; i++ {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			data, err := os.ReadFile(filepath.Join(dir, "docs", "FORMATS.md"))
			if err != nil {
				return nil, fmt.Errorf("reading docs/FORMATS.md under %s: %v", dir, err)
			}
			table := make(map[string]int64)
			for _, m := range docRowRe.FindAllStringSubmatch(string(data), -1) {
				var v int64
				fmt.Sscanf(m[2], "%d", &v)
				table[m[1]] = v
			}
			return table, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return nil, fmt.Errorf("cannot locate a go.mod above %s to find docs/FORMATS.md", start)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
