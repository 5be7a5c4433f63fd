package wiresym

import (
	"strings"
	"testing"

	"rstore/internal/analysis/rvet/rvettest"
)

// treePaths lays each fixture tree out like the production packages: the
// wire package under the client's import path, the server beside it.
var treePaths = map[string]string{
	"wire":    "rstore/internal/xwire/wire",
	"client":  "rstore/internal/xwire",
	"engined": "rstore/internal/xwire/engined",
}

// TestSymmetric: a protocol with every op sent, dispatched, and documented
// is clean.
func TestSymmetric(t *testing.T) {
	rvettest.RunTree(t, Analyzer, "testdata/sym", "wire", treePaths)
}

// TestBroken proves the acceptance criterion: an op without a client
// method, dispatch arm, or FORMATS.md row fails — each rule also on an op
// that breaks no other — as do doc value mismatches and phantom doc rows.
func TestBroken(t *testing.T) {
	rvettest.RunTree(t, Analyzer, "testdata/broken", "wire", treePaths)
}

// TestOutOfScope: wiresym only runs on packages whose path ends in /wire.
func TestOutOfScope(t *testing.T) {
	diags := rvettest.Diagnostics(t, Analyzer, "testdata/sym/wire", "rstore/internal/notwire")
	if len(diags) != 0 {
		t.Errorf("non-wire package produced diagnostics: %v", diags)
	}
}

func TestEscapeRequiresReason(t *testing.T) {
	diags := rvettest.TreeDiagnostics(t, Analyzer, "testdata/escapes", "wire", treePaths)
	var reasonless bool
	findings := 0
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "requires a reason"):
			reasonless = true
		case d.Analyzer == Analyzer.Name:
			findings++
		}
	}
	if !reasonless {
		t.Error("reason-less escape was not reported")
	}
	if findings != 3 {
		t.Errorf("a reason-less escape must not suppress: got %d findings, want 3 (diags: %v)", findings, diags)
	}
}
