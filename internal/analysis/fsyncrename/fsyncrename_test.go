package fsyncrename

import (
	"strings"
	"testing"

	"rstore/internal/analysis/rvet/rvettest"
)

func TestEngineScope(t *testing.T) {
	rvettest.Run(t, Analyzer, "testdata/engine", "rstore/internal/engine/fixture")
}

// TestSeamBypass: in lsm, disklog and reclog every os file-system call
// and flock is reported...
func TestSeamBypass(t *testing.T) {
	for _, path := range []string{"rstore/internal/engine/lsm", "rstore/internal/engine/disklog", "rstore/internal/engine/reclog"} {
		rvettest.Run(t, Analyzer, "testdata/bypass", path)
	}
}

// ...but in reclog's os.go, the seam's host implementation.
func TestSeamFileExempt(t *testing.T) {
	rvettest.Run(t, Analyzer, "testdata/seamfile", "rstore/internal/engine/reclog")
}

// TestBypassRuleScope: the engine fixture reaches os directly and is not
// one of the three packages.
func TestBypassRuleScope(t *testing.T) {
	for _, d := range rvettest.Diagnostics(t, Analyzer, "testdata/bypass", "rstore/internal/engine/fixture") {
		t.Errorf("bypass rule fired outside lsm, disklog and reclog: %s", d)
	}
}

func TestOutOfScope(t *testing.T) {
	rvettest.Run(t, Analyzer, "testdata/unscoped", "rstore/internal/bench/fixture")
}

func TestEscapeRequiresReason(t *testing.T) {
	diags := rvettest.Diagnostics(t, Analyzer, "testdata/escapes", "rstore/internal/engine/fixture")
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
	// The reason-less escape suppresses nothing: both halves of the rename
	// rule still fire on the unsynced rename.
	if findings != 2 {
		t.Errorf("a reason-less escape must not suppress: got %d findings, want 2 (diags: %v)", findings, diags)
	}
}
