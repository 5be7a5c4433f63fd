package disklog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenRefuses: Open names the engine to use instead and leaves dir as
// it found it, so that the benchmark's --backend disklog fails at boot.
func TestOpenRefuses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "node-0")
	b, err := Open(dir, Options{})
	if err == nil || b != nil || !strings.Contains(err.Error(), "lsm") {
		t.Fatalf("Open = %v, %v; want a refusal naming lsm", b, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused Open left %s behind: %v", dir, err)
	}
}
