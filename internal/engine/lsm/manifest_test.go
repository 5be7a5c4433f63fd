package lsm

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rstore/internal/types"
)

// FuzzManifest: the MANIFEST parser never panics, refuses what it does not
// accept as corruption, and a MANIFEST it accepts, rewritten the way
// writeManifest writes it, parses back equal.
func FuzzManifest(f *testing.F) {
	f.Add("rstore-lsm v4\nnext 9\nwal 7 \"deltastore\"\nwal 8 \"chunks\"\nwal 3 \"\"\nsst 1 \"chunks\"\nsst 2 \"chunks\"\nsst 5 \"meta\\x00\"\n")
	f.Add("rstore-lsm v4\nnext 1\n")
	f.Add("rstore-lsm v2\nnext 5\nwal 4\nsst 1 \"t\"\n")
	f.Add("rstore-lsm v1\nnext 5\nwal 4\nsst 1\nsst 3\n")
	f.Add("rstore-lsm v4\nnext 9\nwal 7 \"t\"\nwal 8 \"t\"\n")
	f.Add("rstore-lsm v4\nnext 9\nwal 6 \"t\"\nwal 7 \"t\"\nwal 8 \"t\"\n")
	f.Add("rstore-lsm v3\nnext 9\nwal 7 \"t\"\nsst 1 \"t\"\n")
	f.Fuzz(func(t *testing.T, data string) {
		m, err := parseManifest(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("refused with %v, want ErrCorrupt", err)
			}
			return
		}
		again, err := parseManifest(formatManifest(m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("rewritten MANIFEST parses back %+v (err %v), want %+v", again, err, m)
		}
	})
}

// TestOpenRefusesV1Directory: a v1 MANIFEST (one age-ordered list of
// SSTables shared by every user table) was last written by builds whose
// stores core no longer reads, so Open refuses it and names the fix.
func TestOpenRefusesV1Directory(t *testing.T) {
	checkOpenRefuses(t, "v1", "rstore-lsm v1\nnext 5\nwal 4\nsst 1\nsst 3\n")
}

// TestOpenRefusesV2Directory: a v2 MANIFEST (one write-ahead log for every
// user table) is refused the same way.
func TestOpenRefusesV2Directory(t *testing.T) {
	checkOpenRefuses(t, "v2", "rstore-lsm v2\nnext 5\nwal 4\nsst 1 \"t\"\nsst 3 \"t\"\n")
}

// TestOpenRefusesV3Directory: a v3 MANIFEST (SSTable keys prefixed with
// their user table) is refused the same way.
func TestOpenRefusesV3Directory(t *testing.T) {
	checkOpenRefuses(t, "v3", "rstore-lsm v3\nnext 5\nwal 4 \"t\"\nsst 1 \"t\"\nsst 3 \"t\"\n")
}

// checkOpenRefuses writes manifest into a fresh directory and asserts that
// Open refuses it as corrupt with an error naming version and the fix.
func checkOpenRefuses(t *testing.T, version, manifest string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{})
	if err == nil {
		b.Close()
		t.Fatalf("a %s directory opened", version)
	}
	if !errors.Is(err, types.ErrCorrupt) || !strings.Contains(err.Error(), version) || !strings.Contains(err.Error(), "re-initialize") {
		t.Fatalf("refusal %q does not name %s and the fix", err, version)
	}
}
