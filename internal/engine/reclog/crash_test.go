package reclog_test

import (
	"io"
	"slices"
	"testing"

	"rstore/internal/engine/enginetest"
	"rstore/internal/engine/reclog"
)

// TestWriteFileAtomicCrashAnywhere replaces a file — the lsm MANIFEST —
// with a crash after every mutating call, over none and over an older file,
// with a stale .tmp longer than either in the way. Each process-death and
// each power-loss image holds the old file (or none) or the new one, whole,
// beside at most a .tmp, which the next call truncates.
func TestWriteFileAtomicCrashAnywhere(t *testing.T) {
	const dir, path = "/data", "/data/FILE"
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, old := range []string{"", "the old file"} {
		fsys := enginetest.NewMemFS()
		if err := reclog.MkdirAll(fsys, dir); err != nil {
			t.Fatal(err)
		}
		if old != "" {
			if err := reclog.WriteFileAtomic(fsys, path, write(old)); err != nil {
				t.Fatal(err)
			}
		}
		if err := reclog.WriteFileAtomic(fsys, path+".tmp", write("a stale and much longer temporary file")); err != nil {
			t.Fatal(err)
		}
		images := 0
		fsys.After = func() {
			for _, powerLoss := range []bool{false, true} {
				images++
				img := fsys.Image(powerLoss)
				names, err := img.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				got, err := reclog.ReadFile(img, path)
				if !slices.Contains(names, "FILE") {
					got, err = []byte(""), nil // no file: the old state when there was none
				}
				if err != nil || string(got) != old && string(got) != "the new file" {
					t.Fatalf("call %d, power loss %v: the file reads %q (%v)", len(fsys.Calls()), powerLoss, got, err)
				}
				if extra := slices.DeleteFunc(names, func(n string) bool { return n == "FILE" || n == "FILE.tmp" }); len(extra) > 0 {
					t.Fatalf("call %d, power loss %v: stray files %v", len(fsys.Calls()), powerLoss, extra)
				}
				if err := reclog.WriteFileAtomic(img, path, write("next")); err != nil {
					t.Fatal(err)
				}
				names, _ = img.ReadDir(dir)
				if got, err := reclog.ReadFile(img, path); err != nil || string(got) != "next" || len(names) != 1 {
					t.Fatalf("call %d, power loss %v: the next replacement leaves %q (%v) in %v", len(fsys.Calls()), powerLoss, got, err, names)
				}
			}
		}
		if err := reclog.WriteFileAtomic(fsys, path, write("the new file")); err != nil {
			t.Fatal(err)
		}
		if images == 0 {
			t.Fatal("no mutating call")
		}
	}
}
