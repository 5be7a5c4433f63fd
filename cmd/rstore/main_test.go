package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rstore"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote/engined"
)

// runCLI drives the command on its default backend, lsm in the data
// directory data.
func runCLI(t *testing.T, data string, args ...string) error {
	t.Helper()
	_, err := outputCLI(t, data, args...)
	return err
}

// outputCLI is runCLI returning what the command printed.
func outputCLI(t *testing.T, data string, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run(context.Background(), append([]string{"-data", data}, args...))
	os.Stdout = stdout
	w.Close()
	return <-out, err
}

// TestCLILifecycle is the acceptance path: a store committed through the
// CLI is closed at the end of every command and reopened by the next one,
// and every read returns exactly what was committed.
func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "store.d")

	if err := runCLI(t, data, "init"); err != nil {
		t.Fatalf("init: %v", err)
	}

	// Commit from literal values and from a file.
	docFile := filepath.Join(dir, "doc.json")
	if err := os.WriteFile(docFile, []byte(`{"from":"file"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, data, "commit", "-put", `a={"x":1}`, "-put", "b=@"+docFile); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	if err := runCLI(t, data, "commit", "-put", `a={"x":2}`, "-del", "b"); err != nil {
		t.Fatalf("commit 2: %v", err)
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"get", "-key", "a", "-branch", "main"}, `{"x":2}` + "\n"},
		{[]string{"get", "-key", "a", "-version", "1"}, `{"x":1}` + "\n"},
		{[]string{"get", "-key", "b", "-version", "1"}, `{"from":"file"}` + "\n"},
		{[]string{"history", "-key", "a"}, "v1    {\"x\":1}\nv2    {\"x\":2}\n"},
		{[]string{"branch"}, "main         v2\n"},
	} {
		got, err := outputCLI(t, data, tc.args...)
		if err != nil || got != tc.want {
			t.Fatalf("%v = %q, %v; want %q", tc.args, got, err, tc.want)
		}
	}
	for _, cmd := range [][]string{{"log"}, {"stats"}} {
		if err := runCLI(t, data, cmd...); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
	if err := runCLI(t, data, "get", "-key", "b", "-branch", "main"); err == nil {
		t.Fatal("deleted key b read at the tip")
	}

	// Checkout into a directory.
	out := filepath.Join(dir, "co")
	if err := runCLI(t, data, "checkout", "-branch", "main", "-out", out); err != nil {
		t.Fatalf("checkout: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(out, "a")); err != nil || string(got) != `{"x":2}` {
		t.Fatalf("checked-out a = %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(out, "b")); err == nil {
		t.Fatal("deleted key b materialized on checkout")
	}

	// Branch management.
	if err := runCLI(t, data, "branch", "-name", "old", "-version", "1"); err != nil {
		t.Fatalf("branch: %v", err)
	}
	if got, err := outputCLI(t, data, "get", "-key", "b", "-branch", "old"); err != nil || got != `{"from":"file"}`+"\n" {
		t.Fatalf("get on old branch = %q, %v", got, err)
	}
}

// TestCLIDisklogLifecycle: the store lives in a data directory on disk that
// outlives every command. The disklog backend that once kept it is refused;
// lsm, the default, writes its MANIFEST at init, a second init is refused,
// and after each close and reopen a checkout of the tip and of the older
// version returns the exact committed contents.
func TestCLIDisklogLifecycle(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "store.d")

	if err := run(context.Background(), []string{"-backend", "disklog", "-data", data, "init"}); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("-backend disklog init: %v", err)
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Fatalf("refused backend created %s: %v", data, err)
	}

	if err := runCLI(t, data, "init"); err != nil {
		t.Fatalf("init: %v", err)
	}
	if _, err := os.Stat(filepath.Join(data, "node-0", "MANIFEST")); err != nil {
		t.Fatalf("no lsm directory after init: %v", err)
	}
	if err := runCLI(t, data, "init"); err == nil {
		t.Fatal("double init succeeded")
	}

	if err := runCLI(t, data, "commit", "-put", `a={"x":1}`, "-put", "b=bee"); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	if err := runCLI(t, data, "commit", "-put", `a={"x":2}`, "-del", "b"); err != nil {
		t.Fatalf("commit 2: %v", err)
	}

	out := filepath.Join(dir, "co-tip")
	if err := runCLI(t, data, "checkout", "-branch", "main", "-out", out); err != nil {
		t.Fatalf("checkout tip: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(out, "a")); err != nil || string(got) != `{"x":2}` {
		t.Fatalf("tip a = %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(out, "b")); err == nil {
		t.Fatal("deleted key b materialized at tip")
	}
	outOld := filepath.Join(dir, "co-old")
	if err := runCLI(t, data, "checkout", "-version", "1", "-out", outOld); err != nil {
		t.Fatalf("checkout old: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(outOld, "a")); err != nil || string(got) != `{"x":1}` {
		t.Fatalf("old a = %q, %v", got, err)
	}
	if got, err := os.ReadFile(filepath.Join(outOld, "b")); err != nil || string(got) != "bee" {
		t.Fatalf("old b = %q, %v", got, err)
	}

	// Commands before init on a fresh directory fail cleanly.
	if err := runCLI(t, filepath.Join(dir, "nope.d"), "log"); err == nil {
		t.Fatal("log before init succeeded")
	}
}

// TestCLIRefusesBadVersions: a -version that is no version id is refused,
// not wrapped onto one, and a branch is never pointed at no version.
func TestCLIRefusesBadVersions(t *testing.T) {
	data := filepath.Join(t.TempDir(), "store.d")
	if err := runCLI(t, data, "init"); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, data, "commit", "-put", "a=1"); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"checkout", "-version", "4294967296"}, // 2^32: version 0 once truncated
		{"checkout", "-version", "4294967295"}, // the invalid version itself
		{"get", "-key", "a", "-version", "4294967297"},
		{"branch", "-name", "dev", "-version", "4294967297"},
		{"branch", "-name", "dev"},
	} {
		if err := runCLI(t, data, args...); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("%v: %v, want a refusal", args, err)
		}
	}
	kv, st, err := cliEnv{backend: rstore.EngineLSM, data: data}.load(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if _, err := st.Tip("dev"); err == nil {
		t.Fatal("a refused branch command set the branch")
	}
}

// TestCLINeedsInit: a directory that holds no store — missing, or existing
// but empty — is refused by every command but init with "run init first",
// and init refuses a directory that holds a version.
func TestCLINeedsInit(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.d")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{filepath.Join(dir, "missing.d"), empty} {
		for _, args := range [][]string{{"log"}, {"commit", "-put", "a=1"}, {"get", "-key", "a", "-branch", "main"}, {"stats"}} {
			if err := runCLI(t, data, args...); err == nil || !strings.Contains(err.Error(), "run init first") {
				t.Fatalf("%v in %s: %v, want run init first", args, filepath.Base(data), err)
			}
		}
	}
	if err := runCLI(t, empty, "init"); err != nil {
		t.Fatalf("init of an empty directory: %v", err)
	}
	if err := runCLI(t, empty, "init"); err == nil || !strings.Contains(err.Error(), "already initialized") {
		t.Fatalf("second init: %v, want already initialized", err)
	}
	if got, err := outputCLI(t, empty, "branch"); err != nil || got != "main         v0\n" {
		t.Fatalf("branch after the refused init = %q, %v", got, err)
	}
}

// TestCLIReadsWriteNothing: a read command on an existing directory that
// holds no store is refused and leaves the directory as it found it — no
// node files, no cluster pin, no root.
func TestCLIReadsWriteNothing(t *testing.T) {
	data := t.TempDir()
	for _, args := range [][]string{
		{"log"},
		{"checkout", "-branch", "main"},
		{"get", "-key", "a", "-branch", "main"},
		{"history", "-key", "a"},
		{"stats"},
		{"branch"},
	} {
		if err := runCLI(t, data, args...); err == nil || !strings.Contains(err.Error(), "run init first") {
			t.Fatalf("%v on an empty directory: %v, want run init first", args, err)
		}
		var files []string
		filepath.WalkDir(data, func(path string, _ fs.DirEntry, err error) error {
			if path != data {
				files = append(files, path)
			}
			return err
		})
		if len(files) != 0 {
			t.Fatalf("%v on an empty directory wrote %v", args, files)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "x.d")
	// Commands before init fail cleanly, and leave no directory behind.
	if err := runCLI(t, data, "log"); err == nil {
		t.Fatal("log before init succeeded")
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Fatalf("log before init created %s: %v", data, err)
	}
	if err := runCLI(t, data); err == nil || !strings.Contains(err.Error(), "command") {
		t.Fatalf("missing command: %v", err)
	}
	if err := runCLI(t, data, "bogus"); err == nil {
		t.Fatal("unknown command accepted")
	}
	for _, backend := range []string{"bogus", "memory", "disklog"} {
		if err := run(context.Background(), []string{"-backend", backend, "log"}); err == nil || !strings.Contains(err.Error(), "backend") {
			t.Fatalf("-backend %s: %v", backend, err)
		}
	}
	if err := run(context.Background(), []string{"-backend", "remote", "log"}); err == nil || !strings.Contains(err.Error(), "node-addrs") {
		t.Fatalf("remote without addresses: %v", err)
	}
	if err := runCLI(t, data, "init"); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, data, "commit", "-put", "malformed"); err == nil {
		t.Fatal("malformed -put accepted")
	}
	if err := runCLI(t, data, "get", "-key", "a"); err == nil {
		t.Fatal("get without version/branch accepted")
	}
	if err := runCLI(t, data, "checkout"); err == nil {
		t.Fatal("checkout without version accepted")
	}
}

// TestCLIOpenErrorNamesRstoreOnce: a store whose root cannot be read — its
// daemons are gone — fails to open with the store's nodes and the cause in
// the message, and the line main prints says "rstore:" once, though the
// library's error names it too.
func TestCLIOpenErrorNamesRstoreOnce(t *testing.T) {
	var addrs []string
	var srvs []*engined.Server
	for range 2 {
		srv, err := engined.Start("127.0.0.1:0", memory.New())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr().String())
	}
	data := t.TempDir()
	cluster := []string{"-backend", "remote", "-node-addrs", strings.Join(addrs, ",")}
	if err := runCLI(t, data, append(cluster, "init")...); err != nil {
		t.Fatal(err)
	}
	for _, srv := range srvs {
		srv.Close()
	}
	err := runCLI(t, data, append(cluster, "log")...)
	if err == nil {
		t.Fatal("log with every daemon down succeeded")
	}
	line := fmt.Sprintln("rstore:", libError{err})
	if !strings.HasPrefix(line, "rstore: open store nodes "+strings.Join(addrs, ",")+": ") ||
		!strings.Contains(line, "all replicas down") || strings.Count(line, "rstore:") != 1 {
		t.Fatalf("printed %q, want one \"rstore:\", the nodes and the cause", line)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a/b\\c"); got != "a_b_c" {
		t.Fatalf("sanitize = %q", got)
	}
}
