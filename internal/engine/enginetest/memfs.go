package enginetest

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"rstore/internal/engine/reclog"
)

// MemFS is an in-memory reclog.FS that knows what a crash keeps. Per file it
// holds the bytes written and the bytes the last Sync made durable; per
// directory, the entries and those the last SyncDir made durable — a file
// created, renamed or removed is durable under its new name only once its
// directory is synced, and a directory created only once its parent is.
// Every mutating call is logged as a Call, and After runs after each one:
// a crash test takes its images there (Image).
type MemFS struct {
	mu    sync.Mutex
	root  *memNode
	locks map[string]bool
	calls []Call
	phase string
	// gen counts the calls that changed what the process sees, durable the
	// ones that changed what a power loss keeps: equal counts, equal images.
	gen, durable int
	// After, when set, runs after every mutating call, with m unlocked.
	After func()
}

// Call is one mutating call: its op ("create", "truncate", "write", "sync",
// "rename", "remove", "mkdir", "syncdir"), the file (a rename's old name),
// and the phase the harness had set.
type Call struct {
	Op, Path, Phase string
}

// memNode is a file (data, synced) or a directory (entries, durable).
type memNode struct {
	dir              bool
	data, synced     []byte
	entries, durable map[string]*memNode
}

func newDir() *memNode {
	return &memNode{dir: true, entries: map[string]*memNode{}, durable: map[string]*memNode{}}
}

// NewMemFS returns an empty file system: a root directory, durable.
func NewMemFS() *MemFS { return &MemFS{root: newDir(), locks: map[string]bool{}} }

// SetPhase labels the calls logged from now on.
func (m *MemFS) SetPhase(phase string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.phase = phase
}

// Phase is the label SetPhase set.
func (m *MemFS) Phase() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phase
}

// Calls returns the log of mutating calls.
func (m *MemFS) Calls() []Call {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Call(nil), m.calls...)
}

// logLocked records a mutating call; durably says it can change what a
// power loss keeps.
func (m *MemFS) logLocked(op, name string, durably bool) {
	m.calls = append(m.calls, Call{op, name, m.phase})
	if durably {
		m.durable++
	} else {
		m.gen++
	}
}

// done ends a mutating call.
func (m *MemFS) done() {
	if m.After != nil {
		m.After()
	}
}

// Image is a copy of m after a crash — powerLoss keeps only synced bytes and
// synced directory entries, a process death everything written — durable
// throughout, with no log and no After.
func (m *MemFS) Image(powerLoss bool) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	var clone func(n *memNode) *memNode
	clone = func(n *memNode) *memNode {
		if !n.dir {
			data := n.data
			if powerLoss {
				data = n.synced
			}
			data = append([]byte(nil), data...)
			return &memNode{data: data, synced: data}
		}
		entries := n.entries
		if powerLoss {
			entries = n.durable
		}
		c := newDir()
		for name, e := range entries {
			c.entries[name] = clone(e)
			c.durable[name] = c.entries[name]
		}
		return c
	}
	return &MemFS{root: clone(m.root), locks: map[string]bool{}}
}

// walk finds name's directory and the node itself (nil if absent).
func (m *MemFS) walk(op, name string) (parent *memNode, base string, n *memNode, err error) {
	parts := strings.Split(strings.Trim(path.Clean(name), "/"), "/")
	dir := m.root
	for _, p := range parts[:len(parts)-1] {
		if p == "." {
			continue
		}
		if dir = dir.entries[p]; dir == nil || !dir.dir {
			return nil, "", nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
		}
	}
	base = parts[len(parts)-1]
	if base == "." || base == "" {
		return nil, "", dir, nil // the root
	}
	return dir, base, dir.entries[base], nil
}

// Size is the length of the file at name as the process sees it.
func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _, n, err := m.walk("stat", name)
	if err == nil && (n == nil || n.dir) {
		err = &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	if err != nil {
		return 0, err
	}
	return int64(len(n.data)), nil
}

func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (reclog.File, error) {
	m.mu.Lock()
	parent, base, n, err := m.walk("open", name)
	switch {
	case err != nil:
	case n == nil && flag&os.O_CREATE == 0:
		err = &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case n != nil && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		err = &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case n != nil && n.dir:
		err = &fs.PathError{Op: "open", Path: name, Err: errors.New("is a directory")}
	}
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	mutated := true
	switch {
	case n == nil:
		n = &memNode{}
		parent.entries[base] = n
		m.logLocked("create", name, false)
	case flag&os.O_TRUNC != 0:
		n.data = nil
		m.logLocked("truncate", name, false)
	default:
		mutated = false
	}
	m.mu.Unlock()
	if mutated {
		m.done()
	}
	return &memFile{fs: m, n: n, name: name, write: flag&(os.O_WRONLY|os.O_RDWR) != 0}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	op, ob, n, err := m.walk("rename", oldpath)
	np, nb, _, nerr := m.walk("rename", newpath)
	if err = errors.Join(err, nerr); err == nil && (n == nil || op == nil || np == nil) {
		err = &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	delete(op.entries, ob)
	np.entries[nb] = n
	m.logLocked("rename", oldpath, false)
	m.mu.Unlock()
	m.done()
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	parent, base, n, err := m.walk("remove", name)
	if err == nil && (n == nil || parent == nil || n.dir && len(n.entries) > 0) {
		err = &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	delete(parent.entries, base)
	m.logLocked("remove", name, false)
	m.mu.Unlock()
	m.done()
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _, n, err := m.walk("readdir", dir)
	if err == nil && (n == nil || !n.dir) {
		err = &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(n.entries))
	for name := range n.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Mkdir(dir string) error {
	m.mu.Lock()
	parent, base, n, err := m.walk("mkdir", dir)
	if err == nil && n != nil {
		err = &fs.PathError{Op: "mkdir", Path: dir, Err: fs.ErrExist}
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	parent.entries[base] = newDir()
	m.logLocked("mkdir", dir, false)
	m.mu.Unlock()
	m.done()
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	_, _, n, err := m.walk("sync", dir)
	if err == nil && (n == nil || !n.dir) {
		err = &fs.PathError{Op: "sync", Path: dir, Err: fs.ErrNotExist}
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	n.durable = make(map[string]*memNode, len(n.entries))
	for name, e := range n.entries {
		n.durable[name] = e
	}
	m.logLocked("syncdir", dir, true)
	m.mu.Unlock()
	m.done()
	return nil
}

// Lock takes dir's lock, if no one holds it; no file backs it.
func (m *MemFS) Lock(dir string) (io.Closer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.locks[dir] {
		return nil, fmt.Errorf("enginetest: %s is locked", dir)
	}
	m.locks[dir] = true
	return memLock{m, dir}, nil
}

type memLock struct {
	m   *MemFS
	dir string
}

func (l memLock) Close() error {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	delete(l.m.locks, l.dir)
	return nil
}

// memFile is an open file: it keeps its inode through renames and removes.
type memFile struct {
	fs     *MemFS
	n      *memNode
	name   string
	off    int64
	write  bool
	closed bool
}

func (f *memFile) check(op string, write bool) error {
	if f.closed || write && !f.write {
		return &fs.PathError{Op: op, Path: f.name, Err: fs.ErrClosed}
	}
	return nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check("read", false); err != nil || len(p) == 0 {
		return 0, err
	}
	if off >= int64(len(f.n.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.n.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	if err := f.check("write", true); err != nil {
		f.fs.mu.Unlock()
		return 0, err
	}
	if end := off + int64(len(p)); end > int64(len(f.n.data)) {
		f.n.data = append(f.n.data, make([]byte, end-int64(len(f.n.data)))...)
	}
	copy(f.n.data[off:], p)
	f.fs.logLocked("write", f.name, false)
	f.fs.mu.Unlock()
	f.fs.done()
	return len(p), nil
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	if err := f.check("sync", false); err != nil {
		f.fs.mu.Unlock()
		return err
	}
	f.n.synced = append([]byte(nil), f.n.data...)
	f.fs.logLocked("sync", f.name, true)
	f.fs.mu.Unlock()
	f.fs.done()
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	if err := f.check("truncate", true); err != nil {
		f.fs.mu.Unlock()
		return err
	}
	if size < int64(len(f.n.data)) {
		f.n.data = append([]byte(nil), f.n.data[:size]...)
	} else {
		f.n.data = append(f.n.data, make([]byte, size-int64(len(f.n.data)))...)
	}
	f.fs.logLocked("truncate", f.name, false)
	f.fs.mu.Unlock()
	f.fs.done()
	return nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check("stat", false); err != nil {
		return nil, err
	}
	return memInfo{path.Base(f.name), int64(len(f.n.data))}, nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check("close", false); err != nil {
		return err
	}
	f.closed = true
	return nil
}

// memInfo is the FileInfo of a MemFS file.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
