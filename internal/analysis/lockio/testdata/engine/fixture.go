package fixture

import (
	"os"
	"sync"

	"rstore/internal/engine/reclog"
)

type backend struct {
	rw sync.RWMutex
}

func (b *backend) writeUnderRLock(f *os.File, data []byte) error {
	b.rw.RLock()
	defer b.rw.RUnlock()
	_, err := f.Write(data) // want "file write/sync under a read lock"
	return err
}

// Commit-under-the-write-lock is the engines' documented design; only the
// read side is restricted.
func (b *backend) writeUnderLockOK(f *os.File, data []byte) error {
	b.rw.Lock()
	defer b.rw.Unlock()
	_, err := f.Write(data)
	return err
}

func (b *backend) renameUnderRLock(tmp, dst string) error {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return os.Rename(tmp, dst) // want "os.Rename under a read lock"
}

// The same rule through the engines' file-system seam.

func (b *backend) seamWriteUnderRLock(f reclog.File, data []byte) error {
	b.rw.RLock()
	defer b.rw.RUnlock()
	if _, err := f.WriteAt(data, 0); err != nil { // want "file write/sync under a read lock"
		return err
	}
	return f.Sync() // want "file write/sync under a read lock"
}

func (b *backend) seamRenameUnderRLock(fsys reclog.FS, tmp, dst, dir string) error {
	b.rw.RLock()
	defer b.rw.RUnlock()
	if err := fsys.Rename(tmp, dst); err != nil { // want "reclog.FS.Rename under a read lock"
		return err
	}
	return fsys.SyncDir(dir) // want "reclog.FS.SyncDir under a read lock"
}

// Reading through the seam under a read lock is what readers do.
func (b *backend) seamReadUnderRLock(f reclog.File, buf []byte) error {
	b.rw.RLock()
	defer b.rw.RUnlock()
	_, err := f.ReadAt(buf, 0)
	return err
}

func (b *backend) seamWriteUnderLockOK(fsys reclog.FS, f reclog.File, tmp string, data []byte) error {
	b.rw.Lock()
	defer b.rw.Unlock()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return fsys.Remove(tmp)
}
