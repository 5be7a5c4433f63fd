package reclog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// OS is the host's file system: the one place the disk engines reach it.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error {
	//lint:rstore-vet fsyncrename: the seam's own rename; its callers sync the file before it and the directory after it, and fsyncrename checks them
	return os.Rename(oldpath, newpath)
}

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Mkdir(dir string) error { return os.Mkdir(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Lock flocks dir/LOCK.
func (osFS) Lock(dir string) (io.Closer, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("reclog: %s is in use by another process: %w", dir, err)
	}
	return f, nil
}
