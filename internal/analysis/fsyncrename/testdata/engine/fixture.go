package fixture

import (
	"os"

	"rstore/internal/engine/reclog"
)

// syncDir reaches the engines' one directory fsync; callers reaching it
// transitively count as having synced the directory.
func syncDir(fsys reclog.FS, dir string) error { return fsys.SyncDir(dir) }

// seal syncs a file; callers reaching it transitively count as having
// synced.
func seal(f *os.File) error { return f.Sync() }

func commitGood(fsys reclog.FS, f *os.File, tmp, dst, dir string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

func commitTransitive(fsys reclog.FS, f *os.File, tmp, dst, dir string) error {
	if err := seal(f); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

func commitNoSync(tmp, dst string) error {
	return os.Rename(tmp, dst) // want "no preceding file Sync" "not followed by a directory fsync"
}

func commitNoDirSync(f *os.File, tmp, dst string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(tmp, dst) // want "not followed by a directory fsync"
}

func commitEscaped(tmp, dst string) error {
	//lint:rstore-vet fsyncrename: fixture replay of a file sealed by a previous phase
	return os.Rename(tmp, dst)
}

// The seam's own calls: FS.Rename, File.Sync and FS.SyncDir.

func seamGood(fsys reclog.FS, f reclog.File, tmp, dst, dir string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, dst); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// sealSeam syncs a seam file; callers reaching it count as having synced.
func sealSeam(f reclog.File) error { return f.Sync() }

func seamTransitive(fsys reclog.FS, f reclog.File, tmp, dst, dir string) error {
	if err := sealSeam(f); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, dst); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

func seamNoSync(fsys reclog.FS, tmp, dst, dir string) error {
	if err := fsys.Rename(tmp, dst); err != nil { // want "no preceding file Sync"
		return err
	}
	return fsys.SyncDir(dir)
}

func seamNoDirSync(fsys reclog.FS, f reclog.File, tmp, dst string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return fsys.Rename(tmp, dst) // want "not followed by a directory fsync"
}
