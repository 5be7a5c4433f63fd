package fixture

import (
	"os"

	"rstore/internal/engine/reclog"
)

// syncDir reaches the engines' one directory fsync; callers reaching it
// transitively count as having synced the directory.
func syncDir(dir string) error { return reclog.SyncDir(dir) }

// seal syncs a file; callers reaching it transitively count as having
// synced.
func seal(f *os.File) error { return f.Sync() }

func commitGood(f *os.File, tmp, dst, dir string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return reclog.SyncDir(dir)
}

func commitTransitive(f *os.File, tmp, dst, dir string) error {
	if err := seal(f); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return syncDir(dir)
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
