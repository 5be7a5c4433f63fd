package fixture

import (
	"os"
	"syscall"

	"rstore/internal/engine/reclog"
)

// In lsm and reclog a file operation that goes around reclog.FS is
// one the crash tests never see.

func direct(dir, tmp, dst string, data []byte) error {
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE, 0o644) // want "os.OpenFile goes around the file-system seam"
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil { // want "os.Write goes around the file-system seam"
		return err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil { // want "syscall.Flock goes around" "os.Fd goes around"
		return err
	}
	if _, err := os.ReadDir(dir); err != nil { // want "os.ReadDir goes around the file-system seam"
		return err
	}
	return os.Remove(dst) // want "os.Remove goes around the file-system seam"
}

// Through the seam, the same operations are not reported; neither are os's
// constants, flags and error predicates.
func seam(fsys reclog.FS, dir, tmp string, data []byte) error {
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE, 0o644)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if _, err := fsys.ReadDir(dir); err != nil {
		return err
	}
	return fsys.Remove(tmp)
}
