package fixture

import (
	"os"
	"syscall"
)

// os.go is reclog's implementation of the seam on the host: the one file
// allowed to reach os and flock directly.
func lock(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}
