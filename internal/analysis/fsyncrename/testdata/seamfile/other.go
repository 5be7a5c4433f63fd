package fixture

import "os"

// Any other file of reclog goes through the seam too.
func stat(path string) error {
	_, err := os.Stat(path) // want "os.Stat goes around the file-system seam"
	return err
}
