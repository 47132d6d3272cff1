package snapshot

import (
	"os"
	"path/filepath"
)

// WriteFile writes blob to name through a temp file in the same directory
// and a rename, so a crash at any moment leaves either the previous file or
// the complete new one, never a truncated blob where a resumable one is
// expected. On error the temp file is removed.
func WriteFile(name string, blob []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(name), filepath.Base(name)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), name)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
