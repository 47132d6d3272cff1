package snapshot

import (
	"os"
	"path/filepath"
	"testing"
)

// WriteFile replaces the target whole and leaves no temp file behind,
// whether it succeeds or fails.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "snap.ckpt")
	for _, blob := range []string{"first blob", "second"} {
		if err := WriteFile(name, []byte(blob)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(name); err != nil || string(got) != blob {
			t.Fatalf("read back %q, %v; want %q", got, err, blob)
		}
	}
	// Renaming over a directory fails after the temp file was written.
	blocked := filepath.Join(dir, "blocked.ckpt")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocked, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, []byte("x")); err == nil {
		t.Error("rename over a non-empty directory succeeded")
	}
	if err := WriteFile(filepath.Join(dir, "missing", "snap.ckpt"), []byte("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}
