package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Both flags default to off, and Start with nothing asked for writes
// nothing.
func TestOffByDefault(t *testing.T) {
	var p Profiles
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if p != (Profiles{}) {
		t.Fatalf("defaults %+v, want both off", p)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// Both profiles are written as gzipped pprof protobufs.
func TestWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	var p Profiles
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p.Register(fs)
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s is not a gzipped profile (%d bytes)", filepath.Base(path), len(b))
		}
	}
}

// An unwritable path is an error from Start (CPU) or stop (heap).
func TestBadPaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	if _, err := (Profiles{CPU: bad}).Start(); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
	stop, err := Profiles{Mem: bad}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable -memprofile accepted")
	}
}
