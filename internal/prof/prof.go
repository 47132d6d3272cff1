// Package prof gives the command-line tools their shared -cpuprofile and
// -memprofile flags, written with runtime/pprof and read with
// `go tool pprof`.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the profile output paths; an empty path is off.
type Profiles struct {
	CPU, Mem string
}

// Register binds -cpuprofile and -memprofile on fs, both off by default.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
}

// Start begins the CPU profile, if one was asked for. The returned stop
// ends it and writes the heap profile; call it once the profiled work is
// done.
func (p Profiles) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if p.Mem == "" {
			return nil
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			return err
		}
		runtime.GC() // the heap profile reports live data as of the last GC
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("writing heap profile: %w", err)
		}
		return f.Close()
	}, nil
}
