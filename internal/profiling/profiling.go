// Package profiling wires the standard -cpuprofile/-memprofile flags
// into the CLI front-ends, so performance work profiles the real
// workloads (a full sweep, the whole-paper regeneration) instead of
// microbenchmarks.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath and arranges for a heap
// profile at heapPath; either may be empty. Both files are created
// before profiling starts, so a path that cannot be written is refused
// before anything runs, and a refused Start leaves neither file behind.
// The returned stop function must run at process end (defer it in
// run()): it stops the CPU profile and writes the heap profile.
func Start(cpuPath, heapPath string) (stop func() error, err error) {
	cpuFile, err := create(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	heapFile, err := create(heapPath)
	if err != nil {
		discard(cpuFile)
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			discard(cpuFile)
			discard(heapFile)
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if heapFile != nil {
			runtime.GC() // profile live retention, not transient garbage
			err := pprof.Lookup("heap").WriteTo(heapFile, 0)
			if cerr := heapFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("heap profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// create creates a profile file, or returns nil for an empty path.
func create(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	return os.Create(path)
}

// discard closes and removes a file a refused Start created.
func discard(f *os.File) {
	if f != nil {
		f.Close()
		os.Remove(f.Name())
	}
}
