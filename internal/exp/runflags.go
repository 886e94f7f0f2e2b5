package exp

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/profiling"
)

// RunFlags is the command-line grammar of how a command runs its
// experiments, shared like Axes by every command that runs them
// (cmd/sweep, cmd/gridrepro, cmd/gridsim): its fields hold the values of
// the six run flags. A command sets the fields it fixes, calls Register,
// parses and checks its own flags, and calls Open; the Session it gets
// back runs the experiments, and its Close reports and tidies up.
type RunFlags struct {
	Workers    int    // worker-pool size (0 = one per CPU)
	Cache      string // persistent result-cache directory
	Remote     string // result-store server URL (a cmd/sweepd instance)
	Evict      string // age/size bound applied to Cache at Close
	CPUProfile string // CPU profile file, written at Close
	MemProfile string // heap profile file, written at Close
}

// Register defines the run flags on fs, with the fields' current values
// as their defaults.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", f.Workers, "experiment worker-pool size (0 = one per CPU)")
	fs.StringVar(&f.Cache, "cache", f.Cache, "persistent result-cache directory (empty = in-memory only)")
	fs.StringVar(&f.Remote, "cache-remote", f.Remote, "result-store server URL (a cmd/sweepd instance); with -cache, the directory becomes its local read-through/write-behind tier")
	fs.StringVar(&f.Evict, "cache-evict", f.Evict, `age/size bound applied to -cache after the run, e.g. "720h", "512M" or "720h,512M"`)
	fs.StringVar(&f.CPUProfile, "cpuprofile", f.CPUProfile, "write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", f.MemProfile, "write a heap profile at exit to this file")
}

// Session is an opened RunFlags: a runner over the store the flags name,
// with the profiles they ask for running.
type Session struct {
	Runner *Runner
	Local  *DiskCache   // the -cache directory; nil without one
	Remote *RemoteStore // the -cache-remote server over Local; nil without one

	evict    EvictPolicy
	stopProf func() error
}

// Open checks the flags, then starts the profiles, then opens the store
// they name under a runner of Workers. Every check comes before
// anything is created, and the cache directory comes last, so a refused
// invocation leaves no cache directory and no profile behind.
func (f RunFlags) Open() (*Session, error) {
	s := &Session{}
	var err error
	if f.Evict != "" {
		if f.Cache == "" {
			return nil, fmt.Errorf("-cache-evict needs -cache")
		}
		if s.evict, err = ParseEvictPolicy(f.Evict); err != nil {
			return nil, err
		}
	}
	// The store is made before the directory, so a bad URL leaves none;
	// it gets its local tier below.
	if f.Remote != "" {
		if s.Remote, err = NewRemoteStore(f.Remote, nil); err != nil {
			return nil, err
		}
	}
	if s.stopProf, err = profiling.Start(f.CPUProfile, f.MemProfile); err != nil {
		return nil, err
	}
	if f.Cache != "" {
		if s.Local, err = NewDiskCache(f.Cache); err != nil {
			// Take back the profile files Start created.
			s.stopProf()
			for _, p := range []string{f.CPUProfile, f.MemProfile} {
				if p != "" {
					os.Remove(p)
				}
			}
			return nil, err
		}
	}
	s.Runner = NewRunner(f.Workers)
	switch {
	case s.Remote != nil:
		s.Remote.local = s.Local
		s.Runner.store = s.Remote
	case s.Local != nil:
		s.Runner.store = s.Local
	}
	return s, nil
}

// Close reports on w what the runner served, if it served anything:
// the cache split, the results the store lost, and the remote store's
// counters. It then applies the eviction bound and writes the profiles.
// Its error is the eviction's; a profile it cannot write is reported on
// w.
func (s *Session) Close(w io.Writer) error {
	if st := s.Runner.CacheStats(); st.Computed+st.Disk+st.Memory > 0 {
		// With a remote store the backing tier is not (only) local disk.
		source := "from disk"
		if s.Remote != nil {
			source = "from store"
		}
		fmt.Fprintf(w, "cache: %d computed, %d %s, %d from memory (%d distinct experiments)\n",
			st.Computed, st.Disk, source, st.Memory, s.Runner.CacheLen())
		if st.StoreErrors > 0 {
			fmt.Fprintf(w, "warning: %d results could not be written to the disk cache\n", st.StoreErrors)
		}
		if s.Remote != nil {
			fmt.Fprintln(w, s.Remote.Stats())
		}
	}
	var err error
	if s.evict != (EvictPolicy{}) {
		var rep EvictReport
		if rep, err = s.Local.Evict(s.evict); err != nil {
			err = fmt.Errorf("cache eviction: %w", err)
		} else {
			fmt.Fprintln(w, rep)
		}
	}
	if perr := s.stopProf(); perr != nil {
		fmt.Fprintln(w, perr)
	}
	return err
}
