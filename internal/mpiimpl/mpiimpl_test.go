package mpiimpl

import (
	"testing"
	"time"

	"repro/internal/mpi"
)

func TestProfilesMatchTable4Overheads(t *testing.T) {
	want := map[string][2]time.Duration{
		MPICH2:    {5 * time.Microsecond, 6 * time.Microsecond},
		GridMPI:   {5 * time.Microsecond, 7 * time.Microsecond},
		Madeleine: {21 * time.Microsecond, 14 * time.Microsecond},
		OpenMPI:   {5 * time.Microsecond, 8 * time.Microsecond},
	}
	for name, w := range want {
		p := Profile(name)
		if p.OverheadLocal != w[0] || p.OverheadWAN != w[1] {
			t.Errorf("%s overheads = %v/%v, want %v/%v", name, p.OverheadLocal, p.OverheadWAN, w[0], w[1])
		}
	}
}

func TestDefaultThresholdsMatchTable5(t *testing.T) {
	if Profile(MPICH2).EagerThreshold != 256<<10 {
		t.Error("MPICH2 default threshold")
	}
	if Profile(Madeleine).EagerThreshold != 128<<10 {
		t.Error("Madeleine default threshold")
	}
	if Profile(OpenMPI).EagerThreshold != 64<<10 {
		t.Error("OpenMPI default threshold")
	}
	if Profile(GridMPI).EagerThreshold != mpi.Infinite {
		t.Error("GridMPI must not use rendezvous by default")
	}
}

func TestGridMPIHasTheGridFeatures(t *testing.T) {
	p, tcp := Configure(GridMPI, false, false)
	if !tcp.Pacing || !p.GridCollectives {
		t.Fatalf("GridMPI misses its §2.1.4 features: %+v, pacing %v", p, tcp.Pacing)
	}
	for _, other := range []string{MPICH2, Madeleine, OpenMPI} {
		q, tcp := Configure(other, false, false)
		if tcp.Pacing || q.GridCollectives {
			t.Errorf("%s should not have grid optimizations", other)
		}
	}
}

func TestConfigureTuningLevels(t *testing.T) {
	// Default: stock sysctls.
	_, tcp := Configure(MPICH2, false, false)
	if tcp.RmemMax != 131072 {
		t.Fatalf("untuned rmem_max = %d", tcp.RmemMax)
	}
	// TCP tuned: 4 MB ceilings; GridMPI also needs the middle value.
	_, tcp = Configure(GridMPI, true, false)
	if tcp.TCPRmem[1] != 4<<20 {
		t.Fatalf("GridMPI tuned middle value = %d, want 4 MB", tcp.TCPRmem[1])
	}
	_, tcp2 := Configure(MPICH2, true, false)
	if tcp2.TCPRmem[1] != 87380 {
		t.Fatalf("MPICH2 middle value should stay at its default, got %d", tcp2.TCPRmem[1])
	}
	// OpenMPI tuned: explicit 4 MB via mca parameters.
	prof, _ := Configure(OpenMPI, true, false)
	if prof.Buffers.Explicit != 4<<20 {
		t.Fatalf("OpenMPI tuned buffers = %+v", prof.Buffers)
	}
	// MPI tuned: Table 5 thresholds.
	prof, _ = Configure(MPICH2, true, true)
	if prof.EagerThreshold != 65<<20 {
		t.Fatalf("MPICH2 tuned threshold = %d", prof.EagerThreshold)
	}
	prof, _ = Configure(OpenMPI, true, true)
	if prof.EagerThreshold != 32<<20 {
		t.Fatalf("OpenMPI tuned threshold = %d", prof.EagerThreshold)
	}
	prof, _ = Configure(GridMPI, true, true)
	if prof.EagerThreshold != mpi.Infinite {
		t.Fatalf("GridMPI threshold should stay infinite")
	}
}

func TestMadeleineFastBufferModel(t *testing.T) {
	p := Profile(Madeleine)
	if !p.SerialRendezvous {
		t.Error("Madeleine must serialize rendezvous")
	}
	if p.SlowPathThreshold <= 147456 || p.SlowPathThreshold >= 152<<10 {
		t.Errorf("fast-buffer limit %d must sit between CG's 147456 and BT/SP's 155648", p.SlowPathThreshold)
	}
}

func TestMPICHG2Extension(t *testing.T) {
	p := Profile(MPICHG2)
	if p.ParallelStreams < 2 {
		t.Error("MPICH-G2 must stripe large messages over several streams")
	}
	if !p.GridCollectives {
		t.Error("MPICH-G2 collectives are topology-aware")
	}
}

func TestUnknownImplementationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Profile(unknown) did not panic")
		}
	}()
	Profile("LAM/MPI")
}

func TestFeaturesCoverTheFourImplementations(t *testing.T) {
	f := Features()
	if len(f) != 4 {
		t.Fatalf("features = %d rows", len(f))
	}
	for i, name := range All {
		if f[i].Name != name {
			t.Errorf("row %d = %s, want %s", i, f[i].Name, name)
		}
	}
}
