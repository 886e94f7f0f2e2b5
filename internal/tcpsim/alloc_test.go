package tcpsim

import (
	"runtime"
	"testing"
)

// flowSink keeps the flows TestNewFlowAllocs builds on the heap.
var flowSink *Flow

// TestNewFlowAllocs locks a flow's construction at two allocations, the
// Flow and its write mutex, and at 528 bytes: every rank pair opens a
// flow, the round events are package-level functions taking the flow as
// their argument, so no callback is bound per flow, and the model's
// calibration is constants, so the flow carries only the config a run
// varies.
func TestNewFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	k, n := testbed()
	defer k.Close()
	path, cfg := gridPath(n), DefaultLinux26()
	allocs := testing.AllocsPerRun(100, func() {
		flowSink = NewFlow(k, path, cfg, Autotune)
	})
	if allocs > 2 {
		t.Fatalf("NewFlow allocates %v objects, want at most 2", allocs)
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		flowSink = NewFlow(k, path, cfg, Autotune)
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / calls; bytes > 528 {
		t.Fatalf("NewFlow allocates %d bytes, want at most 528", bytes)
	}
}
