package tcpsim

import "testing"

// flowSink keeps the flows TestNewFlowAllocs builds on the heap.
var flowSink *Flow

// TestNewFlowAllocs locks a flow's construction at two allocations, the
// Flow and its write mutex: every rank pair opens a flow, and the round
// events are package-level functions taking the flow as their argument,
// so no callback is bound per flow.
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
}
