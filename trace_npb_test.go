package repro

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/npb"
)

// TestNPBEventOrderTrace locks the 32 cells of the Figure 10 matrix at
// scale 0.01 on Grid(8) by one line per cell: its name, the sha256 of
// its executed (time, seq) stream and the sha256 of its serialized
// Result. The cells reach what the other event-order goldens do not:
// Madeleine's slow-path stall and serial rendezvous, OpenMPI's fragment
// delay and nonblocking rendezvous sends. The golden was recorded while
// every nonblocking send still ran as a process of its own.
func TestNPBEventOrderTrace(t *testing.T) {
	var out bytes.Buffer
	for _, e := range exp.NPBMatrix(exp.Grid(8), 0.01, npb.Names).Experiments() {
		events := sha256.New()
		var res exp.Result
		traceEvents(events, func() { res = exp.Run(e) })
		if res.Err != "" || res.DNF {
			t.Fatalf("%s: err=%q dnf=%v", e.Name(), res.Err, res.DNF)
		}
		fmt.Fprintf(&out, "%s %x %x\n", e.Name(), events.Sum(nil), sha256.Sum256(exp.MarshalResults([]exp.Result{res})))
	}
	checkGolden(t, "event_order_npb.golden", out.Bytes())
}
