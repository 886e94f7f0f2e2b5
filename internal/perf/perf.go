// Package perf implements the paper's measurement harnesses: the MPI
// pingpong of §3.1 (200 round trips per message size; minimum latency and
// maximum bandwidth reported) and the per-message bandwidth trace used for
// the slow-start study of §4.2.3 / Figure 9.
package perf

import (
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Point is one pingpong measurement: a message size with its best observed
// round-trip and the resulting bandwidth.
type Point struct {
	Size   int
	MinRTT time.Duration
	// Mbps is the MPI bandwidth as the paper plots it: payload bits over
	// the one-way time (half the round trip).
	Mbps float64
}

// OneWay returns half the best round trip.
func (p Point) OneWay() time.Duration { return p.MinRTT / 2 }

func bandwidth(size int, oneWay time.Duration) float64 {
	return float64(size) * 8 / oneWay.Seconds() / 1e6
}

// PingPong runs the paper's pingpong between ranks 0 and 1 of w: for each
// size, reps round trips; the minimum round trip is kept (eliminating
// "perturbations due to other users" — here, TCP ramp-up transients).
// The world must have exactly 2 ranks and must not have been run yet.
func PingPong(w *mpi.World, sizes []int, reps int) ([]Point, error) {
	points := make([]Point, 0, len(sizes))
	_, err := w.Run(func(r *mpi.Rank) {
		for _, size := range sizes {
			best := sim.Time(0)
			for rep := 0; rep < reps; rep++ {
				switch r.Rank() {
				case 0:
					t0 := r.Now()
					r.Send(1, rep, size)
					r.Recv(1, rep)
					if rtt := r.Now() - t0; best == 0 || rtt < best {
						best = rtt
					}
				case 1:
					r.Recv(0, rep)
					r.Send(0, rep, size)
				}
			}
			if r.Rank() == 0 {
				points = append(points, Point{
					Size:   size,
					MinRTT: best,
					Mbps:   bandwidth(size, best/2),
				})
			}
		}
	})
	return points, err
}

// TracePoint is one message of a bandwidth trace: when the round trip
// finished and the bandwidth that message achieved.
type TracePoint struct {
	T    time.Duration
	Mbps float64
}

// BandwidthTrace reproduces the Figure 9 protocol: count pingpong messages
// of the given size; for each, the time of completion and its one-way
// bandwidth, exposing the TCP slow-start/congestion-avoidance ramp.
func BandwidthTrace(w *mpi.World, size, count int) ([]TracePoint, error) {
	trace := make([]TracePoint, 0, count)
	_, err := w.Run(func(r *mpi.Rank) {
		for i := 0; i < count; i++ {
			switch r.Rank() {
			case 0:
				t0 := r.Now()
				r.Send(1, i, size)
				r.Recv(1, i)
				rtt := r.Now() - t0
				trace = append(trace, TracePoint{
					T:    r.Now(),
					Mbps: bandwidth(size, rtt/2),
				})
			case 1:
				r.Recv(0, i)
				r.Send(0, i, size)
			}
		}
	})
	return trace, err
}

// PowersOfTwoSizes returns the pingpong size grid of the paper's figures:
// 1 kB, 2 kB, ... up to max (inclusive when max is itself a power of two).
// It stops doubling before a size would pass max, so a max near
// math.MaxInt cannot overflow the grid.
func PowersOfTwoSizes(from, max int) []int {
	var sizes []int
	for s := from; s <= max; s *= 2 {
		sizes = append(sizes, s)
		if s > max/2 {
			break
		}
	}
	return sizes
}

// TimeTo returns the first trace time at which bandwidth reached the given
// level, or -1 if it never did.
func TimeTo(trace []TracePoint, mbps float64) time.Duration {
	for _, tp := range trace {
		if tp.Mbps >= mbps {
			return tp.T
		}
	}
	return -1
}

// MaxMbps returns the best bandwidth in a trace.
func MaxMbps(trace []TracePoint) float64 {
	best := 0.0
	for _, tp := range trace {
		if tp.Mbps > best {
			best = tp.Mbps
		}
	}
	return best
}
