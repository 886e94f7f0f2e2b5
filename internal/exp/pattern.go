package exp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/mpi"
)

// Patterns lists the SPMD pattern names PatternBody accepts.
var Patterns = []string{
	"pingpong", "ring", "alltoall", "bcast", "allreduce", "barrier",
	"gather", "scatter", "allgather", "reduce",
}

// CheckPattern validates a pattern name (CLI front-ends use it to reject
// typos at parse time instead of emitting all-ERR result sets).
func CheckPattern(name string) error {
	for _, p := range Patterns {
		if p == name {
			return nil
		}
	}
	return fmt.Errorf("unknown pattern %q (have %s)", name, strings.Join(Patterns, ", "))
}

// PatternBody builds the SPMD body for a named communication pattern
// (shared by cmd/gridsim, cmd/sweep and the pattern workload).
func PatternBody(pattern string, size, iters int) (func(*mpi.Rank), error) {
	switch pattern {
	case "pingpong":
		return func(r *mpi.Rank) {
			peer := r.Size() - 1
			for i := 0; i < iters; i++ {
				switch r.Rank() {
				case 0:
					r.Send(peer, i, size)
					r.Recv(peer, i)
				case peer:
					r.Recv(0, i)
					r.Send(0, i, size)
				}
			}
		}, nil
	case "ring":
		return func(r *mpi.Rank) {
			right := (r.Rank() + 1) % r.Size()
			left := (r.Rank() - 1 + r.Size()) % r.Size()
			for i := 0; i < iters; i++ {
				req := r.Isend(right, i, size)
				r.Recv(left, i)
				r.Wait(req)
			}
		}, nil
	case "alltoall":
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Alltoall(size)
			}
		}, nil
	case "bcast":
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Bcast(0, size)
			}
		}, nil
	case "allreduce":
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Allreduce(size)
			}
		}, nil
	case "barrier":
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Barrier()
			}
		}, nil
	case "gather":
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Gather(0, size)
			}
		}, nil
	case "scatter":
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Scatter(0, size)
			}
		}, nil
	case "allgather":
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Allgather(size)
			}
		}, nil
	case "reduce":
		return func(r *mpi.Rank) {
			for i := 0; i < iters; i++ {
				r.Reduce(0, size)
			}
		}, nil
	}
	return nil, CheckPattern(pattern)
}

// ParseSize parses a byte count with optional k/M/G suffixes (powers of
// two), e.g. "64k", "1M". Negative counts and counts that overflow an
// int are errors.
func ParseSize(s string) (int, error) {
	num := strings.TrimSpace(strings.ToLower(s))
	mult := 1
	switch {
	case strings.HasSuffix(num, "g"):
		mult, num = 1<<30, strings.TrimSuffix(num, "g")
	case strings.HasSuffix(num, "m"):
		mult, num = 1<<20, strings.TrimSuffix(num, "m")
	case strings.HasSuffix(num, "k"):
		mult, num = 1<<10, strings.TrimSuffix(num, "k")
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > math.MaxInt/mult {
		return 0, fmt.Errorf("size %q is negative or too large", s)
	}
	return n * mult, nil
}
