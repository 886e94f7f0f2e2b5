package exp

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/mpi"
)

// patternSteps is each SPMD pattern's iteration i on rank r.
var patternSteps = []struct {
	name string
	step func(r *mpi.Rank, i, size int)
}{
	{"pingpong", func(r *mpi.Rank, i, size int) {
		peer := r.Size() - 1
		switch r.Rank() {
		case 0:
			r.Send(peer, i, size)
			r.Recv(peer, i)
		case peer:
			r.Recv(0, i)
			r.Send(0, i, size)
		}
	}},
	{"ring", func(r *mpi.Rank, i, size int) {
		right := (r.Rank() + 1) % r.Size()
		left := (r.Rank() - 1 + r.Size()) % r.Size()
		req := r.Isend(right, i, size)
		r.Recv(left, i)
		r.Wait(req)
	}},
	{"alltoall", func(r *mpi.Rank, _, size int) { r.Alltoall(size) }},
	{"bcast", func(r *mpi.Rank, _, size int) { r.Bcast(0, size) }},
	{"allreduce", func(r *mpi.Rank, _, size int) { r.Allreduce(size) }},
	{"barrier", func(r *mpi.Rank, _, _ int) { r.Barrier() }},
	{"gather", func(r *mpi.Rank, _, size int) { r.Gather(0, size) }},
	{"scatter", func(r *mpi.Rank, _, size int) { r.Scatter(0, size) }},
	{"allgather", func(r *mpi.Rank, _, size int) { r.Allgather(size) }},
	{"reduce", func(r *mpi.Rank, _, size int) { r.Reduce(0, size) }},
}

// Patterns lists the SPMD pattern names PatternBody accepts.
var Patterns = func() []string {
	names := make([]string, len(patternSteps))
	for i, p := range patternSteps {
		names[i] = p.name
	}
	return names
}()

// CheckPattern validates a pattern name (CLI front-ends use it to reject
// typos at parse time instead of emitting all-ERR result sets).
func CheckPattern(name string) error {
	if slices.Contains(Patterns, name) {
		return nil
	}
	return fmt.Errorf("unknown pattern %q (have %s)", name, strings.Join(Patterns, ", "))
}

// PatternBody builds the SPMD body for a named communication pattern
// (shared by cmd/gridsim, cmd/sweep and the pattern workload): iters
// iterations of the pattern's step.
func PatternBody(pattern string, size, iters int) (func(*mpi.Rank), error) {
	k := slices.Index(Patterns, pattern)
	if k < 0 {
		return nil, CheckPattern(pattern)
	}
	step := patternSteps[k].step
	return func(r *mpi.Rank) {
		for i := 0; i < iters; i++ {
			step(r, i, size)
		}
	}, nil
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
