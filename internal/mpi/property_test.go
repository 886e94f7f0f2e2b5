package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tcpsim"
)

// TestPropertyFIFOPerTag checks MPI's non-overtaking guarantee: for any
// random schedule of messages, receives on a given (source, tag) match in
// send order.
func TestPropertyFIFOPerTag(t *testing.T) {
	prop := func(seed int64, nMsgsRaw uint8) bool {
		nMsgs := int(nMsgsRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		type msg struct {
			tag  int
			size int
		}
		msgs := make([]msg, nMsgs)
		perTag := make(map[int][]int) // tag -> sizes in send order
		for i := range msgs {
			m := msg{tag: rng.Intn(4), size: rng.Intn(100<<10) + 1}
			msgs[i] = m
			perTag[m.tag] = append(perTag[m.tag], m.size)
		}
		// Receive order: a random interleaving that respects nothing —
		// the engine must still match FIFO within each tag.
		recvOrder := make([]int, 0, nMsgs)
		remaining := make(map[int]int)
		for _, m := range msgs {
			remaining[m.tag]++
		}
		for len(recvOrder) < nMsgs {
			tag := rng.Intn(4)
			if remaining[tag] > 0 {
				remaining[tag]--
				recvOrder = append(recvOrder, tag)
			}
		}

		k, w := newWorld(t, Reference(), tcpsim.Tuned4MB(), 1, seed%2 == 0)
		defer k.Close()
		got := make(map[int][]int64)
		_, err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				for _, m := range msgs {
					r.Send(1, m.tag, m.size)
				}
				return
			}
			for _, tag := range recvOrder {
				st := r.Recv(0, tag)
				got[tag] = append(got[tag], st.Size)
			}
		})
		if err != nil {
			return false
		}
		for tag, sizes := range perTag {
			if len(got[tag]) != len(sizes) {
				return false
			}
			for i, sz := range sizes {
				if got[tag][i] != int64(sz) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyByteConservation checks that the census never loses bytes:
// total payload received equals total payload sent for arbitrary fan-in.
func TestPropertyByteConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, w := newWorld(t, Reference(), tcpsim.Tuned4MB(), 2, true)
		defer k.Close()
		counts := make([]int, 4)
		sizes := make([][]int, 4)
		var want int64
		for r := 1; r < 4; r++ {
			n := rng.Intn(6) + 1
			counts[r] = n
			for i := 0; i < n; i++ {
				sz := rng.Intn(200<<10) + 1
				sizes[r] = append(sizes[r], sz)
				want += int64(sz)
			}
		}
		var got int64
		_, err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				total := counts[1] + counts[2] + counts[3]
				for i := 0; i < total; i++ {
					st := r.Recv(AnySource, AnyTag)
					got += st.Size
				}
				return
			}
			for _, sz := range sizes[r.Rank()] {
				r.Send(0, 0, sz)
			}
		})
		return err == nil && got == want && w.Stats().P2PBytes == want
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCollectivesComplete runs random collective sequences on
// random world shapes and checks they all terminate without deadlock.
func TestPropertyCollectivesComplete(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perSite := []int{1, 2, 4}[rng.Intn(3)]
		prof := Reference()
		prof.GridCollectives = rng.Intn(2) == 0
		k, w := newWorld(t, prof, tcpsim.Tuned4MB(), perSite, true)
		defer k.Close()
		nOps := rng.Intn(4) + 1
		ops := make([]int, nOps)
		argn := make([]int, nOps)
		roots := make([]int, nOps)
		for i := range ops {
			ops[i] = rng.Intn(5)
			argn[i] = rng.Intn(256<<10) + 1
			roots[i] = rng.Intn(2 * perSite)
		}
		_, err := w.Run(func(r *Rank) {
			for i, op := range ops {
				switch op {
				case 0:
					r.Bcast(roots[i], argn[i])
				case 1:
					r.Allreduce(argn[i])
				case 2:
					r.Reduce(roots[i], argn[i])
				case 3:
					r.Alltoall(argn[i] / (2 * perSite))
				case 4:
					r.Barrier()
				}
			}
		})
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
