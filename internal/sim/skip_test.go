package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// wake is an executed event's (time, seq) and whether the watched
// process was parked when the event began: a wakeup Sleep runs in place
// finds the process running, a real one finds it parked.
type wake struct {
	stamp
	parked bool
}

// traceParked installs a tracer recording every executed event with
// p's parked state.
func traceParked(k *Kernel, p *Proc) *[]wake {
	var w []wake
	k.SetTracer(func(at Time, seq uint64) { w = append(w, wake{stamp{at, seq}, p.parked}) })
	return &w
}

func sameWakes(t *testing.T, got []wake, want ...wake) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("events (time, seq, parked) = %v, want %v", got, want)
	}
}

const ms = time.Millisecond

// TestSleepSkipsLoneWakeup: under Run, a sleeper with nothing else
// pending runs each wakeup in place, zero sleeps included, in the slots
// parked wakeups would take.
func TestSleepSkipsLoneWakeup(t *testing.T) {
	k := New(1)
	defer k.Close()
	p := k.Go("sleeper", func(p *Proc) {
		p.Sleep(ms)
		p.Sleep(0)
		p.Sleep(-ms)
		p.Sleep(2 * ms)
	})
	w := traceParked(k, p)
	k.Run()
	sameWakes(t, *w, wake{stamp{0, 1}, true}, wake{stamp{ms, 2}, false},
		wake{stamp{ms, 3}, false}, wake{stamp{ms, 4}, false}, wake{stamp{3 * ms, 5}, false})
	if !p.Done() || k.Now() != 3*ms || k.Executed != 5 {
		t.Errorf("done %v, clock %v, executed %d; want done at 3ms after 5 events", p.Done(), k.Now(), k.Executed)
	}
}

// TestSleepParksBehindDueEvent: a sleep parks when an event is due
// before its wakeup, whether it is earlier, at the same instant on the
// heap, or already queued for now, since each was scheduled first.
func TestSleepParksBehindDueEvent(t *testing.T) {
	k := New(1)
	defer k.Close()
	p := k.Go("sleeper", func(p *Proc) {
		k.After(ms, nop)
		p.Sleep(2 * ms) // the event at 1 ms is due first
		k.After(ms, nop)
		p.Sleep(ms) // the event at 3 ms was scheduled first
		k.Schedule(k.Now(), nop)
		p.Sleep(0) // the event queued for now runs first
		p.Sleep(ms)
	})
	w := traceParked(k, p)
	k.Run()
	sameWakes(t, *w, wake{stamp{0, 1}, true},
		wake{stamp{ms, 2}, true}, wake{stamp{2 * ms, 3}, true},
		wake{stamp{3 * ms, 4}, true}, wake{stamp{3 * ms, 5}, true},
		wake{stamp{3 * ms, 6}, true}, wake{stamp{3 * ms, 7}, true},
		wake{stamp{4 * ms, 8}, false})
}

// TestSleepParksPastRunUntilBound: a wakeup at or before RunUntil's
// bound runs in place, and one past it parks, so the process counts as
// unfinished and the clock stops at the bound (mpi.World.RunTimeout
// relies on both).
func TestSleepParksPastRunUntilBound(t *testing.T) {
	k := New(1)
	defer k.Close()
	p := k.Go("sleeper", func(p *Proc) {
		p.Sleep(ms)
		p.Sleep(ms) // exactly at the bound
		p.Sleep(5 * ms)
	})
	w := traceParked(k, p)
	k.RunUntil(2 * ms)
	if p.Done() || k.Now() != 2*ms || k.Pending() != 1 {
		t.Errorf("after RunUntil(2ms): done %v, clock %v, %d pending; want parked at 2ms with its wakeup pending",
			p.Done(), k.Now(), k.Pending())
	}
	k.Run()
	sameWakes(t, *w, wake{stamp{0, 1}, true}, wake{stamp{ms, 2}, false},
		wake{stamp{2 * ms, 3}, false}, wake{stamp{7 * ms, 4}, true})
}

// TestStepNeverSkips: outside Run and RunUntil there is no bound, so a
// bare Step loop parks at every sleep, also after a Run or a RunUntil
// has returned.
func TestStepNeverSkips(t *testing.T) {
	for _, before := range []func(k *Kernel){(*Kernel).Run, func(k *Kernel) { k.RunUntil(ms) }} {
		k := New(1)
		before(k)
		start := k.Now()
		p := k.Go("sleeper", func(p *Proc) {
			p.Sleep(0)
			p.Sleep(ms)
		})
		w := traceParked(k, p)
		for k.Step() {
		}
		sameWakes(t, *w, wake{stamp{start, 1}, true}, wake{stamp{start, 2}, true}, wake{stamp{start + ms, 3}, true})
		k.Close()
	}
}

// TestResumedProcNeverSkips: a process that another event resumes
// inline (Kernel.Resume) parks at its sleep, so the rest of that event
// keeps its own clock; once its own wakeup runs, it may skip again.
func TestResumedProcNeverSkips(t *testing.T) {
	k := New(1)
	defer k.Close()
	p := k.Go("parker", func(p *Proc) {
		p.Park()
		p.Sleep(ms)
		p.Sleep(ms)
	})
	var rest Time
	k.After(5*ms, func() {
		k.Resume(p)
		rest = k.Now()
	})
	w := traceParked(k, p)
	k.Run()
	if rest != 5*ms {
		t.Errorf("the resuming event went on at %v, want its own 5ms", rest)
	}
	sameWakes(t, *w, wake{stamp{0, 1}, true}, wake{stamp{5 * ms, 2}, true},
		wake{stamp{6 * ms, 3}, true}, wake{stamp{7 * ms, 4}, false})
}

// TestClosedKernelNeverSkips: a closed kernel schedules nothing, so a
// process still running on it stays parked at its next sleep instead
// of running on. A process running in its own wakeup sees a closed
// kernel only when it closes the kernel itself.
func TestClosedKernelNeverSkips(t *testing.T) {
	k := New(1)
	ran := false
	p := k.Go("closer", func(p *Proc) {
		k.Close()
		p.Sleep(ms)
		ran = true
	})
	k.Run()
	defer p.stop() // Close has let go of p: unwind it here
	if ran || k.Now() != 0 || k.Executed != 1 {
		t.Errorf("ran past the sleep %v, clock %v, executed %d; want parked at 0 after 1 event", ran, k.Now(), k.Executed)
	}
}

// TestSkipKeepsEventStream: a random scenario of processes that sleep
// (zero and random lengths), wait on and fire signals, and schedule
// plain events gives the same (time, seq) stream, the same log and the
// same event count under Run, which skips, as under a bare Step loop,
// which never does.
func TestSkipKeepsEventStream(t *testing.T) {
	skips := 0
	f := func(seed int64) bool {
		a, b := skipScenario(seed, false), skipScenario(seed, true)
		skips += a.skips
		if b.skips != 0 {
			t.Errorf("seed %d: a Step loop skipped %d wakeups", seed, b.skips)
		}
		return fmt.Sprint(a.events) == fmt.Sprint(b.events) && fmt.Sprint(a.log) == fmt.Sprint(b.log) && a.executed == b.executed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
	if skips == 0 {
		t.Fatal("no scenario skipped a wakeup")
	}
}

// scenarioRun is what one run of skipScenario observed.
type scenarioRun struct {
	events   []stamp
	log      []string
	executed uint64
	skips    int // events traced while a process ran in its own wakeup
}

// skipScenario runs the scenario seed draws, under Run or, with step
// set, under a bare Step loop.
func skipScenario(seed int64, step bool) scenarioRun {
	rng := rand.New(rand.NewSource(seed))
	k := New(1)
	defer k.Close()
	var run scenarioRun
	k.SetTracer(func(at Time, seq uint64) {
		run.events = append(run.events, stamp{at, seq})
		if k.woken != nil {
			run.skips++
		}
	})
	logf := func(format string, a ...any) {
		run.log = append(run.log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, a...))
	}
	signals := []*Signal{k.NewSignal(), k.NewSignal(), k.NewSignal()}
	delay := func() time.Duration { return time.Duration(rng.Intn(4)) * time.Microsecond }
	for i := range 1 + rng.Intn(4) {
		ops := make([]func(p *Proc), 1+rng.Intn(12))
		for j := range ops {
			switch s, d := signals[rng.Intn(len(signals))], delay(); rng.Intn(5) {
			case 0:
				ops[j] = func(p *Proc) { p.Sleep(0) }
			case 1:
				ops[j] = func(p *Proc) { p.Sleep(d) }
			case 2:
				ops[j] = func(p *Proc) { s.Wait(p) }
			case 3:
				ops[j] = func(p *Proc) { s.Fire() }
			default:
				ops[j] = func(p *Proc) { k.After(d, func() { logf("event of p%d op %d", i, j) }) }
			}
		}
		k.Go(fmt.Sprint("p", i), func(p *Proc) {
			for j, op := range ops {
				op(p)
				logf("p%d op %d", i, j)
			}
		})
	}
	if step {
		for k.Step() {
		}
	} else {
		k.Run()
	}
	run.executed = k.Executed
	return run
}
