package exp

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestTransientMarking: the marker survives wrapping, ignores nil, and
// leaves unmarked errors alone.
func TestTransientMarking(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	base := errors.New("connection refused")
	if !IsTransient(Transient(base)) {
		t.Error("marked error not transient")
	}
	if !IsTransient(fmt.Errorf("lease: %w", Transient(base))) {
		t.Error("marker lost through wrapping")
	}
	if IsTransient(base) {
		t.Error("unmarked error reported transient")
	}
	if got := Transient(base).Error(); got != base.Error() {
		t.Errorf("message changed: %q", got)
	}
	if !errors.Is(Transient(base), base) {
		t.Error("Unwrap broken: errors.Is lost the cause")
	}
}

// stubBackoff returns a Backoff whose sleeps are recorded, not slept,
// and whose jitter is deterministic (always the full half-delay).
func stubBackoff(window time.Duration, slept *[]time.Duration) Backoff {
	return Backoff{
		Window: window,
		Sleep:  func(d time.Duration) { *slept = append(*slept, d) },
		Rand:   func() float64 { return 1.0 },
	}
}

// TestBackoffRetriesUntilSuccess: transient failures retry with growing
// capped delays; the first success returns.
func TestBackoffRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := stubBackoff(time.Minute, &slept).Do(func() error {
		calls++
		if calls < 4 {
			return Transient(errors.New("refused"))
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d, want success on call 4", err, calls)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
	// With Rand pinned to 1.0 the delays are the full exponential
	// sequence: 100ms, 200ms, 400ms.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	for i, d := range slept {
		if d != want[i] {
			t.Errorf("delay %d = %v, want %v", i, d, want[i])
		}
	}
}

// TestBackoffCapsDelay: the per-retry delay stops doubling at
// backoffCap however long the outage lasts.
func TestBackoffCapsDelay(t *testing.T) {
	var slept []time.Duration
	stubBackoff(time.Minute, &slept).Do(func() error {
		return Transient(errors.New("down"))
	})
	if len(slept) == 0 || slept[len(slept)-1] != backoffCap {
		t.Fatalf("delays %v, want them to reach the %v cap", slept, backoffCap)
	}
	for _, d := range slept {
		if d > backoffCap {
			t.Errorf("delay %v exceeds the %v cap", d, backoffCap)
		}
	}
}

// TestBackoffPermanentFailsFast: an unmarked error returns immediately,
// no sleeping.
func TestBackoffPermanentFailsFast(t *testing.T) {
	var slept []time.Duration
	calls := 0
	rejected := errors.New("422 rejected")
	err := stubBackoff(time.Minute, &slept).Do(func() error {
		calls++
		return rejected
	})
	if !errors.Is(err, rejected) || calls != 1 || len(slept) != 0 {
		t.Fatalf("err=%v calls=%d slept=%v, want one call, no sleep", err, calls, slept)
	}
}

// TestBackoffWindowBudget: an op that never recovers stops once the
// summed intended delays would exceed the window, returning the last
// transient error — even with a stub Sleep that takes no wall time.
func TestBackoffWindowBudget(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := stubBackoff(time.Second, &slept).Do(func() error {
		calls++
		return Transient(fmt.Errorf("down %d", calls))
	})
	if err == nil || !IsTransient(err) {
		t.Fatalf("err = %v, want the last transient error", err)
	}
	var total time.Duration
	for _, d := range slept {
		total += d
	}
	if total > time.Second {
		t.Errorf("slept %v total, window was 1s", total)
	}
	if calls < 3 {
		t.Errorf("gave up after %d calls, expected several within the window", calls)
	}
}

// TestBackoffZeroWindowDisabled: the zero value retries nothing.
func TestBackoffZeroWindowDisabled(t *testing.T) {
	calls := 0
	err := Backoff{}.Do(func() error {
		calls++
		return Transient(errors.New("down"))
	})
	if calls != 1 || !IsTransient(err) {
		t.Fatalf("calls=%d err=%v, want exactly one attempt", calls, err)
	}
}
