package exp

import (
	"errors"
	"math/rand/v2"
	"time"
)

// transientError marks a failure worth retrying: the operation did not
// happen (or cannot be known to have happened) because of a condition
// expected to clear on its own — a connection refused while a server
// restarts, a timeout, a 5xx. Permanent failures (4xx rejections,
// protocol violations) are never wrapped, so retry loops fail fast on
// them.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// Transient marks err as retryable for Backoff.Do and IsTransient.
// A nil error stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientError{err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// retryable via Transient.
func IsTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

// Backoff retries transient failures with capped exponential delays and
// equal jitter (half the delay fixed, half random — spreading a fleet's
// reconnection stampede after a sweepd restart). The delays double from
// backoffBase up to backoffCap. The zero value retries nothing: Window
// is the opt-in.
type Backoff struct {
	// Window is the total delay budget across all retries of one
	// operation; once the budget would be exceeded the last transient
	// error is returned. Zero disables retrying entirely.
	Window time.Duration

	// Sleep and Rand are test seams; nil means time.Sleep and the
	// shared math/rand source.
	Sleep func(time.Duration)
	Rand  func() float64
}

// DefaultRetryWindow is the fleet CLI's transient-failure budget: long
// enough to ride through a sweepd restart (process replacement plus
// journal replay), short enough that a genuinely dead control plane
// fails the caller in well under a minute.
const DefaultRetryWindow = 30 * time.Second

// backoffBase is a Backoff's first delay, and backoffCap bounds any one.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// Do runs op, retrying while it returns a Transient-marked error and
// the delay budget lasts. The first non-transient result (success or
// permanent failure) is returned as-is; an exhausted budget returns
// the last transient error.
func (b Backoff) Do(op func() error) error {
	err := op()
	if err == nil || !IsTransient(err) || b.Window <= 0 {
		return err
	}
	sleep, rnd := b.Sleep, b.Rand
	if sleep == nil {
		sleep = time.Sleep
	}
	if rnd == nil {
		rnd = rand.Float64
	}
	// The budget is accounted in intended delay, not wall clock, so a
	// stubbed Sleep cannot turn an always-failing op into a spin loop.
	var spent time.Duration
	for delay := backoffBase; ; delay = min(2*delay, backoffCap) {
		d := delay/2 + time.Duration(rnd()*float64(delay/2))
		if spent+d > b.Window {
			return err
		}
		sleep(d)
		spent += d
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
	}
}
