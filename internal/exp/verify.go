package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// VerifyMismatch is one cache entry whose stored result the current
// simulator no longer reproduces.
type VerifyMismatch struct {
	Fingerprint string
	Name        string
	Detail      string
}

// VerifyReport summarizes one cache-verification pass.
type VerifyReport struct {
	// Entries is the number of committed entries in the directory.
	Entries int
	// Sampled is how many the fraction selected for re-execution.
	Sampled int
	// Unreadable entries failed to load (corrupt, foreign schema); a
	// normal cache lookup would treat them as misses and overwrite them.
	Unreadable int
	// Mismatches lists re-run entries whose results diverged.
	Mismatches []VerifyMismatch
}

// OK reports whether the pass produced evidence of reproduction: no
// sampled entry mismatched, and — when anything was sampled — at least
// one entry was actually re-executed. A pass whose every sampled entry
// was unreadable (e.g. after a DiskSchemaVersion bump) verified nothing
// and must not read as a clean bill of health.
func (r VerifyReport) OK() bool {
	if len(r.Mismatches) > 0 {
		return false
	}
	return r.Sampled == 0 || r.Unreadable < r.Sampled
}

// String is the multi-line report -cache-verify prints: the pass
// summary plus one line per mismatched entry.
func (r VerifyReport) String() string {
	s := fmt.Sprintf("cache verify: %d of %d entries sampled, %d mismatched, %d unreadable",
		r.Sampled, r.Entries, len(r.Mismatches), r.Unreadable)
	for _, m := range r.Mismatches {
		s += fmt.Sprintf("\n  MISMATCH %s %s: %s", m.Fingerprint, m.Name, m.Detail)
	}
	return s
}

// sampledBy reports whether a fingerprint falls into the deterministic
// sample of fraction p. Like Shard.owns, it keys on the fingerprint's own
// hash bits, so repeated or distributed verification passes select the
// same subset for the same p, and growing p only adds entries.
func sampledBy(fp string, p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	v, _ := strconv.ParseUint(fp, 16, 64) // a fingerprint is 16 hex digits
	return float64(v>>11)/(1<<53) < p
}

// Verify re-executes a deterministic fingerprint-keyed sample fraction p
// of the cache's entries on a storeless Runner of the given worker count
// and compares the fresh results byte-for-byte (canonical JSON) with the
// stored ones. It is the stale-simulator detector: after a change to the
// simulation kernel or the models above it, a non-empty mismatch list
// means the code now computes different results and DiskSchemaVersion
// must be bumped (with goldens regenerated); an empty one is direct
// evidence the change preserved every sampled trajectory.
func (c *DiskCache) Verify(p float64, workers int) (VerifyReport, error) {
	fps, err := c.Fingerprints()
	if err != nil {
		return VerifyReport{}, err
	}
	rep := VerifyReport{Entries: len(fps)}
	var stored []Result
	var exps []Experiment
	for _, fp := range fps { // sorted: deterministic work and report order
		if !sampledBy(fp, p) {
			continue
		}
		rep.Sampled++
		res, ok := c.Load(fp)
		if !ok {
			rep.Unreadable++
			continue
		}
		stored = append(stored, res)
		exps = append(exps, res.Exp)
	}
	// A storeless Runner computes every cell fresh and returns the results
	// in input order.
	for i, fresh := range NewRunner(workers).RunAll(exps) {
		if d := diffResults(stored[i], fresh); d != "" {
			rep.Mismatches = append(rep.Mismatches, VerifyMismatch{
				Fingerprint: exps[i].Fingerprint(),
				Name:        exps[i].Name(),
				Detail:      d,
			})
		}
	}
	return rep, nil
}

// diffResults compares two results by canonical JSON and describes the
// first difference ("" when identical).
func diffResults(stored, fresh Result) string {
	if fresh.Err != "" {
		return "re-run failed: " + fresh.Err
	}
	a, err1 := json.Marshal(stored)
	b, err2 := json.Marshal(fresh)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("unmarshalable result (%v, %v)", err1, err2)
	}
	if bytes.Equal(a, b) {
		return ""
	}
	// Locate the first byte divergence for a actionable message.
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 30
	if lo < 0 {
		lo = 0
	}
	hiA, hiB := i+30, i+30
	if hiA > len(a) {
		hiA = len(a)
	}
	if hiB > len(b) {
		hiB = len(b)
	}
	return fmt.Sprintf("results diverge at byte %d: stored …%s… vs fresh …%s…", i, a[lo:hiA], b[lo:hiB])
}
