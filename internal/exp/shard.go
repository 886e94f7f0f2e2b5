package exp

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard is one slice of a sweep matrix for cross-machine execution:
// shard Index of Count (1-based, as the CLI spells it: "-shard 2/4").
//
// The partition is keyed by experiment fingerprint, so it is
// deterministic, independent of sweep expansion order, and stable across
// processes and machines: every shard selects a disjoint subset and the
// union over all shards is exactly the full matrix. Because DiskCache
// entries are content-addressed by the same fingerprints, the shard
// cache directories merge by plain file copy (`cp shard*/cache/*.json
// merged/`), after which the full matrix replays entirely from the
// merged store.
type Shard struct {
	Index int
	Count int
}

// ParseShard parses the CLI form "i/n" with 1 ≤ i ≤ n.
func ParseShard(s string) (Shard, error) {
	iStr, nStr, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("exp: bad shard %q (want i/n, e.g. 2/4)", s)
	}
	i, err1 := strconv.Atoi(strings.TrimSpace(iStr))
	n, err2 := strconv.Atoi(strings.TrimSpace(nStr))
	if err1 != nil || err2 != nil || n < 1 || i < 1 || i > n {
		return Shard{}, fmt.Errorf("exp: bad shard %q (want i/n with 1 ≤ i ≤ n)", s)
	}
	return Shard{Index: i, Count: n}, nil
}

// String renders the CLI spelling, "i/n".
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// IsAll reports the degenerate whole-matrix shard (zero value or 1/1).
func (s Shard) IsAll() bool { return s.Count <= 1 }

// owns reports whether this shard is responsible for a fingerprint.
func (s Shard) owns(fp string) bool {
	return s.IsAll() || shardOf(fp, s.Count) == s.Index
}

// shardOf is the index of the shard of n that owns a fingerprint.
func shardOf(fp string, n int) int {
	if n <= 1 {
		return 1
	}
	// The fingerprint is 16 hex characters of SHA-256: parse it as the
	// partition key instead of re-hashing.
	v, err := strconv.ParseUint(fp, 16, 64)
	if err != nil {
		// Unreachable for Fingerprint output; fail closed to shard 1 so
		// no experiment is ever silently dropped from every shard.
		return 1
	}
	return int(v%uint64(n)) + 1
}

// Select returns the experiments this shard owns, preserving order.
func (s Shard) Select(exps []Experiment) []Experiment {
	if s.IsAll() {
		return exps
	}
	var out []Experiment
	for _, e := range exps {
		if s.owns(e.Fingerprint()) {
			out = append(out, e)
		}
	}
	return out
}
