package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// DiskCache is a content-addressed, persistent experiment-result store:
// one JSON file per experiment fingerprint under a single directory.
// Because every Result is a pure function of its Experiment and the
// fingerprint is a stable content hash of the experiment definition, a
// cache directory can be reused across processes — shared between
// cmd/gridrepro, cmd/sweep and cmd/gridsim invocations, served to other
// machines by cmd/sweepd, or sharded across machines — without ever
// serving a result for the wrong configuration.
//
// Writes go to a temporary file in the same directory followed by an
// atomic rename, so a crashed or concurrent writer can never leave a
// half-written entry behind under the final name. Corrupt, truncated or
// mismatched entries (e.g. from an older experiment schema whose
// fingerprints collide textually) are treated as misses and silently
// re-run, then overwritten with a fresh entry.
type DiskCache struct {
	dir string
}

// DiskSchemaVersion is the entry-format generation. Entries written
// before versioning existed carry no schema field and are read as
// version 1. When a future change makes old entries untrustworthy
// despite textually matching fingerprints, bump this: mismatched entries
// become clean misses (re-run and overwritten) instead of corrupt reads.
const DiskSchemaVersion = 1

// diskEntry is the stored envelope: the result plus the schema
// generation that wrote it.
type diskEntry struct {
	Schema int `json:"schema,omitempty"`
	Result
}

// NewDiskCache opens (creating if necessary) a cache directory.
func NewDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("exp: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: cache dir: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *DiskCache) Dir() string { return c.dir }

// path is the entry file for one fingerprint.
func (c *DiskCache) path(fp string) string {
	return filepath.Join(c.dir, fp+".json")
}

// decodeEntry parses and verifies one schema-version envelope against
// the fingerprint it claims to be: the blob must parse, carry the
// current DiskSchemaVersion generation (entries written before
// versioning read as 1), and the embedded experiment must hash back to
// fp. It is the single trust gate shared by DiskCache.Load, the
// RemoteStore client, and the cmd/sweepd ingest path — wherever an
// entry crosses a process boundary, it passes through here first.
func decodeEntry(blob []byte, fp string) (Result, error) {
	var entry diskEntry
	if err := json.Unmarshal(blob, &entry); err != nil {
		return Result{}, fmt.Errorf("exp: unparsable cache entry: %v", err)
	}
	schema := entry.Schema
	if schema == 0 {
		schema = 1 // pre-versioning entries
	}
	if schema != DiskSchemaVersion {
		return Result{}, fmt.Errorf("exp: foreign schema generation %d (this build writes %d)", schema, DiskSchemaVersion)
	}
	if got := entry.Exp.Fingerprint(); got != fp {
		return Result{}, fmt.Errorf("exp: entry experiment hashes to %s, not %s", got, fp)
	}
	return entry.Result, nil
}

// Load reads one entry. Any defect — missing file, unparsable JSON, a
// foreign schema generation, or an entry whose stored experiment does
// not hash back to the requested fingerprint — is a miss.
func (c *DiskCache) Load(fp string) (Result, bool) {
	blob, err := os.ReadFile(c.path(fp))
	if err != nil {
		return Result{}, false
	}
	res, err := decodeEntry(blob, fp)
	if err != nil {
		return Result{}, false
	}
	return res, true
}

// Store writes one entry atomically: marshal, write to a temp file in
// the cache directory, rename over the final name.
func (c *DiskCache) Store(fp string, res Result) error {
	blob, err := json.MarshalIndent(diskEntry{Schema: DiskSchemaVersion, Result: res}, "", " ")
	if err != nil {
		return fmt.Errorf("exp: marshal cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, fp+".tmp-*")
	if err != nil {
		return fmt.Errorf("exp: cache temp file: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: write cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: close cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(fp)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: commit cache entry: %w", err)
	}
	return nil
}

// EvictPolicy bounds a cache directory's age and size. Zero fields mean
// no bound on that dimension.
type EvictPolicy struct {
	// MaxAge removes entries whose file has not been (re)written for
	// longer than this.
	MaxAge time.Duration
	// MaxBytes removes oldest-first entries until the directory's
	// committed entries total at most this many bytes.
	MaxBytes int64
}

// sizeToken matches the byte-size spellings ParseSize accepts (digits
// with an optional k/M/G suffix). Checked before time.ParseDuration so
// "512m" means 512 MiB, consistent with every other size flag — not a
// 512-minute age bound.
var sizeToken = regexp.MustCompile(`^[0-9]+[kKmMgG]?$`)

// ParseEvictPolicy parses a CLI eviction spec: comma-separated bounds,
// each either a byte size with k/M/G suffixes (size bound, e.g. "512M")
// or a Go duration (age bound, e.g. "720h").
func ParseEvictPolicy(s string) (EvictPolicy, error) {
	var p EvictPolicy
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if sizeToken.MatchString(tok) {
			n, err := ParseSize(tok)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("exp: bad size bound %q", tok)
			}
			p.MaxBytes = int64(n)
			continue
		}
		d, err := time.ParseDuration(tok)
		if err != nil {
			return p, fmt.Errorf("exp: bad eviction bound %q (want a size like 512M or a duration like 720h)", tok)
		}
		if d <= 0 {
			return p, fmt.Errorf("exp: non-positive age bound %q", tok)
		}
		p.MaxAge = d
	}
	if p == (EvictPolicy{}) {
		return p, fmt.Errorf("exp: empty eviction spec %q", s)
	}
	return p, nil
}

// EvictReport summarises one eviction pass.
type EvictReport struct {
	Scanned        int
	Removed        int
	RemovedBytes   int64
	RemainingBytes int64
}

// String is the one-line pass summary the -cache-evict flag prints.
func (r EvictReport) String() string {
	return fmt.Sprintf("cache evict: removed %d of %d entries (%d bytes), %d bytes remain",
		r.Removed, r.Scanned, r.RemovedBytes, r.RemainingBytes)
}

// Evict applies an age/size bound to the cache directory's entries:
// entries older than MaxAge go first, then oldest-first entries until the
// total is within MaxBytes. Files that are not fingerprint-named entries
// are left alone, except that stale temp files from crashed writers
// (older than an hour) are cleaned up as a side effect. Eviction is
// maintenance, not correctness: a concurrently re-written entry simply
// survives as a fresh file.
func (c *DiskCache) Evict(p EvictPolicy) (EvictReport, error) {
	dirEntries, err := os.ReadDir(c.dir)
	if err != nil {
		return EvictReport{}, err
	}
	type file struct {
		name string
		size int64
		mod  time.Time
	}
	var files []file
	var rep EvictReport
	now := time.Now()
	for _, e := range dirEntries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent rename/remove
		}
		if strings.Contains(e.Name(), ".tmp-") {
			if now.Sub(info.ModTime()) > time.Hour {
				os.Remove(filepath.Join(c.dir, e.Name()))
			}
			continue
		}
		if _, ok := entryFingerprint(e.Name()); !ok {
			continue
		}
		files = append(files, file{e.Name(), info.Size(), info.ModTime()})
	}
	rep.Scanned = len(files)
	// Oldest first; names break mtime ties so the pass is deterministic.
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].name < files[j].name
	})
	var total int64
	for _, f := range files {
		total += f.size
	}
	remove := func(f file) {
		if os.Remove(filepath.Join(c.dir, f.name)) == nil {
			rep.Removed++
			rep.RemovedBytes += f.size
			total -= f.size
		}
	}
	kept := files[:0]
	for _, f := range files {
		if p.MaxAge > 0 && now.Sub(f.mod) > p.MaxAge {
			remove(f)
		} else {
			kept = append(kept, f)
		}
	}
	if p.MaxBytes > 0 {
		for _, f := range kept {
			if total <= p.MaxBytes {
				break
			}
			remove(f)
		}
	}
	rep.RemainingBytes = total
	return rep, nil
}

// Len counts the committed entries in the cache directory, as
// Fingerprints lists them.
func (c *DiskCache) Len() (int, error) {
	fps, err := c.Fingerprints()
	return len(fps), err
}

// entryFingerprint returns the fingerprint a file name stores an entry
// for, and whether the name is an entry's at all.
func entryFingerprint(name string) (string, bool) {
	fp, ok := strings.CutSuffix(name, ".json")
	return fp, ok && fingerprintPat.MatchString(fp)
}

// Fingerprints lists the committed entry keys, sorted. Only file names
// that are actually fingerprints count — in-flight temp files and stray
// foreign .json files in the directory are excluded, so Len, Verify,
// Evict and the sync and index paths built on this enumeration never
// count, chase or delete keys no Load could serve. Entries are not
// verified (Load does that when they are read).
func (c *DiskCache) Fingerprints() ([]string, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var fps []string
	for _, e := range entries {
		if fp, ok := entryFingerprint(e.Name()); ok && !e.IsDir() {
			fps = append(fps, fp)
		}
	}
	sort.Strings(fps)
	return fps, nil
}
