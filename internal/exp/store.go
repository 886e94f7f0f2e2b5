package exp

// Store is a persistent backing layer for a Runner's in-memory result
// cache, keyed by experiment fingerprint (Experiment.Fingerprint — the
// stable content hash of the normalized experiment definition, frozen
// since the wire encoding was fixed in the Topology redesign).
//
// The contract every implementation must honor:
//
//   - Load returns a result only when it is trustworthy for exactly
//     that fingerprint: the entry parses, carries the current
//     DiskSchemaVersion generation, and its embedded experiment hashes
//     back to the requested key. Anything less is a miss (ok == false),
//     never an error — the Runner simply re-executes the experiment and
//     overwrites the entry.
//   - Store persists a result so a later Load of the same fingerprint
//     (from this or any other process) can serve it, and is idempotent:
//     concurrent or repeated stores of one fingerprint leave exactly
//     one valid entry. Because a Result is a pure function of its
//     Experiment, colliding writers always carry the same payload.
//   - Both methods are safe for concurrent use by many goroutines.
//
// DiskCache implements the interface over a local directory; RemoteStore
// implements it over HTTP against a cmd/sweepd server, with an optional
// DiskCache as a read-through/write-behind tier.
type Store interface {
	Load(fingerprint string) (Result, bool)
	Store(fingerprint string, res Result) error
}
