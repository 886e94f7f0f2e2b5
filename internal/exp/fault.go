package exp

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Fault event kinds.
const (
	FaultDown   = "down"   // take a site uplink or host NIC down
	FaultUp     = "up"     // bring it back
	FaultLoss   = "loss"   // set an injected per-round loss probability
	FaultJitter = "jitter" // set a one-way latency jitter amplitude
	FaultCrash  = "crash"  // kill a host: its NIC goes down and never comes back
)

// FaultEvent is one timed fault: at virtual time At, apply Kind to the
// named target. Site targets the site's WAN uplink (both directions), Host
// the host's NIC (both directions); loss and jitter events may omit the
// target to hit every site uplink; crash events require a host and take it
// down for the rest of the run. Like the Experiment that embeds it, the
// JSON encoding is frozen (fingerprint input): new fields must be omitempty
// with byte-identical zero values.
type FaultEvent struct {
	At   time.Duration `json:"at"`
	Kind string        `json:"kind"`
	Site string        `json:"site,omitempty"`
	Host string        `json:"host,omitempty"`
	// Loss is the injected per-round loss probability (loss events); 0
	// clears a previous injection.
	Loss float64 `json:"loss,omitempty"`
	// Jitter is the injected one-way latency jitter amplitude (jitter
	// events); each affected round adds uniform [0, Jitter) drawn from the
	// kernel RNG. 0 clears.
	Jitter time.Duration `json:"jitter,omitempty"`
}

// FaultPlan is a seeded, replayable schedule of network faults. Events are
// injected as ordinary kernel events before the workload spawns, and every
// random draw they cause comes from the kernel RNG seeded with Seed — so a
// faulted run is exactly as deterministic (and fingerprint-cacheable) as a
// healthy one. The zero value (and nil) means no faults and the stock seed,
// and marshals to bytes identical to the pre-fault encoding.
type FaultPlan struct {
	// Seed replaces the kernel's stock seed (1) when non-zero, giving
	// distinct replicas of the same fault schedule distinct loss draws.
	Seed   int64        `json:"seed,omitempty"`
	Events []FaultEvent `json:"events,omitempty"`
}

// IsZero reports whether the plan (possibly nil) injects nothing and keeps
// the stock seed.
func (p *FaultPlan) IsZero() bool {
	return p == nil || (p.Seed == 0 && len(p.Events) == 0)
}

// kernelSeed returns the sim.New seed the plan asks for: the stock seed 1
// unless the plan sets its own.
func (p *FaultPlan) kernelSeed() int64 {
	if p == nil || p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// clone deep-copies the plan (nil-safe), so cached results can hand it out
// without sharing mutable state.
func (p *FaultPlan) clone() *FaultPlan {
	if p == nil {
		return nil
	}
	out := *p
	out.Events = append([]FaultEvent(nil), p.Events...)
	return &out
}

// String is the plan's label fragment in experiment names (presentation
// only — the cache key hashes the JSON, never this).
func (p *FaultPlan) String() string {
	if p.IsZero() {
		return "none"
	}
	if p.Seed != 0 {
		return fmt.Sprintf("%dev,seed=%d", len(p.Events), p.Seed)
	}
	return fmt.Sprintf("%dev", len(p.Events))
}

// Validate checks the plan's internal consistency without a network: event
// times, kinds, target exclusivity and parameter ranges. Target existence
// is checked against the topology at injection time.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for i, ev := range p.Events {
		prefix := fmt.Sprintf("exp: fault event %d (%s at %v)", i, ev.Kind, ev.At)
		if ev.At < 0 {
			return fmt.Errorf("%s: negative time", prefix)
		}
		if ev.Site != "" && ev.Host != "" {
			return fmt.Errorf("%s: site %q and host %q are mutually exclusive", prefix, ev.Site, ev.Host)
		}
		switch ev.Kind {
		case FaultDown, FaultUp:
			if ev.Site == "" && ev.Host == "" {
				return fmt.Errorf("%s: needs a site or host target", prefix)
			}
			if ev.Loss != 0 || ev.Jitter != 0 {
				return fmt.Errorf("%s: loss/jitter parameters belong on loss/jitter events", prefix)
			}
		case FaultLoss:
			if !(ev.Loss >= 0 && ev.Loss < 1) {
				return fmt.Errorf("%s: loss probability %v outside [0,1)", prefix, ev.Loss)
			}
			if ev.Jitter != 0 {
				return fmt.Errorf("%s: jitter parameter on a loss event", prefix)
			}
		case FaultJitter:
			if ev.Jitter < 0 {
				return fmt.Errorf("%s: negative jitter", prefix)
			}
			if ev.Loss != 0 {
				return fmt.Errorf("%s: loss parameter on a jitter event", prefix)
			}
		case FaultCrash:
			// A crash is a node failure, so it only makes sense against a
			// host; a site-wide outage is a down event.
			if ev.Host == "" {
				return fmt.Errorf("%s: needs a host target (site outages are down events)", prefix)
			}
			if ev.Loss != 0 || ev.Jitter != 0 {
				return fmt.Errorf("%s: loss/jitter parameters belong on loss/jitter events", prefix)
			}
			for _, other := range p.Events {
				if other.Kind == FaultUp && other.Host == ev.Host && other.At >= ev.At {
					return fmt.Errorf("%s: host %q comes back up at %v, but a crashed host never recovers (use down/up for transient outages)",
						prefix, ev.Host, other.At)
				}
			}
		default:
			return fmt.Errorf("%s: unknown kind (have down, up, loss, jitter, crash)", prefix)
		}
	}
	return nil
}

// inject resolves every event's target links against the built network and
// schedules the fault actions as ordinary kernel events. Called after
// Topology.Build and before the workload spawns, so fault events carry the
// earliest sequence numbers of their instant and replay identically on
// every run. Nil-safe: an absent plan schedules nothing.
func (p *FaultPlan) inject(k *sim.Kernel, net *netsim.Network) error {
	if p == nil {
		return nil
	}
	for i, ev := range p.Events {
		links, err := p.resolve(net, ev)
		if err != nil {
			return fmt.Errorf("exp: fault event %d: %w", i, err)
		}
		k.Schedule(ev.At, func() { ev.apply(links) })
	}
	return nil
}

// apply sets the event's fault state on its target links.
func (ev FaultEvent) apply(links []*netsim.Link) {
	for _, l := range links {
		switch ev.Kind {
		case FaultDown, FaultCrash:
			// A crash is a down with no matching up (Validate rejects one):
			// the host's ranks park on sends and receives that can never
			// complete, the run DNFs at its time budget, and Kernel.Close
			// aborts the permanently-parked processes.
			l.SetDown(true)
		case FaultUp:
			l.SetDown(false)
		case FaultLoss:
			l.SetExtraLoss(ev.Loss)
		case FaultJitter:
			l.SetJitter(ev.Jitter)
		}
	}
}

// resolve maps one event's target spec to concrete links: a site's uplink
// pair, a host's NIC pair, or (untargeted loss/jitter) every site uplink.
func (p *FaultPlan) resolve(net *netsim.Network, ev FaultEvent) ([]*netsim.Link, error) {
	switch {
	case ev.Site != "":
		out, in, ok := net.Uplink(ev.Site)
		if !ok {
			return nil, fmt.Errorf("site %q has no uplink in this topology (sites: %s)",
				ev.Site, strings.Join(net.Sites(), ", "))
		}
		return []*netsim.Link{out, in}, nil
	case ev.Host != "":
		h := net.Host(ev.Host)
		if h == nil {
			return nil, fmt.Errorf("host %q is not in this topology", ev.Host)
		}
		return []*netsim.Link{h.NIC, h.NICIn}, nil
	default:
		var links []*netsim.Link
		for _, site := range net.Sites() {
			if out, in, ok := net.Uplink(site); ok {
				links = append(links, out, in)
			}
		}
		if len(links) == 0 {
			return nil, fmt.Errorf("untargeted %s event, but the topology has no site uplinks", ev.Kind)
		}
		return links, nil
	}
}

// ParseFaultPlan parses the -faults command-line syntax: semicolon-
// separated clauses, each either "seed=N" or "<time> <kind> <args>":
//
//	seed=7; 100ms down site=rennes; 300ms up site=rennes
//	0s loss 0.05; 2s loss 0; 0s jitter 2ms site=nancy
//	50ms crash host=rennes-1
//
// down/up need site=NAME or host=NAME; crash needs host=NAME (the host
// never comes back); loss takes a probability and jitter a duration, each
// with an optional site=/host= target (default: every site uplink). An
// empty string returns a nil plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	plan := &FaultPlan{}
	for _, clause := range strings.Split(s, ";") {
		fields := strings.Fields(clause)
		if len(fields) == 0 {
			continue
		}
		if v, ok := strings.CutPrefix(fields[0], "seed="); ok && len(fields) == 1 {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("exp: bad fault seed %q: %v", v, err)
			}
			plan.Seed = seed
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("exp: bad fault clause %q (want \"<time> <kind> ...\")", strings.TrimSpace(clause))
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("exp: bad fault time %q: %v", fields[0], err)
		}
		ev := FaultEvent{At: at, Kind: fields[1]}
		rest := fields[2:]
		switch ev.Kind {
		case FaultLoss:
			if len(rest) == 0 {
				return nil, fmt.Errorf("exp: loss clause %q needs a probability", strings.TrimSpace(clause))
			}
			ev.Loss, err = strconv.ParseFloat(rest[0], 64)
			if err != nil {
				return nil, fmt.Errorf("exp: bad loss probability %q: %v", rest[0], err)
			}
			rest = rest[1:]
		case FaultJitter:
			if len(rest) == 0 {
				return nil, fmt.Errorf("exp: jitter clause %q needs a duration", strings.TrimSpace(clause))
			}
			ev.Jitter, err = time.ParseDuration(rest[0])
			if err != nil {
				return nil, fmt.Errorf("exp: bad jitter duration %q: %v", rest[0], err)
			}
			rest = rest[1:]
		}
		for _, f := range rest {
			switch {
			case strings.HasPrefix(f, "site="):
				ev.Site = strings.TrimPrefix(f, "site=")
			case strings.HasPrefix(f, "host="):
				ev.Host = strings.TrimPrefix(f, "host=")
			default:
				return nil, fmt.Errorf("exp: unexpected fault field %q in clause %q", f, strings.TrimSpace(clause))
			}
		}
		plan.Events = append(plan.Events, ev)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}
