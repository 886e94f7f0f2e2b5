// Command gridrepro runs the complete reproduction: every table and
// figure of the paper, in order, printing the regenerated results. Its
// output is the body of EXPERIMENTS.md.
//
//	gridrepro [flags] [section ...]
//
// Naming sections (table1, figure3, ..., buffer-sweep; an unknown name
// lists them all) prints only those, in paper order, after the same
// header; with no names the whole paper prints.
//
// All sections are generated concurrently through one shared experiment
// runner (-workers bounds the pool); the output order is fixed and the
// results are deterministic virtual-time simulation, so stdout is
// byte-identical whatever the worker count. With -cache DIR, results
// persist to a content-addressed disk store keyed by experiment
// fingerprint: an immediately repeated invocation recomputes nothing and
// serves every cell from disk (the cache summary on stderr reports the
// split). With -cache-remote URL, the backing store is a shared
// cmd/sweepd server instead, and -cache becomes its local read-through
// tier — a machine that has never run the reproduction regenerates the
// whole paper from a warm server without executing one experiment.
//
// With -quick, reduced repetition counts and workload scales are used
// (the shapes are unchanged; only sampling density drops). The -reps,
// -nas-scale, -ray-scale and -trace flags override the per-mode defaults
// individually (tests and CI use them to shrink the run further).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errFlagParse) {
			os.Exit(2) // already reported by the FlagSet
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// errFlagParse marks a bad invocation (a flag or section name) already
// reported on stderr; main must not print it a second time.
var errFlagParse = errors.New("flag parsing failed")

// section is one unit of the paper, generated concurrently and printed
// in order.
type section struct {
	name string
	gen  func(*exp.Runner) string
}

// pick keeps the named sections, in their paper order and once each; no
// names keeps them all.
func pick(all []section, names []string) ([]section, error) {
	if len(names) == 0 {
		return all, nil
	}
	valid := make([]string, len(all))
	for i, s := range all {
		valid[i] = s.name
	}
	for _, n := range names {
		if !slices.Contains(valid, n) {
			return nil, fmt.Errorf("unknown section %q (have %s)", n, strings.Join(valid, ", "))
		}
	}
	return slices.DeleteFunc(all, func(s section) bool { return !slices.Contains(names, s.name) }), nil
}

// generate runs one section, converting a generator panic (a failed
// experiment) into an error instead of killing the whole regeneration
// goroutine pool.
func generate(s section, r *exp.Runner) (out string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("section %s: %v", s.name, p)
		}
	}()
	return s.gen(r), nil
}

func run(args []string, out, errOut io.Writer) (err error) {
	fs := flag.NewFlagSet("gridrepro", flag.ContinueOnError)
	fs.SetOutput(errOut)
	quick := fs.Bool("quick", false, "use reduced repetitions and workload scales")
	var rf exp.RunFlags
	rf.Register(fs)
	verifyP := fs.Float64("cache-verify", 0, "instead of regenerating, re-run this deterministic sample fraction (0..1] of -cache entries and report results the current simulator no longer reproduces")
	faultsStr := fs.String("faults", "", `append a reliability-matrix section: the paper's impl × tuning grid re-run under this fault plan (syntax: "seed=N; <time> down|up site=S; <time> loss <p>; <time> jitter <dur>")`)
	multilevel := fs.Bool("multilevel", false, "append the flat-vs-multilevel collectives extension table across asymmetric layouts")
	repsFlag := fs.Int("reps", 0, "override pingpong round trips per size (0 = per-mode default)")
	nasFlag := fs.Float64("nas-scale", 0, "override the NPB workload scale (0 = per-mode default)")
	rayFlag := fs.Float64("ray-scale", 0, "override the ray2mesh workload scale (0 = per-mode default)")
	traceFlag := fs.Int("trace", 0, "override the Figure 9 message count (0 = per-mode default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse // already reported by the FlagSet
	}

	// A scale that names no run is a usage error: NaN and infinity
	// cannot be fingerprinted, and NPB's largest class is scale 1.
	if !(*nasFlag >= 0 && *nasFlag <= 1) {
		fmt.Fprintf(errOut, "-nas-scale must be in [0, 1] (0 = per-mode default), got %g\n", *nasFlag)
		return errFlagParse
	}
	if !(*rayFlag >= 0) || math.IsInf(*rayFlag, 1) {
		fmt.Fprintf(errOut, "-ray-scale must be a finite number ≥ 0 (0 = per-mode default), got %g\n", *rayFlag)
		return errFlagParse
	}
	// A negative count is no run either, not the per-mode default.
	if *repsFlag < 0 || *traceFlag < 0 {
		fmt.Fprintf(errOut, "-reps and -trace must be ≥ 0 (0 = per-mode default), got %d and %d\n", *repsFlag, *traceFlag)
		return errFlagParse
	}
	// Nor is a -cache-verify fraction outside [0, 1]: NaN fails every
	// comparison, so it would sample nothing and report success.
	if !(*verifyP >= 0 && *verifyP <= 1) {
		fmt.Fprintf(errOut, "-cache-verify must be a fraction in (0, 1] (0 = off), got %g\n", *verifyP)
		return errFlagParse
	}
	if *verifyP != 0 && rf.Cache == "" {
		fmt.Fprintln(errOut, "-cache-verify needs -cache")
		return errFlagParse
	}

	reps, nasScale, rayScale, traceN := core.DefaultReps, 0.25, 1.0, 200
	if *quick {
		reps, nasScale, rayScale, traceN = 20, 0.1, 0.1, 100
	}
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	if *nasFlag > 0 {
		nasScale = *nasFlag
	}
	if *rayFlag > 0 {
		rayScale = *rayFlag
	}
	if *traceFlag > 0 {
		traceN = *traceFlag
	}
	sections := []section{
		{"table1", func(*exp.Runner) string { return core.RenderTable1(core.Table1()) }},
		{"table2", func(r *exp.Runner) string { return core.RenderTable2(core.Table2(r, nasScale)) }},
		{"table4", func(r *exp.Runner) string { return core.RenderTable4(core.Table4(r, reps)) }},
		{"figure5", func(r *exp.Runner) string { return core.RenderPingPongFigure(core.Figure5(r, reps)) }},
		{"figure3", func(r *exp.Runner) string { return core.RenderPingPongFigure(core.Figure3(r, reps)) }},
		{"figure6", func(r *exp.Runner) string { return core.RenderPingPongFigure(core.Figure6(r, reps)) }},
		{"table5", func(r *exp.Runner) string { return core.RenderTable5(core.Table5(r, reps)) }},
		{"figure7", func(r *exp.Runner) string { return core.RenderPingPongFigure(core.Figure7(r, reps)) }},
		{"figure9", func(r *exp.Runner) string { return core.RenderFigure9(core.Figure9(r, traceN)) }},
		{"figure10", func(r *exp.Runner) string { return core.RenderNASFigure(core.Figure10(r, nasScale)) }},
		{"figure11", func(r *exp.Runner) string { return core.RenderNASFigure(core.Figure11(r, nasScale)) }},
		{"figure12", func(r *exp.Runner) string { return core.RenderNASFigure(core.Figure12(r, nasScale)) }},
		{"figure13", func(r *exp.Runner) string { return core.RenderNASFigure(core.Figure13(r, nasScale)) }},
		{"table6", func(r *exp.Runner) string { return core.RenderTable6(core.Table6(r, rayScale)) }},
		{"table7", func(r *exp.Runner) string { return core.RenderTable7(core.Table7(r, rayScale)) }},
		// Beyond the paper: the §5 future-work experiments and an ablation.
		{"extension-g2", func(r *exp.Runner) string { return core.RenderExtensionMPICHG2(core.ExtensionMPICHG2(r, reps)) }},
		{"extension-het", func(r *exp.Runner) string {
			return core.RenderExtensionHeterogeneity(core.ExtensionHeterogeneity(r, reps))
		}},
		{"buffer-sweep", func(r *exp.Runner) string { return core.RenderBufferSweep(core.BufferSweep(r, reps)) }},
	}
	// The reliability matrix only exists under -faults, so the default
	// section list — and with it the stdout golden — is untouched.
	if *faultsStr != "" {
		plan, err := exp.ParseFaultPlan(*faultsStr)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return errFlagParse
		}
		sections = append(sections, section{"reliability", func(r *exp.Runner) string {
			return core.RenderReliabilityMatrix(plan, core.ReliabilityMatrix(r, reps, plan))
		}})
	}
	// Likewise -multilevel: the extension table appends after the golden
	// prefix without disturbing it.
	if *multilevel {
		sections = append(sections, section{"multilevel", func(r *exp.Runner) string {
			const size = 1 << 20
			return core.RenderMultilevelTable(core.MultilevelTable(r, size, 3), size)
		}})
	}
	sections, err = pick(sections, fs.Args())
	if err != nil {
		fmt.Fprintln(errOut, err)
		return errFlagParse
	}

	// The run flags are checked last, since opening them creates the
	// cache directory and starts the profiles.
	sess, err := rf.Open()
	if err != nil {
		fmt.Fprintln(errOut, err)
		return errFlagParse
	}
	defer func() { err = errors.Join(err, sess.Close(errOut)) }()

	// -cache-verify is a maintenance mode: instead of regenerating the
	// paper, re-execute a fingerprint-keyed sample of the cache and fail
	// loudly if the simulator has drifted from the stored results.
	if *verifyP != 0 {
		rep, err := sess.Local.Verify(*verifyP, rf.Workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		if len(rep.Mismatches) > 0 {
			return fmt.Errorf("%d of %d sampled cache entries no longer reproduce — the simulator changed; bump exp.DiskSchemaVersion or evict the cache",
				len(rep.Mismatches), rep.Sampled)
		}
		if !rep.OK() {
			return fmt.Errorf("nothing verified: all %d sampled entries were unreadable (foreign schema or corrupt) — the cache needs regenerating, not verifying", rep.Sampled)
		}
		return nil
	}

	// Every section generates concurrently; the runner's semaphore keeps
	// total simulation work bounded by -workers, and the fixed print
	// order below keeps stdout byte-identical whatever the pool size.
	outs := make([]string, len(sections))
	errs := make([]error, len(sections))
	var wg sync.WaitGroup
	for i, s := range sections {
		wg.Add(1)
		go func(i int, s section) {
			defer wg.Done()
			outs[i], errs[i] = generate(s, sess.Runner)
		}(i, s)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "=== Reproduction of: Comparison and tuning of MPI implementations in a grid context (Hablot et al., 2007) ===")
	fmt.Fprintln(out)
	for _, s := range outs {
		fmt.Fprintln(out, s)
	}
	return nil
}
