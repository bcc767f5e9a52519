// Command simbench is the repository benchmark: it runs one named scenario
// workload through scenario.RunWith, checks the outputs, and prints the
// simulator's host cost and the simulated system's performance. With
// --trace 1 it adds a traced, CPU-profiled run and isolated calls into each
// layer, and prints the per-layer metrics instead.
//
//	bash simbench/run.sh --workload bidl-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object; artifacts (manifest,
// spans, results, CPU profile) go under --out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"

	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/trace"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string

	// minRuns is the fewest untraced runs a set holds, however long they
	// take; probes is the number of set-up probes before each run; window,
	// when non-zero, replaces the workload's load window (tests use tiny
	// windows).
	minRuns int
	probes  int
	window  time.Duration
}

func main() {
	if arg := os.Getenv(probeEnv); arg != "" {
		os.Exit(probeMain(arg))
	}
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement budget in host seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run and per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "simbench"), "artifact directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = traceFlag != 0
	o.minRuns = 3
	o.probes = probesPerRun
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// benchSpec is the workload's spec for a seed. The seed drives the
// generated transactions only; the simulator's own randomness (fault
// injection, nondeterministic contract results) keeps seed 1, so seeds vary
// the inputs and not the modelled environment.
func benchSpec(w benchWorkload, o options) scenario.Scenario {
	s := w.spec()
	s.Seed = 1
	s.Workload.Seed = o.seed
	if s.Workload.Seed == 0 {
		s.Workload.Seed = -1 // 0 would mean "inherit the scenario seed"
	}
	if o.window > 0 {
		s.Load.Window = scenario.Duration(o.window)
	}
	return s
}

// set is the outcome of one benchmark invocation.
type set struct {
	e2e, layers metricSet
	checks      []string // failed output checks
	attempted   int
	failed      int
}

func (st *set) check(ok bool, format string, args ...any) {
	if !ok {
		st.checks = append(st.checks, fmt.Sprintf(format, args...))
	}
}

// checkRun applies the output checks to one run and counts its
// transactions: those never committed fail, and all of them fail when the
// safety audit fails or the fingerprint differs from the set's first run.
// Contract aborts are the modelled outcome of a conflicting transaction, not
// a failed operation of the benchmark; failed_frac and vcommit_frac report
// them.
func (st *set) checkRun(label string, ref, fp fingerprint, r runSample) {
	st.attempted += fp.Submitted
	bad := false
	if d := ref.diff(fp); len(d) > 0 {
		st.check(false, "%s: fingerprint differs from the set's first run: %v", label, d)
		bad = true
	}
	if r.res.SafetyErr != nil {
		st.check(false, "%s: safety audit: %v", label, r.res.SafetyErr)
		bad = true
	}
	if bad {
		st.failed += fp.Submitted
	} else {
		st.failed += fp.Submitted - fp.Committed
	}
}

// runError records a run that returned an error: all the transactions it
// was to submit count as attempted and failed.
func (st *set) runError(label string, err error, planned int) {
	st.check(false, "%s: %v", label, err)
	st.attempted += planned
	st.failed += planned
}

// plannedTxns is the number of transactions a run of spec submits: the
// reference run's count once there is one, else the open-loop rate times the
// window.
func plannedTxns(spec scenario.Scenario, ref fingerprint) int {
	if ref.Submitted > 0 {
		return ref.Submitted
	}
	return max(1, int(math.Round(spec.Load.Rate*spec.Load.Window.D().Seconds())))
}

func run(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	spec := benchSpec(w, o)
	if err := spec.Validate(); err != nil {
		return err
	}
	dir := resultDir(o)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man, err := newManifest(w, spec, o)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"), man); err != nil {
		return err
	}

	spans := newSpanLog()
	st := &set{}
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))

	// Untraced runs: a warm-up run that is checked but not timed, then as
	// many as the budget allows, at least minRuns. In trace mode, leave room
	// for the traced run (about twice a plain one). Set-up time comes from
	// probe processes, a few before each run, so that their median spans the
	// same stretch of time as the runs'. A probe or run that fails ends the
	// measuring; the set still reports.
	var ref fingerprint
	var setups []setupSample
	var runs []runSample
	var sim simulated
	var lastIter time.Duration
	nextID := 0
	healthy := true
	for i := 0; healthy; i++ {
		if len(runs) >= o.minRuns {
			reserve := lastIter
			if o.trace {
				reserve += 2 * runs[len(runs)-1].wall
			}
			if time.Since(start)+reserve > budget {
				break
			}
		}
		iterStart := time.Now()
		ps, err := measureSetup(o, o.probes, spans, nextID)
		nextID += o.probes
		setups = append(setups, ps...)
		if err != nil {
			st.runError("set-up probes", err, plannedTxns(spec, ref))
			healthy = false
			break
		}
		label := fmt.Sprintf("run %d", nextID)
		r, err := measureRun(spec, scenario.RunConfig{}, spans, nextID)
		nextID++
		if err != nil {
			st.runError(label, err, plannedTxns(spec, ref))
			healthy = false
			break
		}
		fp := fingerprintOf(spec, r)
		if i == 0 {
			ref, sim = fp, simulatedMetrics(spec, r.res)
		}
		st.checkRun(label, ref, fp, r)
		r.release()
		if i > 0 {
			runs = append(runs, r)
		}
		lastIter = time.Since(iterStart)
	}

	// A PDES workload must match the serial engine byte for byte.
	var serialWall time.Duration
	if healthy && spec.SimWorkers > 1 {
		r, err := measureRun(spec, scenario.RunConfig{ForceSerialSim: true}, spans, nextID)
		nextID++
		if err != nil {
			st.runError("ForceSerialSim run", err, plannedTxns(spec, ref))
			healthy = false
		} else {
			st.checkRun("ForceSerialSim run", ref, fingerprintOf(spec, r), r)
			r.release()
			serialWall = r.wall
		}
	}

	endToEnd(runs, setups, sim, &st.e2e)
	if o.trace && healthy {
		if err := tracedRun(spec, runs, ref, spans, nextID, dir, st); err != nil {
			st.runError("traced run", err, plannedTxns(spec, ref))
		}
		if serialWall > 0 {
			pdes, _ := st.e2e.get("wall_s")
			st.layers.set("simnet.pdes_speedup", "x", serialWall.Seconds()/pdes.Value)
			st.layers.note("simnet.pdes_speedup", "one ForceSerialSim run's wall over the PDES median")
		} else {
			st.layers.na("simnet.pdes_speedup", "x")
		}
	}

	correct := len(st.checks) == 0
	writeReport(stdout, w, o, man, runs, st)
	names, ms := endToEndJSON, &st.e2e
	if o.trace {
		for _, n := range []string{"vgap_max_ms", "failed_frac"} {
			if m, ok := st.e2e.get(n); ok {
				st.layers.put(m)
			}
		}
		names, ms = perLayerJSON, &st.layers
	}
	line, err := resultJSON(ms, names, correct, st.attempted, st.failed)
	if err != nil {
		return err
	}
	if err := spans.write(filepath.Join(dir, "spans.json")); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), map[string]any{
		"manifest": man, "end_to_end": st.e2e.list, "per_layer": st.layers.list,
		"runs": runTable(runs), "setup_probes": probeTable(setups), "failed_checks": st.checks,
	}); err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// endToEnd computes the end-to-end metrics: host metrics are medians over
// the set's untraced runs (set-up time over its probes); simulated ones are
// identical across runs. Metrics without a measurement (a set cut short by
// an error) are left out.
func endToEnd(runs []runSample, setups []setupSample, sim simulated, out *metricSet) {
	if len(setups) > 0 {
		out.set("setup_s", "s", median(durations(setups, func(s setupSample) time.Duration { return s.setup })))
		res := median(durations(setups, func(s setupSample) time.Duration { return s.res }))
		out.note("setup_s", fmt.Sprintf("median of %d probe processes, stack-sampled every %v; median bracket %.3f ms (midpoint taken)",
			len(setups), sampleInterval, res*1e3))
	}
	if len(runs) == 0 {
		return
	}
	committed := float64(sim.committed)
	out.set("wall_s", "s", medianOf(runs, func(r runSample) float64 { return r.wall.Seconds() }))
	out.set("sim_tx_per_s", "1/s", medianOf(runs, func(r runSample) float64 { return committed / r.simulate.Seconds() }))
	out.set("cpu_s", "s", medianOf(runs, func(r runSample) float64 { return r.cpu.Seconds() }))
	out.set("peak_heap_mb", "MB", medianOf(runs, func(r runSample) float64 { return float64(r.peakHeap) / 1e6 }))

	out.set("vtput_tps", "1/s", sim.vtput)
	out.set("vlat_p50_ms", "ms", ms(sim.p50))
	out.set("vlat_p99_ms", "ms", ms(sim.p99))
	samples := fmt.Sprintf("nearest rank; %d valid commits in window; open loop in virtual time, generator never late", sim.samples)
	out.note("vlat_p50_ms", samples)
	out.note("vlat_p99_ms", samples)
	out.set("vgap_max_ms", "ms", ms(sim.vgap))
	out.note("vgap_max_ms", "longest commit-free stretch of the window, 1 us timeline")
	out.set("failed_frac", "frac", sim.failedFrac)
	out.note("failed_frac", fmt.Sprintf("%d aborted + %d uncommitted of %d submitted",
		sim.aborted, sim.submitted-sim.committed, sim.submitted))
	out.set("vcommit_frac", "frac", 1-sim.failedFrac)
	out.note("vcommit_frac", "1 - failed_frac: committed without abort, of submitted")
}

// durations maps setup samples to seconds.
func durations(xs []setupSample, f func(setupSample) time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x).Seconds()
	}
	return out
}

const profileHz = 250

// tracedRun makes the traced, CPU-profiled run and derives the per-layer
// metrics. It returns an error only when the run itself could not be made;
// later failures are recorded as failed checks.
func tracedRun(spec scenario.Scenario, runs []runSample, ref fingerprint, spans *spanLog, id int, dir string, st *set) error {
	out := &st.layers
	tr := trace.New(trace.Options{SpanCapacity: 1 << 20})
	var prof bytes.Buffer
	// Sample at profileHz instead of pprof's 100 Hz so a run of a few
	// seconds gives enough samples per layer (on Linux, rates above about
	// 250 Hz lose samples). The runtime keeps this rate and notes on
	// standard error that StartCPUProfile could not reset it.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	r, err := measureRun(spec, scenario.RunConfig{Tracer: tr}, spans, id)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	st.checkRun("traced run", ref, fingerprintOf(spec, r), r)
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		st.check(false, "%v", err)
	}

	out.set("scenario.simulate_s", "s", medianOf(runs, func(r runSample) float64 { return r.simulate.Seconds() }))
	out.note("scenario.simulate_s", "untraced median")
	out.set("scenario.audit_s", "s", medianOf(runs, func(r runSample) float64 { return r.audit.Seconds() }))
	out.note("scenario.audit_s", "untraced median")

	if p, err := parseCPUProfile(prof.Bytes()); err != nil {
		st.check(false, "cpu profile: %v", err)
	} else {
		buckets, total := p.attribute()
		for _, b := range hostBuckets {
			out.set("host."+b, "s", buckets[b])
		}
		out.note("host.core", fmt.Sprintf("traced run at %d Hz: %.3f CPU s profiled of %.3f s used", profileHz, total, r.cpu.Seconds()))
	}

	if err := isolatedCalls(spec, r, spans, id+1, out); err != nil {
		st.check(false, "%v", err)
	}

	submitted := float64(ref.Submitted)
	out.set("runtime.mallocs_per_tx", "count", medianOf(runs, func(r runSample) float64 { return float64(r.mallocs) / submitted }))
	out.set("runtime.alloc_bytes_per_tx", "B", medianOf(runs, func(r runSample) float64 { return float64(r.allocBytes) / submitted }))
	out.set("runtime.gc_cycles", "count", medianOf(runs, func(r runSample) float64 { return float64(r.gcCycles) }))
	out.set("runtime.gc_pause_s", "s", medianOf(runs, func(r runSample) float64 { return r.gcPause.Seconds() }))
	out.set("runtime.gc_cpu_frac", "frac", medianOf(runs, func(r runSample) float64 { return r.gcCPU / r.cpu.Seconds() }))
	out.note("runtime.mallocs_per_tx", "untraced median")

	events := float64(ref.Events)
	out.set("simnet.events", "count", events)
	out.set("simnet.events_per_tx", "count", events/submitted)
	out.set("simnet.ns_per_event", "ns", medianOf(runs, func(r runSample) float64 { return float64(r.simulate.Nanoseconds()) / events }))

	if err := tracedLayers(spec, r, tr, out); err != nil {
		st.check(false, "%v", err)
	}
	untracedLayers(r, out)

	untraced, _ := st.e2e.get("wall_s")
	out.set("trace_overhead", "frac", r.wall.Seconds()/untraced.Value-1)
	if spec.SimWorkers > 1 {
		out.note("trace_overhead", "traced run fell back to the serial engine; its host.* split describes serial execution")
	}
	return nil
}

// runTable lists each untraced run's host timings for the results file.
func runTable(runs []runSample) []map[string]float64 {
	out := make([]map[string]float64, len(runs))
	for i, r := range runs {
		out[i] = map[string]float64{
			"wall_s":       r.wall.Seconds(),
			"setup_s":      r.setup.Seconds(), // in-run; setup_s reports the probes
			"setup_res_s":  r.setupRes.Seconds(),
			"simulate_s":   r.simulate.Seconds(),
			"audit_s":      r.audit.Seconds(),
			"cpu_s":        r.cpu.Seconds(),
			"peak_heap_mb": float64(r.peakHeap) / 1e6,
			"gc_cycles":    float64(r.gcCycles),
			"mallocs":      float64(r.mallocs),
		}
	}
	return out
}

func writeReport(w io.Writer, wl benchWorkload, o options, man manifest, runs []runSample, st *set) {
	fmt.Fprintf(w, "simbench %s seed=%d: %d untraced runs, engine %s (sim_workers %d), GOMAXPROCS %d, %s\n",
		wl.name, o.seed, len(runs), man.Engine, man.SimWorkers, man.GOMAXPROCS, man.GoVersion)
	fmt.Fprintln(w, "end-to-end (host metrics: median over the runs; simulated metrics: identical across them):")
	st.e2e.print(w)
	if o.trace {
		fmt.Fprintln(w, "per-layer:")
		st.layers.print(w)
	}
	if len(st.checks) == 0 {
		fmt.Fprintln(w, "checks: ok (safety audit, fingerprint identical across all runs of the set)")
	}
	for _, c := range st.checks {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
}

// probeTable lists each set-up probe for the results file.
func probeTable(setups []setupSample) []map[string]float64 {
	out := make([]map[string]float64, len(setups))
	for i, s := range setups {
		out[i] = map[string]float64{"setup_s": s.setup.Seconds(), "bracket_s": s.res.Seconds()}
	}
	return out
}

// manifest records the exact inputs of a set.
type manifest struct {
	Workload     string          `json:"workload"`
	Why          string          `json:"why"`
	Seed         int64           `json:"seed"`
	Seconds      float64         `json:"seconds"`
	Trace        bool            `json:"trace"`
	Spec         json.RawMessage `json:"spec"`
	GitRevision  string          `json:"git_revision"`
	Engine       string          `json:"engine"`
	SimWorkers   int             `json:"sim_workers"`
	TracedEngine string          `json:"traced_engine,omitempty"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	NumCPU       int             `json:"num_cpu"`
	GoVersion    string          `json:"go_version"`
	Started      string          `json:"started"`
}

func newManifest(w benchWorkload, spec scenario.Scenario, o options) (manifest, error) {
	b, err := spec.WithDefaults().Marshal()
	if err != nil {
		return manifest{}, err
	}
	m := manifest{
		Workload:    w.name,
		Why:         w.why,
		Seed:        o.seed,
		Seconds:     o.seconds,
		Trace:       o.trace,
		Spec:        b,
		GitRevision: gitRevision(),
		Engine:      "serial",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Started:     time.Now().UTC().Format(time.RFC3339),
	}
	if spec.SimWorkers > 1 && len(spec.Faults) == 0 {
		m.Engine = "pdes"
		m.SimWorkers = spec.SimWorkers
		if o.trace {
			m.TracedEngine = "serial (a tracer makes Network.lookaheadBound return 0)"
		}
	}
	return m, nil
}

// gitRevision reads the revision the Go toolchain stamped into the binary;
// a build outside a git checkout has none.
func gitRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty, _ = strconv.ParseBool(s.Value)
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultDir is where a set's artifacts go.
func resultDir(o options) string {
	t := 0
	if o.trace {
		t = 1
	}
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, t))
}

// medianOf is the median of f over the set's timed runs.
func medianOf(runs []runSample, f func(r runSample) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}
