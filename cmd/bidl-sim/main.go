// Command bidl-sim runs a single configurable BIDL deployment and reports
// headline metrics — a playground for exploring the design space.
//
// Examples:
//
//	bidl-sim                                    # paper setting A, 20k txns/s
//	bidl-sim -orgs 25 -protocol hotstuff -rate 30000
//	bidl-sim -contention 0.5 -duration 2s
//	bidl-sim -attack broadcaster                # watch the denylist engage
//	bidl-sim -dcs 4 -inter-gbps 1               # 4 datacenters, 1 Gbps pipes
//	bidl-sim -runs 8 -j 4                       # 8 seeds, 4 at a time
//	bidl-sim -sim-workers 4                     # PDES inside the run; same output
//	bidl-sim -shards 4 -cross-shard 0.05        # 4 sharded channels, 5% 2PC traffic
//	bidl-sim -scenario examples/scenario-fig5.json
//
// With -runs N, seeds seed..seed+N-1 execute as independent simulations on
// -j concurrent workers; per-seed results print in seed order and are
// identical to running each seed alone.
//
// The topology/workload/load/attack flags are shorthand for a declarative
// scenario (see DESIGN.md §9): flag mode builds that spec and runs it
// exactly as -scenario would. With -scenario FILE, the spec comes from the
// file and those flags are ignored; -seed, -runs, -j, -sim-workers,
// -shards, -cross-shard, -timeline, and the trace flags apply in both
// modes. `bidl-bench -dump-scenarios` emits the registry's specs in the
// same format as a starting point.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bidl-framework/bidl"
)

// options are the flags that shape the simulated deployment. Flag mode
// lowers them onto a Scenario (scenario); both modes then apply the seed,
// PDES and sharding overlays (overlay) and run through bidl.RunScenarioWith.
type options struct {
	orgs, perOrg, consensus, dcs int
	protocol, attack             string
	rate, contention, nondet     float64
	loss, interGbps, crossShard  float64
	duration                     time.Duration
	simWorkers, shards           int
}

func (o *options) register(fs *flag.FlagSet) {
	fs.IntVar(&o.orgs, "orgs", 50, "number of organizations")
	fs.IntVar(&o.perOrg, "nodes-per-org", 1, "normal nodes per organization")
	fs.IntVar(&o.consensus, "consensus", 4, "number of consensus nodes (3f+1)")
	fs.StringVar(&o.protocol, "protocol", bidl.ProtoBFTSmart, "bft-smart|hotstuff|zyzzyva|sbft")
	fs.Float64Var(&o.rate, "rate", 20000, "offered load (txns/s)")
	fs.DurationVar(&o.duration, "duration", time.Second, "load window (virtual time)")
	fs.Float64Var(&o.contention, "contention", 0, "contention ratio [0,1)")
	fs.Float64Var(&o.nondet, "nondet", 0, "non-deterministic txn ratio [0,1)")
	fs.Float64Var(&o.loss, "loss", 0, "packet loss rate [0,1)")
	fs.IntVar(&o.dcs, "dcs", 1, "number of datacenters")
	fs.Float64Var(&o.interGbps, "inter-gbps", 0, "shared inter-DC bandwidth (0 = unlimited)")
	fs.StringVar(&o.attack, "attack", "none", "none|leader|broadcaster|smart")
	fs.IntVar(&o.simWorkers, "sim-workers", 0, "PDES workers inside the simulation (0/1 = serial engine)")
	fs.IntVar(&o.shards, "shards", 0, "shard the deployment into this many BIDL channels (0/1 = single channel)")
	fs.Float64Var(&o.crossShard, "cross-shard", 0, "cross-shard transfer ratio [0,1] (requires -shards > 1)")
}

// scenario is flag mode's spec: the deployment flags as a Scenario. A
// multi-DC deployment takes the §6.4 timeouts, and -attack arms one
// adversary fault: the malicious leader from time zero, a broadcaster once
// the warm-up (a fifth of the window) ends.
func (o *options) scenario() (bidl.Scenario, error) {
	var sp bidl.Scenario
	sp.Protocol = o.protocol
	sp.Nodes.Orgs = o.orgs
	sp.Nodes.PerOrg = o.perOrg
	sp.Nodes.Consensus = o.consensus
	sp.Nodes.Datacenters = o.dcs
	sp.Topology.LossRate = o.loss
	sp.Topology.InterDCGbps = o.interGbps
	sp.Workload.Contention = o.contention
	sp.Workload.Nondet = o.nondet
	sp.Load.Rate = o.rate
	sp.Load.Window = bidl.ScenarioDuration(o.duration)
	if o.dcs > 1 {
		sp.Tuning.ViewTimeout = bidl.ScenarioDuration(400 * time.Millisecond)
		sp.Tuning.BlockTimeout = bidl.ScenarioDuration(25 * time.Millisecond)
	}
	switch o.attack {
	case "none":
	case "leader":
		sp.Faults = []bidl.FaultSpec{{Kind: o.attack}}
	case "broadcaster", "smart":
		sp.Faults = []bidl.FaultSpec{{Kind: o.attack, At: bidl.ScenarioDuration(o.duration / 5)}}
	default:
		return sp, fmt.Errorf("unknown attack %q", o.attack)
	}
	return sp, nil
}

// overlay applies the run-shaping flags to either mode's spec: the run's
// seed always, and -sim-workers/-shards/-cross-shard where the spec leaves
// the field unset.
func (o *options) overlay(sp bidl.Scenario, seed int64) bidl.Scenario {
	sp.Seed = seed
	if o.simWorkers > 1 && sp.SimWorkers == 0 {
		sp.SimWorkers = o.simWorkers
	}
	if o.shards > 1 && sp.Shards == 0 {
		sp.Shards = o.shards
	}
	if o.crossShard > 0 && sp.Shards > 1 && sp.CrossShardRatio == 0 {
		sp.CrossShardRatio = o.crossShard
	}
	return sp
}

func main() {
	var o options
	o.register(flag.CommandLine)
	var (
		scenPath   = flag.String("scenario", "", "run a declarative scenario JSON file (topology/workload/attack flags are ignored)")
		listFaults = flag.Bool("list-faults", false, "list the fault kinds a scenario's faults array accepts and exit")
		seed       = flag.Int64("seed", 1, "simulation seed (first seed with -runs)")
		runs       = flag.Int("runs", 1, "independent runs on consecutive seeds")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent runs with -runs > 1")
		timeline   = flag.Bool("timeline", false, "print a 100ms-bucket throughput timeline (single run only)")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto; single run only)")
		traceJSONL = flag.String("trace-jsonl", "", "write raw trace events as JSON lines (single run only)")
		telemetry  = flag.Bool("telemetry", false, "print per-node/per-link telemetry and slowest-transaction spans")
		anatomyOut = flag.String("anatomy", "", "write the critical-path latency anatomy report to this file (\"-\" = stdout; single run only)")
		anatomyCSV = flag.String("anatomy-csv", "", "also write the latency anatomy as CSV to this file (single run only)")
		heapCheck  = flag.Int64("heap-check", 0, "after all runs, GC and fail if the live heap exceeds this many bytes (0 = off)")
	)
	flag.Parse()

	if *listFaults {
		fmt.Println("fault kinds (scenario `faults` array, see DESIGN.md §11):")
		for _, k := range bidl.FaultKinds() {
			fmt.Printf("  %-12s %s\n", k.Name, k.Summary)
		}
		return
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "bidl-sim: -runs must be >= 1 (got %d)\n", *runs)
		os.Exit(2)
	}

	tracing := *traceOut != "" || *traceJSONL != "" || *telemetry || *anatomyOut != "" || *anatomyCSV != ""
	if tracing && *runs != 1 {
		fmt.Fprintln(os.Stderr, "bidl-sim: -trace/-trace-jsonl/-telemetry/-anatomy require -runs 1")
		os.Exit(2)
	}

	// Both modes end in one spec: read from -scenario, or synthesized from
	// the deployment flags. Flag mistakes are usage errors (exit 2); a bad
	// scenario file is a run error (exit 1).
	var spec bidl.Scenario
	if *scenPath != "" {
		data, err := os.ReadFile(*scenPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bidl-sim:", err)
			os.Exit(1)
		}
		spec, err = bidl.ParseScenario(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bidl-sim: %s: %v\n", *scenPath, err)
			os.Exit(1)
		}
		if err := spec.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "bidl-sim: %s: %v\n", *scenPath, err)
			os.Exit(1)
		}
		// The spec's own seed is the first seed unless -seed is given.
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if !seedSet {
			*seed = spec.EffectiveSeed()
		}
		name := spec.Name
		if name == "" {
			name = *scenPath
		}
		fmt.Printf("scenario %q: framework=%s\n", name, spec.WithDefaults().Framework)
	} else {
		var err error
		if spec, err = o.scenario(); err == nil {
			err = o.overlay(spec, *seed).Validate()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bidl-sim:", err)
			os.Exit(2)
		}
		if o.shards > 1 {
			fmt.Printf("sharded deployment: %d channels, cross-shard ratio %g\n", o.shards, o.crossShard)
		}
	}
	loadWindow, loadRate := spec.Load.Window.D(), spec.Load.Rate
	drain := spec.Load.Drain.D()
	if drain == 0 {
		drain = 500 * time.Millisecond
	}
	total := loadWindow + drain

	type outcome struct {
		seed       int64
		submitted  int
		throughput float64
		summary    string
		report     string
		safetyErr  error
		timeline   []float64
		tracer     *bidl.Tracer
		reg        *bidl.Registry
	}

	runOne := func(runSeed int64) outcome {
		rc := bidl.ScenarioRunConfig{}
		if tracing {
			rc.Tracer = bidl.NewTracer(bidl.TraceOptions{})
		}
		res, err := bidl.RunScenarioWith(o.overlay(spec, runSeed), rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bidl-sim:", err)
			os.Exit(1)
		}
		col := res.Collector
		out := outcome{
			seed:       runSeed,
			submitted:  res.Submitted,
			throughput: res.Throughput,
			summary: fmt.Sprintf("throughput=%.0f txns/s avg_latency=%v p99=%v committed=%d abort_rate=%.2f%% spec_success=%.1f%%",
				res.Throughput, res.AvgLatency.Round(10*time.Microsecond), res.P99.Round(10*time.Microsecond),
				col.NumCommitted(), res.AbortRate*100, res.SpecSuccess*100),
			report: fmt.Sprintf("view_changes=%d conflicts=%d reexecuted=%d denied_clients=%d",
				col.ViewChanges, col.Conflicts, col.Reexecuted, col.DeniedClients),
			safetyErr: res.SafetyErr,
			tracer:    rc.Tracer,
			reg:       col.Reg,
		}
		if *timeline && *runs == 1 {
			out.timeline = col.Timeline(100*time.Millisecond, total)
		}
		return out
	}

	// Fan the seeds out to a worker pool; results land in seed order.
	outcomes := make([]outcome, *runs)
	workers := *jobs
	if workers < 1 {
		workers = 1
	}
	if workers > *runs {
		workers = *runs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *runs {
					return
				}
				outcomes[i] = runOne(*seed + int64(i))
			}
		}()
	}
	wg.Wait()

	failed := false
	var sumTput float64
	for _, out := range outcomes {
		if *runs > 1 {
			fmt.Printf("--- seed %d ---\n", out.seed)
		}
		fmt.Printf("submitted %d transactions over %v at %.0f txns/s\n", out.submitted, loadWindow, loadRate)
		fmt.Println(out.summary)
		fmt.Println(out.report)
		if out.safetyErr != nil {
			fmt.Fprintln(os.Stderr, "SAFETY VIOLATION:", out.safetyErr)
			failed = true
		} else {
			fmt.Println("safety check: all correct nodes consistent")
		}
		sumTput += out.throughput
		if out.timeline != nil {
			fmt.Println("\nthroughput timeline (100ms buckets):")
			for i, v := range out.timeline {
				fmt.Printf("  %5.1fs %8.0f txns/s\n", float64(i)*0.1, v)
			}
		}
	}
	if *runs > 1 {
		fmt.Printf("--- aggregate over %d seeds: mean throughput %.0f txns/s ---\n",
			*runs, sumTput/float64(*runs))
	}
	if tracing {
		tr := outcomes[0].tracer
		if *telemetry {
			fmt.Println()
			tr.WriteSummary(os.Stdout, bidl.TraceSummaryOptions{})
			if reg := outcomes[0].reg; reg != nil {
				fmt.Println()
				if err := reg.WriteSummary(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, "bidl-sim:", err)
					failed = true
				}
			}
		}
		if *anatomyOut != "" || *anatomyCSV != "" {
			// Fault windows come from the spec's schedule; offline,
			// bidl-report -scenario recovers the same.
			rep := bidl.ComputeAnatomy(tr.TxEvents(), tr.PhaseEvents(),
				bidl.AnatomyOptions{Windows: spec.AnatomyWindows()})
			if *anatomyOut == "-" {
				fmt.Println()
				if err := rep.Render(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, "bidl-sim:", err)
					failed = true
				}
			} else if *anatomyOut != "" {
				if err := writeTraceFile(*anatomyOut, rep.Render); err != nil {
					fmt.Fprintln(os.Stderr, "bidl-sim:", err)
					failed = true
				} else {
					fmt.Printf("wrote latency anatomy to %s\n", *anatomyOut)
				}
			}
			if *anatomyCSV != "" {
				if err := writeTraceFile(*anatomyCSV, rep.CSV); err != nil {
					fmt.Fprintln(os.Stderr, "bidl-sim:", err)
					failed = true
				} else {
					fmt.Printf("wrote latency anatomy CSV to %s\n", *anatomyCSV)
				}
			}
		}
		if *traceOut != "" {
			if err := writeTraceFile(*traceOut, tr.WriteChromeTrace); err != nil {
				fmt.Fprintln(os.Stderr, "bidl-sim:", err)
				failed = true
			} else {
				fmt.Printf("wrote Chrome trace to %s (open in Perfetto / chrome://tracing)\n", *traceOut)
			}
		}
		if *traceJSONL != "" {
			if err := writeTraceFile(*traceJSONL, tr.WriteJSONL); err != nil {
				fmt.Fprintln(os.Stderr, "bidl-sim:", err)
				failed = true
			} else {
				fmt.Printf("wrote trace events to %s\n", *traceJSONL)
			}
		}
	}
	// The heap check is the memory side of `make workload-smoke`: after every
	// run completes (results retained, clusters collectable) the live heap
	// must fit the stated budget. A million-account scenario only passes
	// because prepopulation shares one copy-on-write base per generator
	// instead of materializing O(accounts) entries per node.
	if *heapCheck > 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > uint64(*heapCheck) {
			fmt.Fprintf(os.Stderr, "bidl-sim: heap-check FAILED: live heap %.1f MiB exceeds limit %.1f MiB\n",
				float64(ms.HeapAlloc)/(1<<20), float64(*heapCheck)/(1<<20))
			failed = true
		} else {
			fmt.Printf("heap-check: live heap %.1f MiB within limit %.1f MiB\n",
				float64(ms.HeapAlloc)/(1<<20), float64(*heapCheck)/(1<<20))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeTraceFile streams one export into path.
func writeTraceFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
