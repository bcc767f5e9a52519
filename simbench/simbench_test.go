package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/types"
)

// TestMain lets the test binary serve as a set-up probe process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if arg := os.Getenv(probeEnv); arg != "" {
		os.Exit(probeMain(arg))
	}
	os.Exit(m.Run())
}

// TestTinyWindowAllWorkloads runs every workload on a tiny load window in
// both modes and checks that each named metric is printed with its unit and
// that the final JSON line carries exactly the listed metrics.
func TestTinyWindowAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				var out bytes.Buffer
				o := options{workload: w.name, seed: 5, trace: traced, out: t.TempDir(), minRuns: 1, probes: 2, window: 40 * time.Millisecond}
				if err := run(o, &out); err != nil {
					t.Fatal(err)
				}
				text := out.String()
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v\n%s", err, text)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result not correct: %+v\n%s", res, text)
				}
				names := endToEndJSON
				if traced {
					names = perLayerJSON
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("JSON carries %d metrics, want %d", len(res.Metrics), len(names))
				}
				printed := append([]string{"failed_frac"}, names...)
				if traced {
					printed = append(printed, "v.spec_success", "v.busy_max.sequencer",
						"v.x_prepared.wait_p50_ms", "v.x_resolved.wait_p99_ms", "v.xshard_commit_frac")
				}
				for _, n := range printed {
					if !hasMetricLine(text, n) {
						t.Errorf("metric %s not printed with a value or n/a and a unit", n)
					}
				}
				units := benchmarkUnits(t)
				for _, n := range names {
					if got, want := res.Metrics[n].Unit, units[n]; got != want {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", n, got, want)
					}
				}
				for _, f := range []string{"manifest.json", "spans.json", "results.json"} {
					if _, err := os.Stat(filepath.Join(resultDir(o), f)); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// hasMetricLine reports whether the report has a "name value unit" line.
func hasMetricLine(text, name string) bool {
	for _, l := range strings.Split(text, "\n") {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == name {
			return true
		}
	}
	return false
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "github.com/bidl-framework/bidl/internal/core.(*NormalNode).onPersist", "github.com/bidl-framework/bidl/internal/simnet.(*Sim).Run"}, "core"},
		{[]string{"crypto/sha256.block", "github.com/bidl-framework/bidl/internal/crypto.(*HMACScheme).Sign"}, "crypto"},
		{[]string{"github.com/bidl-framework/bidl/internal/consensus/pbft.(*Replica).onPrepare"}, "consensus"},
		{[]string{"github.com/bidl-framework/bidl/internal/baseline/fabric.(*Peer).validate"}, "fabric"},
		{[]string{"github.com/bidl-framework/bidl/internal/trace/anatomy.Compute"}, "trace"},
		{[]string{"github.com/bidl-framework/bidl/internal/chaos.(*Injector).filter"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime_other"},
		{nil, "runtime_other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestProfileAttribution profiles a short fabric-steady run: every sample
// lands in exactly one listed bucket, the buckets sum to the profiled CPU
// time, and host.core stays 0 because the Fabric baseline never runs core.
func TestProfileAttribution(t *testing.T) {
	w, _ := findWorkload("fabric-steady")
	spec := benchSpec(w, options{seed: 1, window: 100 * time.Millisecond})
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := scenario.Run(spec)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) < 10 {
		t.Fatalf("only %d samples", len(p.samples))
	}
	got, total := p.attribute()
	known := map[string]bool{}
	for _, b := range hostBuckets {
		known[b] = true
	}
	var sum float64
	for b, v := range got {
		if !known[b] {
			t.Errorf("sample attributed to unlisted bucket %q", b)
		}
		sum += v
	}
	if d := sum/total - 1; d > 1e-9 || d < -1e-9 {
		t.Errorf("bucket shares sum to %v of the profile, want 1", sum/total)
	}
	if got["core"] != 0 {
		t.Errorf("host.core = %v s on fabric-steady, want 0", got["core"])
	}
	if got["crypto"]+got["ledger"]+got["fabric"] == 0 {
		t.Errorf("no CPU attributed to crypto, ledger or fabric: %v", got)
	}
}

func txID(i int) types.TxID { return types.TxID{byte(i), byte(i >> 8)} }

func TestMaxCommitGapAndFailedFrac(t *testing.T) {
	ms := time.Millisecond
	col := metrics.NewCollector()
	commits := []struct {
		at      time.Duration
		aborted bool
	}{
		{2 * ms, false},
		{5 * ms, false},
		{10 * ms, true}, // aborts are not service: they do not split a gap
		{17 * ms, false},
		{20*ms - time.Microsecond, false},
		{25 * ms, false}, // after the window
	}
	for i, c := range commits {
		col.Submitted(txID(i), 0)
		col.Committed(txID(i), c.at, c.aborted)
	}
	col.Submitted(txID(99), 0) // never committed
	if got, want := maxCommitGap(col, time.Microsecond, 0, 20*ms), 12*ms-time.Microsecond; got != want {
		t.Errorf("maxCommitGap = %v, want %v", got, want)
	}
	// From 6 ms on, the longest stretch is still 5 ms..17 ms, cut at 6 ms.
	if got, want := maxCommitGap(col, time.Microsecond, 6*ms, 20*ms), 11*ms; got != want {
		t.Errorf("maxCommitGap from 6ms = %v, want %v", got, want)
	}
	// 7 submitted: 1 aborted, 1 never committed.
	if got, want := failedFrac(col, 7), 2.0/7; got != want {
		t.Errorf("failedFrac = %v, want %v", got, want)
	}

	// A storm-like series: a commit every 100 us except a 120 ms outage.
	storm := metrics.NewCollector()
	id := 0
	for at := time.Duration(0); at < 400*ms; at += 100 * time.Microsecond {
		if at > 200*ms && at < 320*ms {
			continue
		}
		storm.Submitted(txID(id), 0)
		storm.Committed(txID(id), at, false)
		id++
	}
	if got, want := maxCommitGap(storm, time.Microsecond, 80*ms, 400*ms), 120*ms-time.Microsecond; got != want {
		t.Errorf("storm maxCommitGap = %v, want %v", got, want)
	}
	if got := failedFrac(storm, id); got != 0 {
		t.Errorf("storm failedFrac = %v, want 0", got)
	}
}

// TestErroredRunStillReports: a run that errors counts all its planned
// transactions as failed, and the set still prints its JSON line, with
// correct=false and the metrics it has.
func TestErroredRunStillReports(t *testing.T) {
	w, err := findWorkload("fabric-steady")
	if err != nil {
		t.Fatal(err)
	}
	spec := benchSpec(w, options{seed: 1})
	st := &set{}
	st.e2e.set("setup_s", "s", 0.02)
	st.runError("run 21", errors.New("boom"), plannedTxns(spec, fingerprint{}))
	line, err := resultJSON(&st.e2e, endToEndJSON, len(st.checks) == 0, st.attempted, st.failed)
	if err != nil {
		t.Fatal(err)
	}
	var res resultLine
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 4000 || res.Failed != 4000 || len(res.Metrics) != 1 {
		t.Errorf("errored set reports %s, want correct=false, 4000 of 4000 failed, setup_s only", line)
	}
	if _, err := resultJSON(&st.e2e, endToEndJSON, true, 1, 0); err == nil {
		t.Error("a correct set with missing metrics must not report")
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchmarkFile
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func benchmarkUnits(t *testing.T) map[string]string {
	cfg := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range append(cfg.EndToEnd, cfg.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json's lists and the benchmark's
// output in step.
func TestBenchmarkJSONInStep(t *testing.T) {
	cfg := readBenchmarkFile(t)
	names := func(xs []struct{ Name, Unit string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	var wl, cw []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	for _, w := range cfg.Workloads {
		cw = append(cw, w.Name)
	}
	if got, want := strings.Join(cw, ","), strings.Join(wl, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	if got, want := names(cfg.EndToEnd), strings.Join(endToEndJSON, ","); got != want {
		t.Errorf("BENCHMARK.json end_to_end %s, benchmark prints %s", got, want)
	}
	if got, want := names(cfg.PerLayer), strings.Join(perLayerJSON, ","); got != want {
		t.Errorf("BENCHMARK.json per_layer %s, benchmark prints %s", got, want)
	}
}
