package bidl

import (
	"testing"
	"time"
)

// smallSpec is the 8-org deployment the package tests drive: 50-txn
// blocks with a 5 ms timeout, 10 clients over 500 accounts, rate txns/s
// offered for 200 ms, then a drain until virtual time end.
func smallSpec(framework string, rate float64, end time.Duration) Scenario {
	var sp Scenario
	sp.Framework = framework
	sp.Nodes.Orgs = 8
	sp.Tuning.BlockSize = 50
	sp.Tuning.BlockTimeout = ScenarioDuration(5 * time.Millisecond)
	sp.Workload.Clients = 10
	sp.Workload.Accounts = 500
	sp.Workload.Seed = 7
	sp.Load.Rate = rate
	sp.Load.Window = ScenarioDuration(200 * time.Millisecond)
	sp.Load.Drain = ScenarioDuration(end - 200*time.Millisecond)
	return sp
}

// mustRun runs a scenario that must validate and pass its safety audit.
func mustRun(t *testing.T, sp Scenario, rc ScenarioRunConfig) ScenarioResult {
	t.Helper()
	res, err := RunScenarioWith(sp, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SafetyErr != nil {
		t.Fatalf("%s: %v", sp.Framework, res.SafetyErr)
	}
	return res
}

// scalars strips a result to its comparable summary values.
func scalars(r ScenarioResult) ScenarioResult {
	r.Collector, r.Anatomy = nil, nil
	return r
}

func TestSystemEndToEnd(t *testing.T) {
	res := mustRun(t, smallSpec(FrameworkBIDL, 5000, time.Second), ScenarioRunConfig{})
	if got := res.Collector.NumCommitted(); got != res.Submitted {
		t.Fatalf("committed %d of %d", got, res.Submitted)
	}
	if res.AbortRate != 0 {
		t.Fatalf("abort rate %.2f on deterministic workload", res.AbortRate)
	}
	if res.AvgLatency <= 0 || res.AvgLatency > 100*time.Millisecond {
		t.Fatalf("latency %v", res.AvgLatency)
	}
}

func TestBaselineSystemEndToEnd(t *testing.T) {
	for _, fw := range []string{FrameworkHLF, FrameworkFastFabric, FrameworkStreamChain} {
		sp := smallSpec(fw, 1000, 2*time.Second)
		if fw == FrameworkStreamChain {
			sp.Tuning.BlockSize = 1
			sp.Tuning.BlockTimeout = ScenarioDuration(500 * time.Microsecond)
		}
		res := mustRun(t, sp, ScenarioRunConfig{})
		if got := res.Collector.NumCommitted(); got != res.Submitted {
			t.Fatalf("%s committed %d of %d", fw, got, res.Submitted)
		}
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, err := RunExperiment("nope", BenchOptions{Scale: 0.1, Seed: 1}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	want := map[string]bool{
		"fig3": true, "fig5": true, "fig6": true, "fig7": true, "fig8": true,
		"fig9": true, "fig10": true, "table2": true, "table3": true,
		"table4": true, "ablation": true,
	}
	for _, e := range Experiments() {
		delete(want, e.ID)
		if e.Scenarios == nil || e.Table == nil || e.Description == "" || e.Paper == "" {
			t.Fatalf("experiment %s incompletely registered", e.ID)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing experiments: %v", want)
	}
}

func TestDeterministicSystems(t *testing.T) {
	run := func() ScenarioResult {
		return scalars(mustRun(t, smallSpec(FrameworkBIDL, 3000, time.Second), ScenarioRunConfig{}))
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical runs diverge: %+v vs %+v", a, b)
	}
}
