package main

import (
	"fmt"
	"time"

	"github.com/bidl-framework/bidl/internal/scenario"
)

// benchWorkload is one named benchmark input: a declarative scenario spec
// (benchSpec sets its seeds) and why it is in the benchmark.
type benchWorkload struct {
	name string
	why  string
	spec func() scenario.Scenario
}

func dur(d time.Duration) scenario.Duration { return scenario.Duration(d) }

// workloads is the benchmark's fixed catalog. Every spec is an open loop in
// virtual time (the generator schedules each transaction at its due time, so
// it is never late) and runs through scenario.RunWith.
var workloads = []benchWorkload{
	{
		name: "bidl-steady",
		why:  "BIDL setting A (50 orgs x 1 node, 4 bft-smart nodes, 500-txn blocks) at 30k txns/s open loop: the core pipeline",
		spec: func() scenario.Scenario {
			return scenario.Scenario{
				Name:      "bidl-steady",
				Framework: scenario.FrameworkBIDL,
				Workload:  scenario.WorkloadSpec{Accounts: 10_000},
				Load:      scenario.LoadSpec{Rate: 30_000, Window: dur(200 * time.Millisecond)},
			}
		},
	},
	{
		name: "fabric-steady",
		why:  "FastFabric at the same size and SmallBank mix at 20k txns/s: control for core-only changes; crypto, ledger and fabric dominate",
		spec: func() scenario.Scenario {
			return scenario.Scenario{
				Name:      "fabric-steady",
				Framework: scenario.FrameworkFastFabric,
				Workload:  scenario.WorkloadSpec{Accounts: 10_000},
				Load:      scenario.LoadSpec{Rate: 20_000, Window: dur(200 * time.Millisecond)},
			}
		},
	},
	{
		name: "bidl-contended-storm",
		why:  "16-org BIDL, 1M Zipf(1.5) accounts, settlement, nondet, 100 ms leader drop storm: hot keys, aborts, one view change",
		spec: func() scenario.Scenario {
			return scenario.Scenario{
				Name:      "bidl-contended-storm",
				Framework: scenario.FrameworkBIDL,
				Nodes:     scenario.NodesSpec{Orgs: 16},
				Workload: scenario.WorkloadSpec{
					Accounts:   1_000_000,
					ZipfS:      1.5,
					Contention: 0.5,
					Settlement: 0.3,
					Nondet:     0.05,
				},
				Load: scenario.LoadSpec{Rate: 8_000, Window: dur(800 * time.Millisecond)},
				Faults: []scenario.FaultSpec{{
					Kind:     "drop_storm",
					At:       dur(350 * time.Millisecond),
					Duration: dur(100 * time.Millisecond),
					Rate:     0.7,
				}},
			}
		},
	},
	{
		name: "bidl-sharded-pdes",
		why:  "4 BIDL channels x 12 orgs on one simulation, 5% cross-shard 2PC, PDES engine with 2 workers",
		spec: func() scenario.Scenario {
			return scenario.Scenario{
				Name:            "bidl-sharded-pdes",
				Framework:       scenario.FrameworkBIDL,
				SimWorkers:      2,
				Shards:          4,
				CrossShardRatio: 0.05,
				Nodes:           scenario.NodesSpec{Orgs: 12},
				Workload:        scenario.WorkloadSpec{Accounts: 10_000},
				Load:            scenario.LoadSpec{Rate: 16_000, Window: dur(400 * time.Millisecond)},
			}
		},
	},
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}
