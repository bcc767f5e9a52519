package main

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"github.com/bidl-framework/bidl"
)

// TestFlagScenario pins the spec flag mode synthesizes — the deployment
// flags lowered by options.scenario, then the run overlays — so a flag run
// is exactly the -scenario run of the spec shown here.
func TestFlagScenario(t *testing.T) {
	d := func(v time.Duration) bidl.ScenarioDuration { return bidl.ScenarioDuration(v) }
	// plain is the spec of the bare invocation: paper setting A at
	// 20k txns/s for 1 s.
	plain := func() bidl.Scenario {
		var sp bidl.Scenario
		sp.Seed = 1
		sp.Protocol = bidl.ProtoBFTSmart
		sp.Nodes.Orgs = 50
		sp.Nodes.PerOrg = 1
		sp.Nodes.Consensus = 4
		sp.Nodes.Datacenters = 1
		sp.Load.Rate = 20000
		sp.Load.Window = d(time.Second)
		return sp
	}
	multiDC := func(sp bidl.Scenario) bidl.Scenario {
		sp.Nodes.Datacenters = 2
		sp.Tuning.ViewTimeout = d(400 * time.Millisecond)
		sp.Tuning.BlockTimeout = d(25 * time.Millisecond)
		return sp
	}
	cases := []struct {
		name string
		args []string
		want func() bidl.Scenario
	}{
		{"plain", nil, plain},
		{"dcs-2", []string{"-dcs", "2"}, func() bidl.Scenario { return multiDC(plain()) }},
		{"dcs-2-shards-2", []string{"-dcs", "2", "-shards", "2"}, func() bidl.Scenario {
			sp := multiDC(plain())
			sp.Shards = 2
			return sp
		}},
		{"attack-leader", []string{"-attack", "leader"}, func() bidl.Scenario {
			sp := plain()
			sp.Faults = []bidl.FaultSpec{{Kind: "leader"}}
			return sp
		}},
		{"attack-broadcaster", []string{"-attack", "broadcaster"}, func() bidl.Scenario {
			sp := plain()
			sp.Faults = []bidl.FaultSpec{{Kind: "broadcaster", At: d(200 * time.Millisecond)}}
			return sp
		}},
		{"attack-smart", []string{"-attack", "smart", "-duration", "500ms"}, func() bidl.Scenario {
			sp := plain()
			sp.Load.Window = d(500 * time.Millisecond)
			sp.Faults = []bidl.FaultSpec{{Kind: "smart", At: d(100 * time.Millisecond)}}
			return sp
		}},
		{"shards-4-attack-smart", []string{"-shards", "4", "-attack", "smart"}, func() bidl.Scenario {
			sp := plain()
			sp.Shards = 4
			sp.Faults = []bidl.FaultSpec{{Kind: "smart", At: d(200 * time.Millisecond)}}
			return sp
		}},
		{"workload-and-overlays", []string{
			"-orgs", "12", "-nodes-per-org", "2", "-consensus", "7", "-protocol", "hotstuff",
			"-rate", "4000", "-duration", "300ms", "-contention", "0.5", "-nondet", "0.1",
			"-loss", "0.01", "-inter-gbps", "1", "-sim-workers", "4",
			"-shards", "2", "-cross-shard", "0.1",
		}, func() bidl.Scenario {
			sp := plain()
			sp.Protocol = "hotstuff"
			sp.Nodes.Orgs, sp.Nodes.PerOrg, sp.Nodes.Consensus, sp.Nodes.Datacenters = 12, 2, 7, 1
			sp.Load.Rate, sp.Load.Window = 4000, d(300*time.Millisecond)
			sp.Workload.Contention, sp.Workload.Nondet = 0.5, 0.1
			sp.Topology.LossRate, sp.Topology.InterDCGbps = 0.01, 1
			sp.SimWorkers, sp.Shards, sp.CrossShardRatio = 4, 2, 0.1
			return sp
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o options
			fs := flag.NewFlagSet("bidl-sim", flag.ContinueOnError)
			o.register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			sp, err := o.scenario()
			if err != nil {
				t.Fatal(err)
			}
			got := o.overlay(sp, 1)
			if want := tc.want(); !reflect.DeepEqual(got, want) {
				t.Fatalf("synthesized spec\n got %+v\nwant %+v", got, want)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("synthesized spec does not validate: %v", err)
			}
		})
	}
}

// TestFlagScenarioRejectsUnknownAttack: a misspelled -attack is a usage
// error, not a fault-free run.
func TestFlagScenarioRejectsUnknownAttack(t *testing.T) {
	var o options
	fs := flag.NewFlagSet("bidl-sim", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse([]string{"-attack", "dos"}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.scenario(); err == nil {
		t.Fatal("unknown attack accepted")
	}
}
