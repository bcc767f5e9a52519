// Quickstart: describe a BIDL network as a scenario, submit SmallBank
// transfers, and watch them commit with speculative execution.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/bidl-framework/bidl"
)

func main() {
	// A small deployment: 4 consensus nodes (tolerating 1 Byzantine),
	// 8 organizations with one normal node each.
	var sp bidl.Scenario
	sp.Nodes.Orgs = 8
	sp.Tuning.BlockSize = 100
	sp.Tuning.BlockTimeout = bidl.ScenarioDuration(5 * time.Millisecond)
	sp.Workload.Clients = 10
	sp.Workload.Accounts = 1000
	sp.Workload.Seed = 7

	// Submit 500 money transfers over 50 ms of virtual time, then let the
	// run drain until 1 s.
	sp.Load.Rate = 10000
	sp.Load.Window = bidl.ScenarioDuration(50 * time.Millisecond)
	sp.Load.Drain = bidl.ScenarioDuration(950 * time.Millisecond)

	// The observer sees the cluster once the simulation ends.
	var blocks uint64
	var balance []byte
	res, err := bidl.RunScenarioWith(sp, bidl.ScenarioRunConfig{
		Observe: func(h bidl.Harness) {
			c := h.(*bidl.Cluster)
			blocks = c.TotalCommitHeight()
			// An account balance on an organization's normal node.
			balance, _, _ = c.Orgs[0][0].State().Get("sb:chk:acct-0")
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("BIDL quickstart")
	fmt.Printf("   submitted=%d committed=%d avg_latency=%v p99=%v abort_rate=%.2f%% spec_success=%.1f%%\n",
		res.Submitted, res.Collector.NumCommitted(),
		res.AvgLatency.Round(10*time.Microsecond), res.P99.Round(10*time.Microsecond),
		res.AbortRate*100, res.SpecSuccess*100)
	fmt.Printf("   blocks committed: %d\n", blocks)

	// The safety guarantee (§3.1): every correct node holds the same chain
	// and organizations agree on the world state.
	if res.SafetyErr != nil {
		log.Fatal(res.SafetyErr)
	}
	fmt.Println("   safety: all correct nodes consistent")
	if balance != nil {
		fmt.Printf("   acct-0 checking balance at org0: %s\n", balance)
	}
}
