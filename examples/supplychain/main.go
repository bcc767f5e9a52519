// Supply chain: the paper cites supply chains as workloads with over 40%
// contending transactions (§1). Hot items (popular SKUs) make transfers
// collide; execute-order-validate frameworks abort those in MVCC validation
// while BIDL's sequence-ordered speculation commits them all (§6.3).
//
// This example runs the same contended workload on BIDL and on FastFabric
// and compares abort rates.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/bidl-framework/bidl"
)

const contention = 0.5 // half of all transfers touch the 1% hot accounts

// run offers 15k txns/s for 1 s to 20 organizations on the framework,
// measuring after a 200 ms warm-up.
func run(framework string) bidl.ScenarioResult {
	var sp bidl.Scenario
	sp.Framework = framework
	sp.Nodes.Orgs = 20
	sp.Workload.Contention = contention
	sp.Workload.Seed = 7
	sp.Load.Rate = 15000
	sp.Load.Window = bidl.ScenarioDuration(time.Second)
	res, err := bidl.RunScenario(sp)
	if err != nil {
		log.Fatal(err)
	}
	if res.SafetyErr != nil {
		log.Fatal(res.SafetyErr)
	}
	return res
}

func main() {
	fmt.Printf("Supply-chain workload: %.0f%% of transfers touch hot items\n\n", contention*100)

	b := run(bidl.FrameworkBIDL)
	fmt.Printf("  BIDL:       throughput=%.0f txns/s abort_rate=%.1f%% (sequence-ordered execution)\n",
		b.Throughput, b.AbortRate*100)

	f := run(bidl.FrameworkFastFabric)
	fmt.Printf("  FastFabric: throughput=%.0f txns/s abort_rate=%.1f%% (MVCC aborts: %d)\n",
		f.Throughput, f.AbortRate*100, f.Collector.MVCCAborts)

	fmt.Println("\nBIDL eliminates contention aborts by executing contending transactions")
	fmt.Println("in sequence-number order (§4.3); FastFabric endorses them in parallel")
	fmt.Println("against the same snapshot and aborts the losers in validation.")
}
