// Trading: the paper's motivating scenario (§1) — an in-datacenter stock
// exchange needs ~50k txns/s with tens-of-milliseconds commit latency.
// This example drives BIDL at exchange-scale load and reports the latency
// distribution a trading desk would care about.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/bidl-framework/bidl"
)

func main() {
	fmt.Println("BIDL as an in-datacenter exchange (SmallBank transfers)")

	// Three one-second trading sessions at rising load: 10k, 25k, 40k
	// txns/s, each on paper setting A (4 consensus nodes, 50 orgs) with the
	// paper's 100 clients, measured after 200 ms of warm-up.
	for _, rate := range []float64{10000, 25000, 40000} {
		var sp bidl.Scenario
		sp.Workload.Seed = 7
		sp.Load.Rate = rate
		sp.Load.Window = bidl.ScenarioDuration(time.Second)
		sp.Load.Warmup = bidl.ScenarioDuration(200 * time.Millisecond)
		res, err := bidl.RunScenario(sp)
		if err != nil {
			log.Fatal(err)
		}
		if res.SafetyErr != nil {
			log.Fatal(res.SafetyErr)
		}
		fmt.Printf("  session %.0fk txns/s: throughput=%.0f avg=%v p50=%v p99=%v\n",
			rate/1000, res.Throughput,
			res.AvgLatency.Round(10*time.Microsecond),
			res.P50.Round(10*time.Microsecond),
			res.P99.Round(10*time.Microsecond))
	}
	fmt.Println("  safety: all correct nodes consistent")
}
