// Multi-datacenter: the §6.4 deployment — four datacenters connected by
// dedicated cables with 20 ms RTT and limited shared bandwidth. IP multicast
// and consensus-on-hash let BIDL cross the inter-DC pipes once per payload;
// with both optimizations disabled, the same payload crosses once per
// receiver and throughput collapses as bandwidth tightens.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/bidl-framework/bidl"
)

func main() {
	run := func(gbps float64, optDisabled bool) (float64, uint64) {
		var sp bidl.Scenario
		sp.Nodes.Datacenters = 4
		sp.Topology.InterDCGbps = gbps
		sp.Topology.InterLatency = bidl.ScenarioDuration(10 * time.Millisecond) // 20 ms RTT
		sp.Tuning.ViewTimeout = bidl.ScenarioDuration(400 * time.Millisecond)
		sp.Tuning.BlockTimeout = bidl.ScenarioDuration(25 * time.Millisecond)
		sp.Tuning.DisableMulticast = optDisabled
		sp.Tuning.ConsensusOnPayload = optDisabled
		sp.Workload.Seed = 7
		sp.Load.Rate = 15000
		sp.Load.Window = bidl.ScenarioDuration(time.Second)
		sp.Load.Warmup = bidl.ScenarioDuration(300 * time.Millisecond)
		sp.Load.Drain = bidl.ScenarioDuration(time.Second)

		var interDC uint64
		res, err := bidl.RunScenarioWith(sp, bidl.ScenarioRunConfig{
			Observe: func(h bidl.Harness) { interDC = h.(*bidl.Cluster).Net.InterDCBytes() },
		})
		if err != nil {
			log.Fatal(err)
		}
		if res.SafetyErr != nil {
			log.Fatal(res.SafetyErr)
		}
		return res.Throughput, interDC
	}

	fmt.Println("BIDL across 4 datacenters (20 ms inter-DC RTT), offered 15k txns/s")
	fmt.Println("bandwidth   bidl txns/s  (interDC MB)   opt-disabled txns/s  (interDC MB)")
	for _, gbps := range []float64{10, 2, 1} {
		t1, b1 := run(gbps, false)
		t2, b2 := run(gbps, true)
		fmt.Printf("  %4.1f Gbps  %9.0f     (%6.1f)      %9.0f          (%6.1f)\n",
			gbps, t1, float64(b1)/1e6, t2, float64(b2)/1e6)
	}
	fmt.Println("\nIP multicast + consensus-on-hash cross each inter-DC pipe once per")
	fmt.Println("payload; disabling them multiplies inter-DC traffic by the receiver count.")
}
