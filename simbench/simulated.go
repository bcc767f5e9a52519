package main

import (
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
)

// gapResolution is the commit-timeline bucket width behind vgap_max_ms.
const gapResolution = time.Microsecond

// loadWindow resolves the measurement window [warmup, window) the way
// scenario.RunWith does (warmup defaults to window/5).
func loadWindow(s scenario.Scenario) (warmup, window time.Duration) {
	window = s.Load.Window.D()
	warmup = s.Load.Warmup.D()
	if warmup == 0 {
		warmup = window / 5
	}
	return warmup, window
}

// maxCommitGap is the longest stretch of [from, to) with no valid commit,
// read from the collector's commit timeline at the given bucket width.
func maxCommitGap(col *metrics.Collector, width, from, to time.Duration) time.Duration {
	tl := col.Timeline(width, to)
	best, cur := 0, 0
	for i := int(from / width); i < len(tl); i++ {
		if tl[i] != 0 {
			cur = 0
			continue
		}
		if cur++; cur > best {
			best = cur
		}
	}
	return time.Duration(best) * width
}

// failedFrac is the share of submitted transactions that aborted or never
// committed by the end of the drain.
func failedFrac(col *metrics.Collector, submitted int) float64 {
	if submitted == 0 {
		return 0
	}
	lost := submitted - col.NumCommitted()
	return float64(col.NumAborted()+lost) / float64(submitted)
}

// simulated are a run's virtual-time end-to-end metrics. They are
// deterministic for a seed, so they are part of the fingerprint.
type simulated struct {
	vtput      float64
	p50, p99   time.Duration
	vgap       time.Duration
	failedFrac float64
	samples    int // valid commits in the measurement window

	submitted, committed, aborted int
}

func simulatedMetrics(s scenario.Scenario, res scenario.Result) simulated {
	warmup, window := loadWindow(s)
	col := res.Collector
	return simulated{
		vtput:      res.Throughput,
		p50:        res.P50,
		p99:        res.P99,
		vgap:       maxCommitGap(col, gapResolution, warmup, window),
		failedFrac: failedFrac(col, res.Submitted),
		samples:    int(res.Throughput*(window-warmup).Seconds() + 0.5),
		submitted:  res.Submitted,
		committed:  col.NumCommitted(),
		aborted:    col.NumAborted(),
	}
}

// ledgerDigests returns the chained head-of-ledger digest of every channel.
func ledgerDigests(h scenario.Harness) []string {
	var out []string
	switch c := h.(type) {
	case *core.Cluster:
		d := c.LedgerDigest()
		out = append(out, hex.EncodeToString(d[:]))
	case *scenario.ShardedHarness:
		for _, d := range c.LedgerDigests() {
			out = append(out, hex.EncodeToString(d[:]))
		}
	case *fabric.Cluster:
		d := c.Peers[0][0].Blocks().LastDigest()
		out = append(out, hex.EncodeToString(d[:]))
	}
	return out
}

// network returns the harness's simulated network (one per simulation; a
// sharded deployment's channels share it).
func network(h scenario.Harness) *simnet.Network {
	switch c := h.(type) {
	case *core.Cluster:
		return c.Net
	case *scenario.ShardedHarness:
		return c.Shard(0).Net
	case *fabric.Cluster:
		return c.Net
	}
	return nil
}

// fingerprint identifies a run's outputs. Every run of a set, traced or not,
// on either engine, must produce the same one.
type fingerprint struct {
	Events     uint64
	Submitted  int
	Committed  int
	Aborted    int
	Ledgers    string
	VTput      float64
	P50, P99   time.Duration
	VGap       time.Duration
	FailedFrac float64
}

func fingerprintOf(s scenario.Scenario, r runSample) fingerprint {
	sim := simulatedMetrics(s, r.res)
	col := r.res.Collector
	return fingerprint{
		Events:     r.res.Events,
		Submitted:  r.res.Submitted,
		Committed:  col.NumCommitted(),
		Aborted:    col.NumAborted(),
		Ledgers:    strings.Join(ledgerDigests(r.h), ","),
		VTput:      sim.vtput,
		P50:        sim.p50,
		P99:        sim.p99,
		VGap:       sim.vgap,
		FailedFrac: sim.failedFrac,
	}
}

// diff lists the fields in which got differs from want.
func (want fingerprint) diff(got fingerprint) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v != %v", name, b, a))
		}
	}
	add("simnet.events", want.Events, got.Events)
	add("submitted", want.Submitted, got.Submitted)
	add("committed", want.Committed, got.Committed)
	add("aborted", want.Aborted, got.Aborted)
	add("ledger_digests", want.Ledgers, got.Ledgers)
	add("vtput_tps", want.VTput, got.VTput)
	add("vlat_p50_ms", want.P50, got.P50)
	add("vlat_p99_ms", want.P99, got.P99)
	add("vgap_max_ms", want.VGap, got.VGap)
	add("failed_frac", want.FailedFrac, got.FailedFrac)
	return out
}

// stageNames are the anatomy stages reported as v.<stage>.*, in lifecycle
// order. The x_* stages exist only on sharded deployments.
var stageNames = []struct {
	key   string
	stage trace.Stage
}{
	{"sequenced", trace.StageSequenced},
	{"delivered", trace.StageDelivered},
	{"exec_start", trace.StageExecStart},
	{"executed", trace.StageExecuted},
	{"persisted", trace.StagePersisted},
	{"agreed", trace.StageAgreed},
	{"x_prepared", trace.StageXPrepared},
	{"x_resolved", trace.StageXResolved},
	{"notified", trace.StageNotified},
}

// roleOf maps an endpoint name to its role. Fabric orderers run the ordering
// consensus and Fabric peers execute, so they share the BIDL roles.
func roleOf(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:] // strip a shard label
	}
	switch {
	case strings.HasPrefix(name, "cn"), strings.HasPrefix(name, "orderer"):
		return "consensus"
	case strings.HasPrefix(name, "seq"):
		return "sequencer"
	case strings.Contains(name, "-nn"), strings.Contains(name, "-peer"):
		return "normal"
	case strings.HasPrefix(name, "client-"):
		return "client"
	}
	return "other"
}

var roles = []string{"consensus", "sequencer", "normal"}

// tracedLayers derives the simulated per-layer metrics of a traced run. A
// metric that does not apply to the deployment is absent from the map.
func tracedLayers(s scenario.Scenario, r runSample, tr *trace.Tracer, out *metricSet) error {
	if d := tr.DroppedTxEvents() + tr.DroppedPhaseEvents(); d > 0 {
		return fmt.Errorf("tracer ring overflowed by %d events; the anatomy would be partial", d)
	}
	rep := anatomy.Compute(tr.TxEvents(), tr.PhaseEvents(), anatomy.Options{Windows: s.AnatomyWindows()})
	var sum time.Duration
	for _, st := range rep.Stages {
		sum += st.Total
	}
	if sum != rep.TotalE2E {
		return fmt.Errorf("anatomy stage waits sum to %v, not the end-to-end %v", sum, rep.TotalE2E)
	}
	for _, sn := range stageNames {
		st := rep.StageWait(sn.stage)
		if st.Count == 0 {
			out.na("v."+sn.key+".wait_p50_ms", "ms")
			out.na("v."+sn.key+".wait_p99_ms", "ms")
			continue
		}
		out.set("v."+sn.key+".wait_p50_ms", "ms", ms(st.P50))
		out.set("v."+sn.key+".wait_p99_ms", "ms", ms(st.P99))
	}
	out.set("v.anatomy_samples", "count", float64(rep.Complete))
	out.set("v.spec_overlap", "frac", rep.Overlap.Ratio)

	col := r.res.Collector
	if col.Speculated > 0 {
		out.set("v.spec_success", "frac", col.SpecSuccessRate())
	} else {
		out.na("v.spec_success", "frac")
	}
	out.set("v.view_changes", "count", float64(col.ViewChanges))

	horizon := tr.Horizon()
	busy := map[string]float64{}
	queue := map[string]int{}
	seen := map[string]bool{}
	var dropped uint64
	for id := 0; id < tr.NumNodes(); id++ {
		role := roleOf(tr.NodeName(id))
		var b time.Duration
		for _, nb := range tr.NodeBuckets(id) {
			b += nb.Busy
			dropped += nb.Dropped
			if nb.MaxQueue > queue[role] {
				queue[role] = nb.MaxQueue
			}
		}
		seen[role] = true
		if f := float64(b) / float64(horizon); f > busy[role] {
			busy[role] = f
		}
	}
	out.set("v.dropped_msgs", "count", float64(dropped))
	for _, role := range roles {
		if !seen[role] {
			out.na("v.busy_max."+role, "frac")
			out.na("v.queue_max."+role, "count")
			continue
		}
		out.set("v.busy_max."+role, "frac", busy[role])
		out.set("v.queue_max."+role, "count", float64(queue[role]))
	}
	return nil
}

// untracedLayers derives the simulated per-layer metrics available on every
// run, traced or not.
func untracedLayers(r runSample, out *metricSet) {
	col := r.res.Collector
	committed := float64(col.NumCommitted())
	if n := network(r.h); n != nil && committed > 0 {
		out.set("v.msgs_per_tx", "count", float64(n.TotalMessages())/committed)
		out.set("v.bytes_per_tx", "B", float64(n.TotalBytes())/committed)
	}
	out.set("v.abort_frac", "frac", col.AbortRate())
	if sh, ok := r.h.(*scenario.ShardedHarness); ok {
		begun, committed, _, _ := sh.CrossShardStats()
		if begun > 0 {
			out.set("v.xshard_commit_frac", "frac", float64(committed)/float64(begun))
		}
	}
	if _, ok := out.get("v.xshard_commit_frac"); !ok {
		out.na("v.xshard_commit_frac", "frac")
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
