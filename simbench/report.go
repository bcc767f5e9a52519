package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one named, unit-tagged number; NA marks a metric that does not
// apply to the workload (it is printed as such and left out of the JSON).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	NA    bool    `json:"not_applicable,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// metricSet keeps metrics in insertion order.
type metricSet struct {
	list  []metric
	index map[string]int
}

func (m *metricSet) put(x metric) {
	if m.index == nil {
		m.index = map[string]int{}
	}
	if i, ok := m.index[x.Name]; ok {
		m.list[i] = x
		return
	}
	m.index[x.Name] = len(m.list)
	m.list = append(m.list, x)
}

func (m *metricSet) set(name, unit string, v float64) {
	m.put(metric{Name: name, Unit: unit, Value: v})
}

func (m *metricSet) na(name, unit string) { m.put(metric{Name: name, Unit: unit, NA: true}) }

func (m *metricSet) note(name, note string) {
	if i, ok := m.index[name]; ok {
		m.list[i].Note = note
	}
}

func (m *metricSet) get(name string) (metric, bool) {
	i, ok := m.index[name]
	if !ok {
		return metric{}, false
	}
	return m.list[i], true
}

func (m *metricSet) print(w io.Writer) {
	for _, x := range m.list {
		v := "n/a"
		if !x.NA {
			v = fmt.Sprintf("%.6g", x.Value)
		}
		line := fmt.Sprintf("  %-30s %14s %-5s", x.Name, v, x.Unit)
		if x.Note != "" {
			line += "  " + x.Note
		}
		fmt.Fprintln(w, line)
	}
}

// The metrics the final JSON line carries, per mode. They mirror the
// end_to_end and per_layer lists of BENCHMARK.json (a test keeps them in
// step). Two of the ten end-to-end metrics travel with the per-layer ones:
// failed_frac is zero on the steady workloads, and vgap_max_ms on a sharded
// deployment is the phase of four block timers, which no bound can hold
// across seeds. Both are still printed with the end-to-end metrics, and
// vcommit_frac (1 - failed_frac, never zero) carries the failure share in
// the end-to-end JSON.
var (
	endToEndJSON = []string{
		"wall_s", "setup_s", "sim_tx_per_s", "cpu_s", "peak_heap_mb",
		"vtput_tps", "vlat_p50_ms", "vlat_p99_ms", "vcommit_frac",
	}
	perLayerJSON = []string{
		"vgap_max_ms", "failed_frac",
		"scenario.simulate_s", "scenario.audit_s",
		"host.core", "host.crypto", "host.ledger", "host.contract", "host.types",
		"host.simnet", "host.consensus", "host.fabric", "host.scenario",
		"host.workload", "host.metrics", "host.trace", "host.other",
		"host.runtime_gc", "host.runtime_other",
		"crypto.sign_ns", "crypto.verify_ns", "contract.execute_ns",
		"ledger.apply_ns", "types.marshal_ns", "workload.next_ns",
		"runtime.mallocs_per_tx", "runtime.alloc_bytes_per_tx", "runtime.gc_cycles",
		"runtime.gc_pause_s", "runtime.gc_cpu_frac",
		"simnet.events", "simnet.events_per_tx", "simnet.ns_per_event",
		"v.sequenced.wait_p50_ms", "v.sequenced.wait_p99_ms",
		"v.delivered.wait_p50_ms", "v.delivered.wait_p99_ms",
		"v.exec_start.wait_p50_ms", "v.exec_start.wait_p99_ms",
		"v.executed.wait_p50_ms", "v.executed.wait_p99_ms",
		"v.persisted.wait_p50_ms", "v.persisted.wait_p99_ms",
		"v.agreed.wait_p50_ms", "v.agreed.wait_p99_ms",
		"v.notified.wait_p50_ms", "v.notified.wait_p99_ms",
		"v.spec_overlap", "v.view_changes", "v.dropped_msgs",
		"v.busy_max.consensus", "v.busy_max.normal",
		"v.queue_max.consensus", "v.queue_max.normal",
		"v.msgs_per_tx", "v.bytes_per_tx", "v.abort_frac",
		"trace_overhead",
	}
)

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// resultJSON builds the final line from the named metrics. A listed metric
// that is missing or not applicable is an error in a correct set: the JSON
// must carry all. A set whose checks failed reports what it has.
func resultJSON(m *metricSet, names []string, correct bool, attempted, failed int) ([]byte, error) {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonValue{}}
	for _, n := range names {
		x, ok := m.get(n)
		if !ok || x.NA || math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			if !correct {
				continue
			}
			return nil, fmt.Errorf("metric %s has no value", n)
		}
		out.Metrics[n] = jsonValue{Value: x.Value, Unit: x.Unit}
	}
	return json.Marshal(out)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
