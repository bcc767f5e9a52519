package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/bidl-framework/bidl/internal/scenario"
)

// runSample is everything one RunWith call yields to the benchmark: host
// timings stamped from outside the program, Go runtime deltas, and the
// simulation's own result and harness for the output checks.
type runSample struct {
	wall     time.Duration // spec in → audited Result out
	setup    time.Duration // RunWith entry → start of Driver.Run (bracket midpoint)
	setupRes time.Duration // gap between the samples that bracket the start of Driver.Run
	simulate time.Duration // Driver.Run → Observe hook
	audit    time.Duration // Observe hook → RunWith return
	cpu      time.Duration // process user+sys CPU
	peakHeap uint64        // peak /memory/classes/heap/objects:bytes while running

	mallocs, allocBytes, gcCycles uint64
	gcPause                       time.Duration
	gcCPU                         float64 // GC CPU seconds (runtime estimate)

	res scenario.Result
	h   scenario.Harness // set by the Observe hook
}

// release drops the run's simulation state so later runs do not carry its
// heap; the numbers the benchmark reports stay.
func (r *runSample) release() {
	r.h = nil
	r.res.Collector = nil
	r.res.Anatomy = nil
}

// runtimeCounters are the cumulative runtime/metrics values read around a run.
var runtimeCounters = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// sampleInterval is the period of the outside sampler: while set-up runs it
// dumps goroutine stacks to find the moment Driver.Run begins; for the whole
// run it reads the heap size.
const sampleInterval = 500 * time.Microsecond

// runMarker is the frame that shows the run goroutine has left set-up.
var runMarker = []byte("scenario.(*Driver).Run(")

type sampler struct {
	start    time.Time
	stop     chan struct{}
	done     chan struct{}
	runAt    time.Time // first sample inside Driver.Run (zero if never seen)
	lastPre  time.Time // last sample still in set-up
	peakHeap uint64

	// onRun, when set, is called from the sampler as soon as it has
	// bracketed the start of Driver.Run.
	onRun func(lastPre, runAt time.Time)
}

func startSampler(start time.Time, onRun func(lastPre, runAt time.Time)) *sampler {
	s := &sampler{start: start, stop: make(chan struct{}), done: make(chan struct{}), lastPre: start, onRun: onRun}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	heap := []metrics.Sample{{Name: heapMetric}}
	buf := make([]byte, 1<<16)
	t := time.NewTicker(sampleInterval)
	defer t.Stop()
	for {
		metrics.Read(heap)
		if v := heap[0].Value.Uint64(); v > s.peakHeap {
			s.peakHeap = v
		}
		if s.runAt.IsZero() {
			n := runtime.Stack(buf, true)
			for n == len(buf) {
				buf = make([]byte, 2*len(buf))
				n = runtime.Stack(buf, true)
			}
			now := time.Now()
			if bytes.Contains(buf[:n], runMarker) {
				s.runAt = now
				if s.onRun != nil {
					s.onRun(s.lastPre, now)
				}
			} else {
				s.lastPre = now
			}
		}
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops the sampler and waits for it to exit.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func counterValue(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return float64(s.Value.Uint64())
}

// measureRun executes one scenario run through RunWith and times its
// lifecycle boundaries from outside: set-up ends when a stack sample first
// shows Driver.Run, simulation ends at the Observe hook, and the audit ends
// when RunWith returns. The heap from earlier runs is collected first so
// runs do not pay for each other's garbage.
func measureRun(spec scenario.Scenario, rc scenario.RunConfig, spans *spanLog, runID int) (runSample, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := readCounters()
	cpu0 := cpuTime()

	var out runSample
	var observed time.Time
	rc.Observe = func(h scenario.Harness) {
		observed = time.Now()
		out.h = h
	}
	start := time.Now()
	smp := startSampler(start, nil)
	res, err := scenario.RunWith(spec, rc)
	end := time.Now()
	smp.finish()

	cpu1 := cpuTime()
	c1 := readCounters()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return out, fmt.Errorf("run %d: %w", runID, err)
	}
	if smp.runAt.IsZero() || observed.IsZero() {
		return out, fmt.Errorf("run %d: lifecycle boundaries not observed (Driver.Run seen: %v, Observe called: %v)",
			runID, !smp.runAt.IsZero(), !observed.IsZero())
	}
	// The run left set-up somewhere between the last set-up sample and the
	// first Driver.Run sample; take the midpoint.
	runAt := smp.lastPre.Add(smp.runAt.Sub(smp.lastPre) / 2)
	out.res = res
	out.wall = end.Sub(start)
	out.setup = runAt.Sub(start)
	out.setupRes = smp.runAt.Sub(smp.lastPre)
	out.simulate = observed.Sub(runAt)
	out.audit = end.Sub(observed)
	out.cpu = cpu1 - cpu0
	out.peakHeap = smp.peakHeap
	out.mallocs = c1[0].Value.Uint64() - c0[0].Value.Uint64()
	out.allocBytes = c1[1].Value.Uint64() - c0[1].Value.Uint64()
	out.gcCycles = c1[2].Value.Uint64() - c0[2].Value.Uint64()
	out.gcCPU = counterValue(c1[3]) - counterValue(c0[3])
	out.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	run := spans.add(runID, "run", -1, start, end)
	spans.add(runID, "setup", run, start, runAt)
	spans.add(runID, "simulate", run, runAt, observed)
	spans.add(runID, "audit", run, observed, end)
	return out, nil
}
