package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"github.com/bidl-framework/bidl/internal/scenario"
)

// Set-up time is measured in probe processes: the benchmark starts its own
// binary again with probeEnv set, the probe calls RunWith on the same spec,
// and its stack sampler ends the process as soon as it has bracketed the
// start of Driver.Run. A probe costs one set-up, not one whole run, so a set
// holds enough of them for a steady median (20 to 80), and each one starts
// from a fresh process, as a user's run does.

// probeEnv carries the probe's arguments (JSON probeArgs) to the child.
const probeEnv = "SIMBENCH_SETUP_PROBE"

// probesPerRun is how many probes a set makes before each run.
const probesPerRun = 5

// probeTimeout bounds one probe process; it is killed and waited for after.
const probeTimeout = 60 * time.Second

type probeArgs struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Window   time.Duration `json:"window_ns"`
}

// setupSample is one probe's set-up time (bracket midpoint) and the width of
// the bracket around the start of Driver.Run.
type setupSample struct {
	setup, res time.Duration
}

// probeMain is the whole life of a probe process. It prints
// "<setup ns> <bracket ns>" and exits from the sampler, so the simulation
// itself never runs to completion.
func probeMain(arg string) int {
	var a probeArgs
	if err := json.Unmarshal([]byte(arg), &a); err != nil {
		fmt.Fprintln(os.Stderr, "simbench probe:", err)
		return 2
	}
	w, err := findWorkload(a.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench probe:", err)
		return 2
	}
	spec := benchSpec(w, options{seed: a.Seed, window: a.Window})
	start := time.Now()
	startSampler(start, func(lastPre, runAt time.Time) {
		mid := lastPre.Add(runAt.Sub(lastPre) / 2)
		fmt.Printf("%d %d\n", mid.Sub(start).Nanoseconds(), runAt.Sub(lastPre).Nanoseconds())
		os.Exit(0)
	})
	_, err = scenario.RunWith(spec, scenario.RunConfig{})
	fmt.Fprintf(os.Stderr, "simbench probe: RunWith returned before Driver.Run was seen (err: %v)\n", err)
	return 1
}

// measureSetup runs n probe processes one after another.
func measureSetup(o options, n int, spans *spanLog, firstID int) ([]setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(probeArgs{Workload: o.workload, Seed: o.seed, Window: o.window})
	if err != nil {
		return nil, err
	}
	env := append(os.Environ(), probeEnv+"="+string(arg))
	out := make([]setupSample, 0, n)
	for i := 0; i < n; i++ {
		s, err := runProbe(exe, env, spans, firstID+i)
		if err != nil {
			return out, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func runProbe(exe string, env []string, spans *spanLog, id int) (setupSample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	start := time.Now()
	b, err := cmd.Output() // waits for the process, also when it is killed
	spans.add(id, "setup_probe", -1, start, time.Now())
	if err != nil {
		return setupSample{}, err
	}
	var setupNs, resNs int64
	if _, err := fmt.Sscan(strings.TrimSpace(string(b)), &setupNs, &resNs); err != nil {
		return setupSample{}, fmt.Errorf("unreadable probe output %q: %w", b, err)
	}
	return setupSample{setup: time.Duration(setupNs), res: time.Duration(resNs)}, nil
}
