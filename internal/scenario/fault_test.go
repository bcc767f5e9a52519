package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/chaos"
)

// TestParseRejectsUnknownFaultField pins strict parsing inside the faults
// array: a typo in a fault entry ("kins", "duraton") must be a parse error,
// not a silently ignored knob that turns the fault into a no-op.
func TestParseRejectsUnknownFaultField(t *testing.T) {
	_, err := Parse([]byte(`{
		"load": {"rate": 100, "window": "1s"},
		"faults": [{"kind": "crash", "att": "100ms"}]
	}`))
	if err == nil || !strings.Contains(err.Error(), "att") {
		t.Fatalf("want unknown-field error naming \"att\", got %v", err)
	}
}

// TestValidateFaults covers the fault-schedule rejection classes surfaced
// through Scenario.Validate: malformed schedules (delegated to
// chaos.ValidateSchedule), out-of-range targets against the compiled
// cluster, and framework restrictions.
func TestValidateFaults(t *testing.T) {
	ms := func(n int) Duration { return Duration(time.Duration(n) * time.Millisecond) }
	cases := []struct {
		name   string
		faults []FaultSpec
		mut    func(*Scenario)
		want   string // substring of the expected error; "" = valid
	}{
		{"crash-ok", []FaultSpec{{Kind: "crash", At: ms(100), Duration: ms(200), Org: 2}}, nil, ""},
		{"unknown-kind", []FaultSpec{{Kind: "meteor"}}, nil, `unknown kind "meteor"`},
		{"negative-time", []FaultSpec{{Kind: "crash", At: ms(-5)}}, nil, "times must be >= 0"},
		{
			"overlapping-windows",
			[]FaultSpec{
				{Kind: "drop_storm", At: ms(100), Duration: ms(200), Rate: 0.5},
				{Kind: "drop_storm", At: ms(200), Duration: ms(200), Rate: 0.5},
			},
			nil,
			"active windows overlap",
		},
		{"partition-zero-duration", []FaultSpec{{Kind: "partition", Org: 1}}, nil, "duration must be > 0"},
		{"storm-zero-rate", []FaultSpec{{Kind: "drop_storm", Duration: ms(100)}}, nil, "rate must be > 0"},
		{
			"crash-org-out-of-range",
			[]FaultSpec{{Kind: "crash", Duration: ms(100), Org: 99}},
			nil,
			"org 99 out of range",
		},
		{
			"crash-node-out-of-range",
			[]FaultSpec{{Kind: "crash", Duration: ms(100), Org: 0, Node: 7}},
			nil,
			"node 7 out of range",
		},
		{
			"dc-out-of-range",
			[]FaultSpec{{Kind: "dc_outage", Duration: ms(100), DC: 5}},
			nil,
			"dc 5 out of range",
		},
		{
			"broadcaster-on-fabric",
			[]FaultSpec{{Kind: "broadcaster"}},
			func(s *Scenario) { s.Framework = FrameworkHLF },
			"requires the bidl framework",
		},
		{
			// Adversaries are ordinary schedule entries, so a second
			// broadcaster armed while the first runs is caught by the same
			// overlap rule as any other fault.
			"attack-and-fault-overlap",
			[]FaultSpec{{Kind: "broadcaster"}, {Kind: "broadcaster", At: ms(100)}},
			nil,
			"active windows overlap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			s.Faults = tc.faults
			if tc.mut != nil {
				tc.mut(&s)
			}
			err := s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestChaosExampleSpecsParse strict-parses and validates every shipped
// chaos scenario file, and cross-checks the catalog: each catalog entry's
// File exists and compiles to a non-empty fault schedule.
func TestChaosExampleSpecsParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenario-chaos-*.json"))
	if err != nil || len(files) < 3 {
		t.Fatalf("want >= 3 chaos example specs, got %d (err %v)", len(files), err)
	}
	seen := map[string]bool{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(data)
		if err != nil {
			t.Errorf("%s: parse: %v", f, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: validate: %v", f, err)
		}
		if len(s.FaultSchedule()) == 0 {
			t.Errorf("%s: no faults in schedule", f)
		}
		seen[filepath.Base(f)] = true
	}
	for _, e := range chaos.Catalog() {
		if !seen[filepath.Base(e.File)] {
			t.Errorf("catalog entry %s references missing spec %s", e.ID, e.File)
		}
	}
}
