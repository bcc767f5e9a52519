package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var goldenUpdate = flag.Bool("golden-update", false, "regenerate golden files")

func goldenOptions() Options { return Options{Scale: 0.05, Seed: 7, Workers: 1} }

// goldenIDs cover one BIDL-only experiment, one fabric-variant experiment,
// the broadcaster-attack timeline path (fig7), the malicious-actor
// matrix (table4) — the last two pin the attack wiring, so routing attacks
// through the chaos fault schedule is provably behavior-preserving — and
// the traced latency-anatomy sweep, which pins the critical-path
// decomposition end to end (stage instrumentation included). The
// contention experiment pins the million-user workload layer: Zipf skew,
// settlement flows, load shapes, and closed-loop backpressure. The sharding
// experiment pins the multi-channel deployment: keyspace routing, the
// ShardedHarness, and the cross-shard 2PC path across shard count ×
// cross-shard ratio.
var goldenIDs = []string{"ablation", "table2", "fig7", "table4", "anatomy", "contention", "sharding"}

// TestGoldenScenarioTables is the behavior-preservation gate for the run
// path: running registry experiments through the declarative scenario
// driver must reproduce the pinned tables byte-for-byte (rendered text +
// CSV) AND execute exactly the same number of virtual events. The files
// under testdata/ are only regenerated on a deliberate behavior change:
// go test ./internal/bench -run TestGoldenScenarioTables -golden-update
func TestGoldenScenarioTables(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment sweeps")
	}
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			table, stats, err := Measure(id, goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			table.Render(&buf)
			table.CSV(&buf)
			fmt.Fprintf(&buf, "virtual_events: %d\n", stats.VirtualEvents)

			path := filepath.Join("testdata", "golden-"+id+".txt")
			if *goldenUpdate {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s diverges from pre-refactor golden:\n--- got ---\n%s\n--- want ---\n%s",
					id, buf.Bytes(), want)
			}
		})
	}
}
