package bench

import (
	"testing"
)

// BenchmarkPipelineHotPath is the `go test -bench` entry point for
// PipelineHotPath (see hotpath.go — the body is exported so cmd/bidl-perfgate
// can run the identical benchmark against the committed baseline). `make ci`
// runs this with -benchtime=1x as a smoke test, which also asserts that
// every submitted transaction commits.
func BenchmarkPipelineHotPath(b *testing.B) { PipelineHotPath(b) }

// TestPipelineHotPathAllocs pins the profile-guided allocation budget: one
// transaction end-to-end currently costs ~310 allocations (down from 1828
// before the persist-path memoization — content-key/vector-digest caching,
// bitmask persist votes, pooled HMAC states). The ceiling leaves headroom
// for noise but fails loudly if a hot-path regression reintroduces per-echo
// hashing or per-vote map churn. The bytes ceiling (~63 KB/op measured)
// fails if receivers go back to re-encoding each PERSIST batch to verify
// it, which costs ~151 KB/op.
func TestPipelineHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark run")
	}
	r := testing.Benchmark(BenchmarkPipelineHotPath)
	if a := r.AllocsPerOp(); a > 400 {
		t.Fatalf("pipeline hot path allocates %d/op; ceiling 400", a)
	}
	if b := r.AllocedBytesPerOp(); b > 96<<10 {
		t.Fatalf("pipeline hot path allocates %d B/op; ceiling %d", b, 96<<10)
	}
}
