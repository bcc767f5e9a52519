package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/scenario"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// Isolated calls time each layer's exported entry points on the workload's
// own transactions, outside the simulation.
const (
	isoBatch   = 256 // calls per timed batch
	isoBatches = 8
)

// workloadConfig compiles the spec's workload section the way the scenario
// layer does for the generator it drives. isolatedCalls proves the two agree
// by checking that the transactions it regenerates are ones the run
// committed.
func workloadConfig(s scenario.Scenario) workload.Config {
	orgs := s.Nodes.Orgs
	if orgs == 0 {
		if s.Framework == scenario.FrameworkBIDL {
			orgs = core.DefaultConfig().NumOrgs
		} else {
			orgs = 50
		}
	}
	w := workload.DefaultConfig(orgs)
	ws := s.Workload
	if ws.Clients > 0 {
		w.NumClients = ws.Clients
	}
	if ws.Accounts > 0 {
		w.Accounts = ws.Accounts
	}
	if ws.HotFraction > 0 {
		w.HotFraction = ws.HotFraction
	}
	w.ContentionRatio = ws.Contention
	w.NondetRatio = ws.Nondet
	w.ZipfS = ws.ZipfS
	w.SettlementRatio = ws.Settlement
	if ws.InitialBalance != 0 {
		w.InitialBalance = ws.InitialBalance
	}
	if ws.Padding > 0 {
		w.Padding = ws.Padding
	}
	w.Seed = ws.Seed
	if w.Seed == 0 {
		w.Seed = s.EffectiveSeed()
	}
	if s.Shards > 1 {
		w.Shards = s.Shards
		w.CrossShardRatio = s.CrossShardRatio
	}
	return w
}

func registryOf(h scenario.Harness) *contract.Registry {
	switch c := h.(type) {
	case *core.Cluster:
		return c.Registry
	case *scenario.ShardedHarness:
		return c.Shard(0).Registry
	case *fabric.Cluster:
		return c.Registry
	}
	return nil
}

// timeBatches runs call on every element of isoBatches batches of isoBatch
// items and returns the median per-call nanoseconds, recording one span per
// batch.
func timeBatches(spans *spanLog, runID int, name string, call func(i int)) float64 {
	per := make([]float64, 0, isoBatches)
	for b := 0; b < isoBatches; b++ {
		start := time.Now()
		for i := b * isoBatch; i < (b+1)*isoBatch; i++ {
			call(i)
		}
		end := time.Now()
		spans.add(runID, name, -1, start, end)
		per = append(per, float64(end.Sub(start).Nanoseconds())/isoBatch)
	}
	return median(per)
}

// isolatedCalls times Generator.Next, Transaction.Marshal, Scheme.Sign and
// Verify, Registry.Execute and State.Apply on the run's own inputs, using
// the finished run's harness for its identity scheme and contracts.
func isolatedCalls(s scenario.Scenario, r runSample, spans *spanLog, runID int, out *metricSet) error {
	scheme := r.h.IdentityScheme()
	reg := registryOf(r.h)
	if reg == nil {
		return fmt.Errorf("isolated calls: unknown harness %T", r.h)
	}
	n := isoBatch * isoBatches
	gen := workload.NewGenerator(workloadConfig(s), scheme)
	txs := make([]*types.Transaction, n)
	out.set("workload.next_ns", "ns", timeBatches(spans, runID, "isolated/workload.Next", func(i int) {
		txs[i] = gen.Next()
	}))
	// The generator replays the run's input stream: its first transactions
	// are the ones the run submitted at t=0, so the run committed them.
	col := r.res.Collector
	for _, tx := range txs[:64] {
		if !col.IsCommitted(tx.ID()) {
			return fmt.Errorf("isolated calls: regenerated transaction %x was not committed by the run; the benchmark's workload compile differs from the scenario layer's", tx.ID())
		}
	}
	var sink int
	out.set("types.marshal_ns", "ns", timeBatches(spans, runID, "isolated/types.Marshal", func(i int) {
		sink += len(txs[i].Marshal())
	}))
	msgs := make([][]byte, n)
	for i, tx := range txs {
		msgs[i] = tx.SigningBytes()
	}
	out.set("crypto.sign_ns", "ns", timeBatches(spans, runID, "isolated/crypto.Sign", func(i int) {
		sig, err := scheme.Sign(txs[i].Client, msgs[i])
		if err == nil {
			sink += len(sig)
		}
	}))
	verified := 0
	out.set("crypto.verify_ns", "ns", timeBatches(spans, runID, "isolated/crypto.Verify", func(i int) {
		if scheme.Verify(txs[i].Client, msgs[i], txs[i].Sig) {
			verified++
		}
	}))
	if verified != n {
		return fmt.Errorf("isolated calls: %d of %d signatures failed to verify", n-verified, n)
	}

	st := ledger.NewState()
	workload.NewGenerator(workloadConfig(s), scheme).Prepopulate(st)
	nondet := rand.New(rand.NewSource(1))
	rws := make([]*ledger.RWSet, n)
	out.set("contract.execute_ns", "ns", timeBatches(spans, runID, "isolated/contract.Execute", func(i int) {
		rws[i] = reg.Execute(st, txs[i], nondet)
	}))
	out.set("ledger.apply_ns", "ns", timeBatches(spans, runID, "isolated/ledger.Apply", func(i int) {
		if !rws[i].Aborted {
			st.Apply(rws[i].Writes, ledger.Version{Block: uint64(i/isoBatch + 1), Tx: i % isoBatch})
		}
	}))
	_ = sink
	return nil
}
