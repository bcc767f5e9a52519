package scenario

import (
	"github.com/bidl-framework/bidl/internal/attack"
	"github.com/bidl-framework/bidl/internal/baseline/fabric"
	"github.com/bidl-framework/bidl/internal/chaos"
	"github.com/bidl-framework/bidl/internal/core"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/workload"
)

// All three harnesses satisfy the framework-agnostic surface.
var (
	_ Harness = (*core.Cluster)(nil)
	_ Harness = (*fabric.Cluster)(nil)
	_ Harness = (*ShardedHarness)(nil)
)

// built is what a compile target hands back to RunWith: a ready harness, the
// organization count the workload generator must span, and a closure that
// arms the spec's fault schedule (called after membership is complete —
// arming earlier would shift endpoint IDs — and before load is scheduled).
type built struct {
	harness   Harness
	orgs      int
	armFaults func(gen *workload.Generator)
}

// compileTarget builds one framework family's harness from a validated,
// defaults-resolved spec.
type compileTarget func(s Scenario, rc RunConfig) built

// The compile-target registry. RunWith stays framework-agnostic: a new
// family (the sharded multi-channel deployment was the third) plugs in by
// registering a target here instead of growing an if/else ladder in the
// driver.
const (
	targetBIDL    = "bidl"
	targetFabric  = "fabric"
	targetSharded = "bidl-sharded"
)

var compileTargets = map[string]compileTarget{}

func registerTarget(name string, t compileTarget) {
	if _, dup := compileTargets[name]; dup {
		panic("scenario: duplicate compile target " + name)
	}
	compileTargets[name] = t
}

func init() {
	registerTarget(targetBIDL, buildBIDL)
	registerTarget(targetFabric, buildFabric)
	registerTarget(targetSharded, buildSharded)
}

// targetName selects the compile target for a defaults-resolved spec.
// Sharding is a BIDL deployment shape, not a framework: `shards: 1` (or
// absent) compiles through the ordinary single-channel target, which is what
// keeps unsharded goldens byte-identical.
func (s Scenario) targetName() string {
	switch {
	case s.Framework != FrameworkBIDL:
		return targetFabric
	case s.Shards > 1:
		return targetSharded
	default:
		return targetBIDL
	}
}

// buildBIDL compiles the single-channel BIDL cluster.
func buildBIDL(s Scenario, rc RunConfig) built {
	cfg := s.bidlConfig()
	cfg.Tracer = rc.Tracer
	bc := core.NewCluster(cfg)
	bc.Sim.ForceSerial(rc.ForceSerialSim)
	return built{
		harness: bc,
		orgs:    cfg.NumOrgs,
		armFaults: func(gen *workload.Generator) {
			installFaults(s.compiledFaults(), bidlChaosEnv(bc, gen), s.EffectiveSeed())
		},
	}
}

// buildFabric compiles one of the baseline clusters (HLF / FastFabric /
// StreamChain).
func buildFabric(s Scenario, rc RunConfig) built {
	cfg := s.fabricConfig()
	cfg.Tracer = rc.Tracer
	fc := fabric.NewCluster(cfg)
	fc.Sim.ForceSerial(rc.ForceSerialSim)
	return built{
		harness: fc,
		orgs:    cfg.NumOrgs,
		armFaults: func(gen *workload.Generator) {
			installFaults(s.compiledFaults(), fabricChaosEnv(fc), s.EffectiveSeed())
		},
	}
}

// buildSharded compiles the multi-channel deployment: s.Shards copies of the
// compiled BIDL config on one shared simulation. Faults arm per shard — each
// shard's schedule gets its own injector bound to that shard's cluster.
func buildSharded(s Scenario, rc RunConfig) built {
	cfg := s.bidlConfig()
	cfg.Tracer = rc.Tracer
	workers := cfg.SimWorkers
	cfg.SimWorkers = 0 // the harness drives the shared engine's workers
	h := NewShardedHarness(ShardedConfig{Shards: s.Shards, Shard: cfg, SimWorkers: workers})
	h.ForceSerial(rc.ForceSerialSim)
	return built{
		harness: h,
		orgs:    cfg.NumOrgs,
		armFaults: func(gen *workload.Generator) {
			for i := 0; i < h.NumShards(); i++ {
				// Offset the injector seed per shard so concurrent same-kind
				// faults draw decorrelated randomness.
				installFaults(s.faultsForShard(i), bidlChaosEnv(h.Shard(i), gen),
					s.EffectiveSeed()+int64(i)*1_000_000_007)
			}
		},
	}
}

// installFaults arms a non-empty compiled schedule.
func installFaults(faults []chaos.Fault, env chaos.Env, seed int64) {
	if len(faults) == 0 {
		return
	}
	chaos.NewInjector(env, faults, seed).Install()
}

// bidlChaosEnv assembles the injector's cluster surface for a BIDL cluster
// (standalone or one shard): endpoint rosters plus closures binding the
// malicious-leader toggle and broadcaster attachment to the attack package.
func bidlChaosEnv(bc *core.Cluster, gen *workload.Generator) chaos.Env {
	cons := make([]*simnet.Endpoint, len(bc.ConsNodes))
	seqs := make([]*simnet.Endpoint, len(bc.Sequencers))
	for i, cn := range bc.ConsNodes {
		cons[i] = cn.Endpoint()
	}
	for i, sq := range bc.Sequencers {
		seqs[i] = sq.Endpoint()
	}
	orgs := make([][]*simnet.Endpoint, len(bc.Orgs))
	for i, org := range bc.Orgs {
		orgs[i] = make([]*simnet.Endpoint, len(org))
		for j, nn := range org {
			orgs[i][j] = nn.Endpoint()
		}
	}
	return chaos.Env{
		Sim:         bc.Sim,
		Net:         bc.Net,
		Consensus:   cons,
		Sequencers:  seqs,
		Orgs:        orgs,
		LeaderIndex: bc.LeaderIndex,
		SetLeaderEvil: func(on bool) {
			if on {
				attack.EnableMaliciousLeader(bc, bc.LeaderIndex())
				return
			}
			for _, sq := range bc.Sequencers {
				sq.Garbage = false
			}
		},
		StartBroadcaster: func(f chaos.Fault) {
			cfg := attack.DefaultBroadcasterConfig()
			if len(f.MaliciousClients) > 0 {
				cfg.MaliciousClients = f.MaliciousClients
			}
			if f.Window > 0 {
				cfg.Window = f.Window
			}
			if f.Interval != 0 {
				cfg.Interval = f.Interval
			}
			if f.DetectLag != 0 {
				cfg.DetectLag = f.DetectLag
			}
			if f.Kind == chaos.KindSmart {
				cfg.TargetLeader = bc.LeaderIndex()
			}
			attack.NewBroadcaster(bc, gen, cfg).Start(f.At)
		},
	}
}

// fabricChaosEnv assembles the injector's cluster surface for a baseline:
// orderers play the consensus role, peers the org role, and there is no
// sequencer multicast to race (broadcaster kinds are validated out).
func fabricChaosEnv(fc *fabric.Cluster) chaos.Env {
	cons := make([]*simnet.Endpoint, len(fc.Orderers))
	for i, o := range fc.Orderers {
		cons[i] = o.Endpoint()
	}
	orgs := make([][]*simnet.Endpoint, len(fc.Peers))
	for i, org := range fc.Peers {
		orgs[i] = make([]*simnet.Endpoint, len(org))
		for j, p := range org {
			orgs[i][j] = p.Endpoint()
		}
	}
	return chaos.Env{
		Sim:         fc.Sim,
		Net:         fc.Net,
		Consensus:   cons,
		Orgs:        orgs,
		LeaderIndex: fc.LeaderIndex,
		SetLeaderEvil: func(on bool) {
			if on {
				fc.Orderers[fc.LeaderIndex()].ProposeGarbage = true
				return
			}
			for _, o := range fc.Orderers {
				o.ProposeGarbage = false
			}
		},
	}
}
