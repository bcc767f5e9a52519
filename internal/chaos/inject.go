package chaos

import (
	"math/rand"
	"time"

	"github.com/bidl-framework/bidl/internal/simnet"
)

// Env is the cluster surface the injector needs, assembled by the scenario
// layer. Endpoint rosters give the injector crash/partition targets without
// knowing node types; the closures delegate the cluster-specific mutations
// (leader identification, malicious-leader toggles, broadcaster attachment)
// back to the caller, so the same schedule drives BIDL and the baselines.
type Env struct {
	Sim *simnet.Sim
	Net *simnet.Network

	// Consensus holds the consensus-node (BIDL) or orderer (baseline)
	// endpoints, indexed like the cluster. Sequencers is parallel to
	// Consensus for BIDL and nil for the baselines. Orgs holds the
	// normal-node/peer endpoints per organization.
	Consensus  []*simnet.Endpoint
	Sequencers []*simnet.Endpoint
	Orgs       [][]*simnet.Endpoint

	// LeaderIndex reports the current consensus leader.
	LeaderIndex func() int
	// SetLeaderEvil makes the current leader malicious (on) or clears the
	// malice flag on every node (off) — sequencer garbage mode for BIDL,
	// ProposeGarbage for the baselines.
	SetLeaderEvil func(on bool)
	// StartBroadcaster attaches and arms the §6.2 broadcaster; nil when
	// the framework has no sequencer multicast to race (the baselines —
	// Validate rejects such specs before they get here).
	StartBroadcaster func(f Fault)
}

// Injector compiles a validated fault schedule onto a simulation: fault
// events become Sim.At timers, and partition/storm faults install one
// composed DropFilter. Faulted runs always execute on the serial engine
// (the scenario layer pins SimWorkers to zero, and a non-nil DropFilter
// zeroes the PDES lookahead bound anyway), so the injector's mutable state
// needs no locking and the storm's rng draws stay deterministic.
type Injector struct {
	env    Env
	faults []Fault
	rng    *rand.Rand

	isolated    map[simnet.NodeID]bool
	stormActive bool
	stormRate   float64
	prevFilter  func(from, to simnet.NodeID, msg simnet.Message) bool
}

// NewInjector builds an injector for the schedule. The caller is expected
// to have run ValidateSchedule; seed isolates the storm's coin flips from
// the cluster's randomness.
func NewInjector(env Env, faults []Fault, seed int64) *Injector {
	return &Injector{
		env:      env,
		faults:   faults,
		rng:      rand.New(rand.NewSource(seed*1_000_003 + 17)),
		isolated: make(map[simnet.NodeID]bool),
	}
}

// Install schedules every fault and, when the schedule needs one, hooks the
// network's DropFilter (composing with any filter already installed).
// The adversary kinds apply immediately rather than through a timer (leader
// at time zero, broadcaster endpoint registration): that arming order is
// what the Table 4 and Fig 7 goldens pin.
func (in *Injector) Install() {
	needFilter := false
	for _, f := range in.faults {
		switch f.Kind {
		case KindPartition, KindDropStorm:
			needFilter = true
		}
	}
	if needFilter {
		in.prevFilter = in.env.Net.DropFilter
		in.env.Net.DropFilter = in.filter
	}
	for _, f := range in.faults {
		in.schedule(f)
	}
}

func (in *Injector) schedule(f Fault) {
	switch f.Kind {
	case KindCrash:
		in.crashCycle(in.orgEndpoint(f.Org, f.Node), f.At, f.Duration)
	case KindDCOutage:
		eps := in.dcEndpoints(f.DC)
		in.env.Sim.At(f.At, func() {
			for _, ep := range eps {
				ep.SetDown(true)
			}
		})
		in.env.Sim.At(f.At+f.Duration, func() {
			for _, ep := range eps {
				ep.Restart()
			}
		})
	case KindPartition:
		eps := in.env.Orgs[f.Org]
		in.env.Sim.At(f.At, func() {
			for _, ep := range eps {
				in.isolated[ep.ID()] = true
			}
		})
		in.env.Sim.At(f.At+f.Duration, func() {
			for _, ep := range eps {
				delete(in.isolated, ep.ID())
			}
		})
	case KindDropStorm:
		rate := f.Rate
		in.env.Sim.At(f.At, func() {
			in.stormActive = true
			in.stormRate = rate
		})
		in.env.Sim.At(f.At+f.Duration, func() { in.stormActive = false })
	case KindChurn:
		for i := 0; i < f.Count; i++ {
			org := i % len(in.env.Orgs)
			node := (i / len(in.env.Orgs)) % len(in.env.Orgs[org])
			in.crashCycle(in.orgEndpoint(org, node), f.At+time.Duration(i)*f.Period, f.Period/2)
		}
	case KindSeqFailover:
		in.env.Sim.At(f.At, func() { in.env.SetLeaderEvil(true) })
		in.env.Sim.At(f.At+f.Duration, func() { in.env.SetLeaderEvil(false) })
	case KindLeader:
		if f.At == 0 {
			// Armed before the first event, not by a time-zero timer:
			// the order the Table 4 goldens pin.
			in.env.SetLeaderEvil(true)
		} else {
			in.env.Sim.At(f.At, func() { in.env.SetLeaderEvil(true) })
		}
		if f.Duration > 0 {
			in.env.Sim.At(f.At+f.Duration, func() { in.env.SetLeaderEvil(false) })
		}
	case KindBroadcaster, KindSmart:
		// Attached immediately: the broadcaster registers its own
		// endpoint, and membership must be complete before any load is
		// scheduled (it arms itself at f.At).
		in.env.StartBroadcaster(f)
	}
}

// crashCycle takes one endpoint down at `at` and, when the window is
// bounded, restarts it after `dur`.
func (in *Injector) crashCycle(ep *simnet.Endpoint, at, dur time.Duration) {
	in.env.Sim.At(at, func() { ep.SetDown(true) })
	if dur > 0 {
		in.env.Sim.At(at+dur, func() { ep.Restart() })
	}
}

// orgEndpoint resolves a (org, node) target, clamping out-of-range indices
// to the last entry so a schedule written for a bigger cluster still runs.
func (in *Injector) orgEndpoint(org, node int) *simnet.Endpoint {
	if org >= len(in.env.Orgs) {
		org = len(in.env.Orgs) - 1
	}
	nodes := in.env.Orgs[org]
	if node >= len(nodes) {
		node = len(nodes) - 1
	}
	return nodes[node]
}

// dcEndpoints collects every roster endpoint in datacenter dc.
func (in *Injector) dcEndpoints(dc int) []*simnet.Endpoint {
	var out []*simnet.Endpoint
	add := func(ep *simnet.Endpoint) {
		if ep != nil && ep.DC() == dc {
			out = append(out, ep)
		}
	}
	for _, ep := range in.env.Consensus {
		add(ep)
	}
	for _, ep := range in.env.Sequencers {
		add(ep)
	}
	for _, org := range in.env.Orgs {
		for _, ep := range org {
			add(ep)
		}
	}
	return out
}

// filter is the composed DropFilter: partition isolation drops messages
// crossing the isolation boundary; an active storm drops the current
// leader's consensus egress with the configured probability, chasing
// leadership as views change.
func (in *Injector) filter(from, to simnet.NodeID, msg simnet.Message) bool {
	if in.prevFilter != nil && in.prevFilter(from, to, msg) {
		return true
	}
	if len(in.isolated) > 0 && in.isolated[from] != in.isolated[to] {
		return true
	}
	if in.stormActive && in.leaderEgress(from) && in.rng.Float64() < in.stormRate {
		return true
	}
	return false
}

// leaderEgress reports whether id is the current leader's consensus
// endpoint. The co-located sequencer is deliberately spared: storming the
// transaction multicast would starve the run of load instead of testing
// the protocol — the goal is lost proposals and block dissemination, which
// force view changes while transactions keep arriving.
func (in *Injector) leaderEgress(id simnet.NodeID) bool {
	li := in.env.LeaderIndex()
	return li >= 0 && li < len(in.env.Consensus) && in.env.Consensus[li].ID() == id
}
