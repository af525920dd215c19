package figures

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/metrics"
	"github.com/socialtube/socialtube/internal/trace"
)

// PlaneEnv carries a control-plane fault point's environmental
// measurements: wall time, time-to-takeover and every counter decided by
// real-socket races (which replica answers first, when a breaker trips,
// when a survivor's gossip round declares a shard dead). They ride along
// in the bench file but stay out of determinism comparisons — only the
// request total and the failure count are schedule-determined.
type PlaneEnv struct {
	WallMs float64 `json:"wallMs"`
	// TakeoverMs is the delay between a whole-shard outage beginning and
	// the first surviving replica declaring it dead (0 on variants
	// without a whole-shard outage).
	TakeoverMs float64 `json:"takeoverMs"`
	PeerHits   int64   `json:"peerHits"`
	ServerHits int64   `json:"serverHits"`
	CacheHits  int64   `json:"cacheHits"`
	// Failure-detection and re-registration traffic.
	DeclaredDead uint64 `json:"declaredDead"`
	Revived      uint64 `json:"revived"`
	Reroutes     uint64 `json:"reroutes"`
	Rejoins      uint64 `json:"rejoins"`
	HintsQueued  uint64 `json:"hintsQueued"`
	HintsReplay  uint64 `json:"hintsReplayed"`
	BreakerOpens uint64 `json:"breakerOpens"`
	BreakerSkips uint64 `json:"breakerSkips"`
	RPCFailures  uint64 `json:"rpcFailures"`
}

// PlanePoint is one cell of a control-plane fault figure: SocialTube on a
// sharded, replicated control plane under one fault plan. HitRate is the
// fraction of requests served at all (1 - failed/requests); the
// figures' headline is that it stays ~flat whether one replica goes
// dark, a whole shard dies or the cluster splits in two.
type PlanePoint struct {
	// "baseline", "shardS-replicaR-down", "shardS-dead" or "partition-Gway".
	Variant  string `json:"variant"`
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	// The injected fault, read off the plan (1-based; 0 when absent): the
	// darkened replica, the killed shard, the partition's side count.
	DownShard   int `json:"downShard,omitempty"`
	DownReplica int `json:"downReplica,omitempty"`
	DeadShard   int `json:"deadShard,omitempty"`
	Groups      int `json:"groups,omitempty"`
	// Deterministic outcomes: the run is closed-loop, so the request
	// total is fixed by the workload and the failure count by the fault
	// schedule plus failover and takeover.
	Requests int64   `json:"requests"`
	Failed   int64   `json:"failed"`
	HitRate  float64 `json:"hitRate"`

	Env PlaneEnv `json:"env"`
}

// FigPlaneResult bundles a control-plane fault figure's table with the
// raw points for BENCH_failover.json.
type FigPlaneResult struct {
	Table  *metrics.Table
	Points []PlanePoint
}

// String renders the table.
func (f *FigPlaneResult) String() string { return f.Table.String() }

// planeVariant is one run of a control-plane fault figure: the point's
// name, its fault plan (nil for the no-fault baseline) and a tweak of the
// default plane config (nil keeps the defaults).
type planeVariant struct {
	name  string
	plan  *faults.Plan
	tweak func(*emu.ControlPlaneConfig)
}

// runPlane runs SocialTube once per variant on the default plane, ring
// seeded by the scale's seed. The plans inject no churn, so request
// totals are deterministic and hit rates compare directly against the
// first (baseline) variant.
func runPlane(s EmuScale, tr *trace.Trace, variants []planeVariant) ([]PlanePoint, error) {
	points := make([]PlanePoint, 0, len(variants))
	for _, v := range variants {
		cp := emu.DefaultControlPlaneConfig()
		cp.RingSeed = s.Seed
		if v.tweak != nil {
			v.tweak(&cp)
		}
		res, err := s.runMode(tr, emu.ModeSocialTube, func(c *emu.ClusterConfig) {
			c.ControlPlane = &cp
			c.Faults = v.plan
			// Same tight retry policy as FigOutage: a request's budget is
			// on the order of the fault window, so survival comes from
			// failover and takeover, not patience.
			c.RPCTimeout = 250 * time.Millisecond
			c.MaxRetries = 1
			c.RetryBackoff = 25 * time.Millisecond
		})
		if err != nil {
			return nil, err
		}
		points = append(points, planePoint(s, cp, v, res))
	}
	return points, nil
}

// planePoint reduces one run to its figure cell.
func planePoint(s EmuScale, cp emu.ControlPlaneConfig, v planeVariant, res *emu.ClusterResult) PlanePoint {
	requests := res.CacheHits + res.PeerHits + res.ServerHits
	hitRate := 1.0
	if requests > 0 {
		hitRate = 1 - float64(res.FailedRequests)/float64(requests)
	}
	p := PlanePoint{
		Variant:  v.name,
		Protocol: res.Protocol,
		Seed:     s.Seed,
		Shards:   cp.Shards,
		Replicas: cp.Replicas,
		Requests: requests,
		Failed:   res.FailedRequests,
		HitRate:  hitRate,
		Env: PlaneEnv{
			WallMs:       float64(res.Elapsed.Nanoseconds()) / 1e6,
			TakeoverMs:   res.TakeoverMs,
			PeerHits:     res.PeerHits,
			ServerHits:   res.ServerHits,
			CacheHits:    res.CacheHits,
			DeclaredDead: res.Obs.ShardsDeclaredDead,
			Revived:      res.Obs.ShardsRevived,
			Reroutes:     res.Obs.TakeoverReroutes,
			Rejoins:      res.Obs.TakeoverRejoins,
			HintsQueued:  res.Obs.HintsQueued,
			HintsReplay:  res.Obs.HintsReplayed,
			BreakerOpens: res.Obs.BreakerOpens,
			BreakerSkips: res.Obs.BreakerSkips,
			RPCFailures:  res.Obs.RPCFailures,
		},
	}
	if v.plan != nil {
		for _, o := range v.plan.Outages {
			if o.Replica > 0 {
				p.DownShard, p.DownReplica = o.Shard, o.Replica
			} else {
				p.DeadShard = o.Shard
			}
		}
		for _, part := range v.plan.Partitions {
			p.Groups = part.Groups
		}
	}
	return p
}

// shardedOutageVariants is FigShardedOutage's run list: the baseline,
// then each replica of the default plane dark for two units in turn.
func shardedOutageVariants(s EmuScale) []planeVariant {
	cp, unit := emu.DefaultControlPlaneConfig(), s.outageUnit()
	vs := []planeVariant{{name: "baseline"}}
	for shard := 1; shard <= cp.Shards; shard++ {
		for replica := 1; replica <= cp.Replicas; replica++ {
			vs = append(vs, planeVariant{
				name: fmt.Sprintf("shard%d-replica%d-down", shard, replica),
				plan: faults.ReplicaOutagePlan(s.Seed, unit, shard, replica),
			})
		}
	}
	return vs
}

// FigShardedOutage measures SocialTube's service continuity on a sharded,
// replicated control plane (default 2 shards x 2 replicas) when a single
// tracker replica goes dark mid-run: one no-fault baseline, then one run
// per replica with exactly that replica down for two workload units.
// With peers failing over to the shard's surviving replica, every
// down-one-replica hit rate should sit within a few percent of the
// baseline — the headline of the control-plane redesign, versus the
// whole-plane outage of FigOutage where the dark window visibly costs
// requests.
func FigShardedOutage(s EmuScale, tr *trace.Trace) (*FigPlaneResult, error) {
	points, err := runPlane(s, tr, shardedOutageVariants(s))
	if err != nil {
		return nil, err
	}
	cp := emu.DefaultControlPlaneConfig()
	t := metrics.NewTable(
		fmt.Sprintf("SocialTube hit rate, %dx%d control plane, one replica dark for 2x%s (TCP emulation)",
			cp.Shards, cp.Replicas, s.outageUnit()),
		"variant", "requests", "failed", "hitRate", "deltaVsBaseline", "brkOpens")
	for _, p := range points {
		t.AddRow(p.Variant, p.Requests, p.Failed, p.HitRate, p.HitRate-points[0].HitRate, p.Env.BreakerOpens)
	}
	return &FigPlaneResult{Table: t, Points: points}, nil
}

// takeoverVariants is FigTakeover's run list: the baseline, shard 1
// (both replicas) dead for two units, and a 2-way partition for two
// units — all on a plane whose suspicion timing is scaled to the
// workload unit: gossip every unit/16 with sync exchanges bounded by
// unit/8, so three suspicion rounds declare a dead shard well inside its
// two-unit outage even when every round stalls on a dark partner.
func takeoverVariants(s EmuScale) []planeVariant {
	unit := s.outageUnit()
	gossip := func(cp *emu.ControlPlaneConfig) {
		cp.GossipInterval = unit / 16
		cp.GossipTimeout = unit / 8
		cp.SuspicionRounds = 3
	}
	return []planeVariant{
		{name: "baseline", tweak: gossip},
		{name: "shard1-dead", plan: faults.ShardOutagePlan(s.Seed, unit, 1), tweak: gossip},
		{name: "partition-2way", plan: faults.PartitionPlan(s.Seed, unit, 2), tweak: gossip},
	}
}

// FigTakeover measures the partition-tolerant control plane end to end
// (default 2 shards x 2 replicas). With a whole shard dead, recovery
// must come from gossip liveness declaring the shard dead and the
// survivors adopting its channels; under the partition both sides keep
// serving, and hinted handoff plus the LWW merge re-converge the tables
// on heal.
func FigTakeover(s EmuScale, tr *trace.Trace) (*FigPlaneResult, error) {
	points, err := runPlane(s, tr, takeoverVariants(s))
	if err != nil {
		return nil, err
	}
	cp := emu.DefaultControlPlaneConfig()
	t := metrics.NewTable(
		fmt.Sprintf("SocialTube hit rate, %dx%d control plane, whole-shard death and split brain for 2x%s (TCP emulation)",
			cp.Shards, cp.Replicas, s.outageUnit()),
		"variant", "requests", "failed", "hitRate", "deltaVsBaseline", "takeoverMs", "reroutes", "rejoins")
	for _, p := range points {
		t.AddRow(p.Variant, p.Requests, p.Failed, p.HitRate, p.HitRate-points[0].HitRate,
			p.Env.TakeoverMs, p.Env.Reroutes, p.Env.Rejoins)
	}
	return &FigPlaneResult{Table: t, Points: points}, nil
}
