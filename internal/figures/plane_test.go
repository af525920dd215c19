package figures

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
)

func takeoverScale() EmuScale {
	return EmuScale{
		Peers:            24,
		Sessions:         2,
		VideosPerSession: 6,
		WatchTime:        5 * time.Millisecond,
		Seed:             1,
	}
}

// TestTakeoverRecovers pins the takeover figure's headline on a small
// scale: with a whole shard (every replica) dead for two units, the
// survivors declare the shard, peers reroute onto them, and the run
// loses zero requests — same for the 2-way partition variant.
func TestTakeoverRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	s := takeoverScale()
	tr, err := s.EmuTrace()
	if err != nil {
		t.Fatal(err)
	}
	f, err := FigTakeover(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 3 {
		t.Fatalf("want baseline + shard-dead + partition points, got %d", len(f.Points))
	}
	for _, p := range f.Points {
		if p.Failed != 0 {
			t.Errorf("%s: lost %d requests; want 0", p.Variant, p.Failed)
		}
		if p.Requests == 0 {
			t.Errorf("%s: served nothing", p.Variant)
		}
	}
	dead := f.Points[1]
	if dead.Variant != "shard1-dead" {
		t.Fatalf("point order changed: %q", dead.Variant)
	}
	if dead.Env.DeclaredDead == 0 || dead.Env.TakeoverMs <= 0 {
		t.Errorf("shard death never declared: declared=%d takeoverMs=%v",
			dead.Env.DeclaredDead, dead.Env.TakeoverMs)
	}
	if dead.Env.Reroutes == 0 {
		t.Error("no request rerouted to a takeover owner")
	}
}

// TestTakeoverDeterministic runs the figure twice under one seed and
// requires the canonical points (environmental block dropped) to be
// byte-identical JSON — the determinism contract of the bench file.
func TestTakeoverDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	s := takeoverScale()
	tr, err := s.EmuTrace()
	if err != nil {
		t.Fatal(err)
	}
	points := func() string {
		t.Helper()
		f, err := FigTakeover(s, tr)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, p := range f.Points {
			b.WriteString(canonical(t, p) + "\n")
		}
		return b.String()
	}
	a, b := points(), points()
	if a != b {
		t.Fatalf("same-seed takeover points differ:\n%s\n%s", a, b)
	}
}

// TestPlanePointGolden pins the canonical bench line of one variant of
// each kind, built from a hand-made run result (no TCP): every variant
// keeps its figure's field set and order, and the fault fields of the
// other kinds stay omitted.
func TestPlanePointGolden(t *testing.T) {
	s := takeoverScale()
	outage, takeover := shardedOutageVariants(s), takeoverVariants(s)
	names := func(vs []planeVariant) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.name)
		}
		return out
	}
	if got, want := names(outage), []string{"baseline", "shard1-replica1-down", "shard1-replica2-down",
		"shard2-replica1-down", "shard2-replica2-down"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("outage-shard variants %v, want %v", got, want)
	}
	if got, want := names(takeover), []string{"baseline", "shard1-dead", "partition-2way"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("takeover variants %v, want %v", got, want)
	}

	cp := emu.DefaultControlPlaneConfig()
	clean := &emu.ClusterResult{Protocol: "SocialTube", CacheHits: 10, PeerHits: 5, ServerHits: 33, TakeoverMs: 18.5}
	lossy := *clean
	lossy.FailedRequests = 2
	for _, tc := range []struct {
		v    planeVariant
		res  *emu.ClusterResult
		want string
	}{
		{outage[0], clean,
			`{"variant":"baseline","protocol":"SocialTube","seed":1,"shards":2,"replicas":2,"requests":48,"failed":0,"hitRate":1}`},
		{outage[3], &lossy,
			`{"variant":"shard2-replica1-down","protocol":"SocialTube","seed":1,"shards":2,"replicas":2,"downShard":2,"downReplica":1,"requests":48,"failed":2,"hitRate":0.9583333333333334}`},
		{takeover[1], clean,
			`{"variant":"shard1-dead","protocol":"SocialTube","seed":1,"shards":2,"replicas":2,"deadShard":1,"requests":48,"failed":0,"hitRate":1}`},
		{takeover[2], clean,
			`{"variant":"partition-2way","protocol":"SocialTube","seed":1,"shards":2,"replicas":2,"groups":2,"requests":48,"failed":0,"hitRate":1}`},
	} {
		p := planePoint(s, cp, tc.v, tc.res)
		if got := canonical(t, p); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.v.name, got, tc.want)
		}
		if p.Env.TakeoverMs != tc.res.TakeoverMs || p.Env.CacheHits != tc.res.CacheHits {
			t.Errorf("%s: env lost the run's measurements: %+v", tc.v.name, p.Env)
		}
	}
}
