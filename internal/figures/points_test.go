package figures

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// canonical marshals a bench point and drops its top-level "env" block,
// keeping every other key in order — the form determinism comparisons
// and goldens use (the same line the CI smoke's sed strip leaves).
func canonical(t testing.TB, point any) string {
	t.Helper()
	raw, err := json.Marshal(point)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("point %s is not a JSON object", raw)
	}
	var b strings.Builder
	b.WriteByte('{')
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			t.Fatal(err)
		}
		if key == "env" {
			continue
		}
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(key)
		b.Write(k)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteByte('}')
	return b.String()
}

// appendRoundTrip appends points, then their first point again, to one
// file and requires one JSON line per point, in order, each decoding
// back into a P that re-encodes to the same bytes, env block included.
func appendRoundTrip[P any](points []P) func(*testing.T) {
	return func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "BENCH.json")
		if err := AppendPoints(path, points); err != nil {
			t.Fatal(err)
		}
		if err := AppendPoints(path, points[:1]); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := append(points[:len(points):len(points)], points[0])
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(lines) != len(want) {
			t.Fatalf("%d lines after two appends, want %d", len(lines), len(want))
		}
		for i, line := range lines {
			wantLine, _ := json.Marshal(want[i])
			var p P
			if err := json.Unmarshal([]byte(line), &p); err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			back, _ := json.Marshal(p)
			if line != string(wantLine) || string(back) != line {
				t.Fatalf("line %d did not round-trip:\n%s\nwant\n%s", i, line, wantLine)
			}
		}
	}
}

// TestAppendPoints pins the BENCH_*.json convention for every point type
// the figures emit.
func TestAppendPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"ScalePoint", appendRoundTrip([]ScalePoint{
			{Users: 100, Protocol: "SocialTube", Seed: 1, Requests: 300, Cells: 4, RemoteLookups: 9,
				Env: ScaleEnv{WallMs: 12.5, Workers: 2, ShardLoad: []ShardLoadEnv{{Shard: 1, EventsFired: 7}}}},
			{Users: 100, Protocol: "NetTube", Seed: 1, Requests: 300},
		})},
		{"LoadPoint", appendRoundTrip([]LoadPoint{
			{Protocol: "SocialTube", Seed: 1, Mode: "steady", RPS: 6, Offered: 40, FlashOffered: 5, P99Ms: 81.25,
				Env: LoadEnv{WallMs: 3.5, Workers: 4}},
			{Protocol: "PA-VoD", Seed: 1, Mode: "steady", RPS: 6, Offered: 40, ShedRate: 0.25},
		})},
		{"FailoverPoint", appendRoundTrip([]FailoverPoint{
			{Protocol: "SocialTube", Seed: 1, Requests: 16, NoRestartFrac: 1, Env: FailoverEnv{MeanHandoffWaitMs: 2.5}},
			{Protocol: "NetTube", Seed: 1, Requests: 16, NoRestartFrac: 0.75},
		})},
		{"PlanePoint", appendRoundTrip([]PlanePoint{
			{Variant: "baseline", Protocol: "SocialTube", Seed: 1, Shards: 2, Replicas: 2, Requests: 16, HitRate: 1},
			{Variant: "shard1-dead", Protocol: "SocialTube", Seed: 1, Shards: 2, Replicas: 2, DeadShard: 1,
				Requests: 16, HitRate: 1, Env: PlaneEnv{TakeoverMs: 12.5, Reroutes: 3}},
		})},
		{"TimelinePoint", appendRoundTrip([]TimelinePoint{
			{Protocol: "SocialTube", Seed: 1, WindowMs: 60000, StartMs: 0, Requests: 12, HitRate: 0.5, P50Ms: 40},
			{Protocol: "SocialTube", Seed: 1, WindowMs: 60000, StartMs: 60000, Requests: 9, BreakerOpens: 1},
		})},
	} {
		t.Run(tc.name, tc.test)
	}
}
