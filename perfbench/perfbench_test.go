package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// smallClosed and smallFlash are seconds-long versions of the simulator
// workloads with the same shape.
func smallClosed() simParams {
	return simParams{Users: 150, Channels: 40, Categories: 6, Sessions: 2, VideosPerSession: 4,
		WatchScale: 1, Protocols: []string{"SocialTube", "NetTube", "PA-VoD"}, Realizations: 2}
}

func smallFlash(workers int) simParams {
	return simParams{Users: 600, Channels: 40, Categories: 6, Sessions: 1, VideosPerSession: 1,
		WatchScale: 0.05, Protocols: []string{"SocialTube"}, Realizations: 2, Workers: workers, RPS: 20,
		Duration: 120 * time.Second, FlashMultiplier: 100, QueueCap: 4, TimelineWindow: 10 * time.Second}
}

// jsonOf returns a function marshalling a run's Result, failing t on error.
func jsonOf(t *testing.T) func(*exp.Result, error) []byte {
	return func(res *exp.Result, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// TestWrappersAreTransparent proves the traced run measures the same
// program: wrapped runs marshal byte-identical Results to bare runs, for
// every protocol on the classic engine and for sharded cells at one worker
// and at every core.
func TestWrappersAreTransparent(t *testing.T) {
	const seed = 7
	resultJSON := jsonOf(t)
	p := smallClosed()
	tr, err := trace.Generate(p.traceConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range p.Protocols {
		bare, err := buildProtocol(name, tr, seed, p.WatchScale, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := resultJSON(exp.Run(p.expConfig(seed), tr, bare, p.netConfig(seed)))
		rec := newRecorder(layerOf(name), -1, 0, tr)
		wrapped, err := buildProtocol(name, tr, seed, p.WatchScale, rec)
		if err != nil {
			t.Fatal(err)
		}
		got := resultJSON(exp.Run(p.expConfig(seed), tr, wrapped, p.netConfig(seed)))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrapped Result differs from bare", name)
		}
		if rec.callN[kRequest] == 0 {
			t.Errorf("%s: wrapper timed no requests", name)
		}
	}

	for _, workers := range []int{1, runtime.NumCPU()} {
		f := smallFlash(workers)
		ftr, err := trace.Generate(f.traceConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		opts := exp.ShardedOptions{Workers: workers, TimelineWindow: f.TimelineWindow,
			Load: f.profile(seed, hottestChannel(ftr))}
		run := func(rec func(cell int, ct *trace.Trace) *recorder) []byte {
			factory := func(cell int, ct *trace.Trace) (vod.Protocol, error) {
				return buildProtocol("SocialTube", ct, seed, f.WatchScale, rec(cell, ct))
			}
			return resultJSON(exp.RunSharded(f.expConfig(seed), ftr, factory, f.netConfig(seed), opts))
		}
		want := run(func(int, *trace.Trace) *recorder { return nil })
		got := run(func(cell int, ct *trace.Trace) *recorder {
			return newRecorder("core", -1, uint64(cell+1)<<40, ct)
		})
		if !bytes.Equal(got, want) {
			t.Errorf("sharded workers=%d: wrapped Result differs from bare", workers)
		}
	}
}

// TestSeedDrivesDigest checks that every input derives from the seed
// argument: the same seed reproduces sim_digest, another seed changes it.
func TestSeedDrivesDigest(t *testing.T) {
	reps := map[string]func(seed int64) (*rep, error){
		"paper-closed":  func(seed int64) (*rep, error) { return simRep(smallClosed(), seed, false, nil) },
		"sharded-flash": func(seed int64) (*rep, error) { return simRep(smallFlash(2), seed, false, nil) },
	}
	for name, run := range reps {
		digest := func(seed int64) string {
			r, err := run(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for _, res := range r.results {
				if err := checkSim(res); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
			}
			return r.digest
		}
		a, b, c := digest(3), digest(3), digest(4)
		if a != b {
			t.Errorf("%s: seed 3 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same digest %s", name, a)
		}
	}
}

// TestGateRejectsBrokenResults checks that the correctness gate catches a
// hit count that no longer sums to the request total.
func TestGateRejectsBrokenResults(t *testing.T) {
	r, err := simRep(smallClosed(), 5, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := r.results[0]
	if err := checkSim(res); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	res.PeerHits.Inc()
	if err := checkSim(res); err == nil {
		t.Error("gate accepted cache+peer+server+shed != requests")
	}
}

// TestBenchmarkJSONMatchesLedger keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	known := workloads()
	for _, w := range b.Workloads {
		if known[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	if len(b.Workloads) != len(known) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(b.Workloads), len(known))
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the ledger prints %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, ledger prints %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	printed := map[string]string{}
	for name, u := range endToEndUnits {
		printed[name] = u
	}
	for _, m := range b.EndToEnd {
		if printed[m.Name] != m.Unit {
			t.Errorf("end_to_end %s %s is not printed with that unit", m.Name, m.Unit)
		}
		delete(printed, m.Name)
	}
	for name := range printed {
		t.Errorf("printed metric %s missing from BENCHMARK.json end_to_end", name)
	}
}

// TestUnstolenKeepsLeastStolen checks the steal rule: repetitions above
// maxSteal leave the medians, but never below minReps repetitions.
func TestUnstolenKeepsLeastStolen(t *testing.T) {
	steals := func(reps []*rep) []float64 {
		var s []float64
		for _, r := range reps {
			s = append(s, r.stealFrac)
		}
		return s
	}
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{0.01, 0.05, 0, 0.015}, []float64{0, 0.01, 0.015}},
		{[]float64{0.05, 0.01, 0.03}, []float64{0.01, 0.03}},
		{[]float64{0.09}, []float64{0.09}},
	} {
		var in []*rep
		for _, s := range c.in {
			in = append(in, &rep{stealFrac: s})
		}
		if got := steals(unstolen(in)); !slices.Equal(got, c.want) {
			t.Errorf("unstolen(%v) kept %v, want %v", c.in, got, c.want)
		}
	}
}
