package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// spanLog holds a traced run's phase and replay spans; a nil log records
// nothing, which is how untraced repetitions run.
type spanLog struct {
	spans []span
}

func (l *spanLog) open(layer string, parent int32) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{id: id, parent: parent, layer: layer, start: nowNS()})
	return id
}

func (l *spanLog) close(id int32) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].end = nowNS()
}

// adopt appends a recorder's call spans, numbering them after the log's.
func (l *spanLog) adopt(rs ...*recorder) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		for _, sp := range r.spans {
			sp.id = int32(len(l.spans))
			l.spans = append(l.spans, sp)
		}
		r.spans = nil
	}
}

// timed runs fn inside a span of the given layer and returns its wall time
// in seconds.
func (l *spanLog) timed(layer string, parent int32, fn func() error) (float64, error) {
	id := l.open(layer, parent)
	t0 := nowNS()
	err := fn()
	el := float64(nowNS()-t0) / 1e9
	l.close(id)
	return el, err
}

// recsOf returns the recorders of one protocol layer.
func recsOf(recs []*recorder, layer string) []*recorder {
	var out []*recorder
	for _, r := range recs {
		if r.layer == layer {
			out = append(out, r)
		}
	}
	return out
}

// busiest returns the recorder that saw the most requests: the sharded
// workload's protocol replays use its cell's trace and stream.
func busiest(recs []*recorder) *recorder {
	var best *recorder
	for _, r := range recs {
		if r != nil && (best == nil || len(r.stream) > len(best.stream)) {
			best = r
		}
	}
	return best
}

// ledger computes every per-layer metric from an untraced repetition u and
// a traced repetition t of the same seed. Spans of the replays it runs are
// added to sl.
func ledger(w *workload, seed int64, u, t *rep, sl *spanLog) (map[string]float64, error) {
	m := make(map[string]float64, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = 0
	}
	sl.adopt(t.recs...)
	replay := sl.open("bench.replay", -1)
	defer sl.close(replay)

	// trace
	m["trace.generate_s"] = t.genS
	var err error
	m["trace.partition_s"], err = sl.timed("trace.partition", replay, func() error {
		_, err := trace.PartitionByCategory(t.tr)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	m["trace.bytes_per_user"] = float64(t.tr.Bytes()) / float64(len(t.tr.Users))

	// gc, from the untraced repetition's run phase
	m["gc.alloc_bytes_per_req"] = ratio(float64(u.run.allocBytes), float64(u.requests))
	m["gc.cpu_frac"] = ratio(u.run.gcCPU, u.run.cpuS)

	// The run's protocol calls, recorded by the wrappers.
	p := w.sim
	runNS := t.runWallS * 1e9
	var deliv []delivery
	for _, r := range t.recs {
		deliv = append(deliv, r.deliv...)
	}
	core := recsOf(t.recs, "core")
	// The busiest SocialTube instance's request stream drives the replays;
	// on the sharded workload that is one cell, replayed on its own trace.
	src := busiest(core)
	if src == nil || len(src.stream) == 0 {
		return nil, fmt.Errorf("no request stream recorded")
	}
	stream := src.stream
	cs := statsOf(core)
	m["core.request_us"] = cs.meanUS(kRequest)
	m["core.finish_us"] = cs.meanUS(kFinish)
	m["core.probe_us"] = cs.meanUS(kProbe)
	m["core.share"] = ratio(float64(cs.totalNS()), runNS)
	var baseNS int64
	for _, l := range []string{"baseline.nettube", "baseline.pavod"} {
		bs := statsOf(recsOf(t.recs, l))
		m[l+".request_us"] = bs.meanUS(kRequest)
		m[l+".finish_us"] = bs.meanUS(kFinish)
		baseNS += bs.totalNS()
	}
	m["baseline.share"] = ratio(float64(baseNS), runNS)
	m["core.remote_lookup_us"] = cs.meanUS(kRemote)
	simResultMetrics(m, t, p.Workers)
	runLayer := "exp.run"
	if p.Workers > 0 {
		runLayer = "exp.run_sharded"
	}
	m["exp.self_share"] = selfShare(sl.spans, runLayer)

	// Protocol calls the run does not make, replayed over its stream: the
	// baselines the sharded workload leaves out, and the remote lookups
	// only the sharded engine issues.
	ran := map[string]bool{}
	for _, name := range p.Protocols {
		ran[name] = true
	}
	for _, name := range []string{"SocialTube", "NetTube", "PA-VoD"} {
		remote := name == "SocialTube" && cs.n[kRemote] == 0
		if ran[name] && !remote {
			continue
		}
		rec, err := replayProtocol(name, src.cellTr, stream, seed, p.WatchScale, remote, replay)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		rs := statsOf([]*recorder{rec})
		if remote {
			m["core.remote_lookup_us"] = rs.meanUS(kRemote)
		}
		if !ran[name] {
			m[layerOf(name)+".request_us"] = rs.meanUS(kRequest)
			m[layerOf(name)+".finish_us"] = rs.meanUS(kFinish)
		}
		sl.adopt(rec)
	}

	// simnet: the run's recorded deliveries on a fresh network.
	var sc simnetCost
	if _, err := sl.timed("simnet.replay", replay, func() (err error) {
		sc, err = simnetReplay(deliv, src.cellTr, p.netConfig(seed), p.expConfig(seed))
		return err
	}); err != nil {
		return nil, err
	}
	m["simnet.latency_ns"] = sc.latencyNS
	m["simnet.latency_allocs"] = sc.latAllocs
	m["simnet.transfer_ns"] = sc.transferNS
	m["simnet.calls_per_req"] = ratio(float64(sc.calls), float64(t.requests))
	m["simnet.share_est"] = ratio(float64(sc.seqNS), runNS)

	// load: the workload's own arrival profile, or the steady stream that
	// offers the first closed-loop run's mean rate.
	prof := t.profile
	if prof == nil {
		prof = steadyProfile(seed, t.results[0].Requests, t.results[0].SimulatedTime)
	}
	if _, err := sl.timed("load.replay", replay, func() (err error) {
		m["load.next_ns"], err = loadNextNS(prof)
		return err
	}); err != nil {
		return nil, err
	}

	// emu: codec, Conditions, one tracker RPC, and the idle control plane.
	if _, err := sl.timed("emu.codec", replay, func() (err error) {
		m["emu.codec_ns_per_frame"], m["emu.codec_allocs_per_frame"], m["emu.codec_bytes_per_frame"], err = codecCost(t.tr)
		return err
	}); err != nil {
		return nil, err
	}
	sl.timed("emu.conditions", replay, func() error {
		m["emu.conditions_latency_ns"] = conditionsLatencyNS(emuConditions(seed), stream)
		return nil
	})
	if _, err := sl.timed("emu.rpc", replay, func() (err error) {
		m["emu.rpc_us"], err = rpcMedianUS(t.tr, emuTrackerConfig(seed))
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := sl.timed("ctrl.idle", replay, func() (err error) {
		m["ctrl.idle_cpu_cores"], err = ctrlIdleCores(t.tr, seed)
		return err
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// simResultMetrics reads the exact per-layer counts from a simulator
// repetition's Results, summed over its runs.
func simResultMetrics(m map[string]float64, t *rep, workers int) {
	var fired, admitted, shed, mail, epochs uint64
	var lookups, hits int64
	var busy time.Duration
	var imbalance float64
	sharded := 0
	var stObs obs.Counters
	var stRequests int64
	for _, res := range t.results {
		if res.Protocol == "SocialTube" {
			stObs.Merge(res.Obs)
			stRequests += res.Requests
		}
		fired += res.Engine.EventsFired
		admitted += res.Obs.ServerAdmitted
		shed += res.Obs.ServerShed
		if res.Load != nil && float64(res.Load.QueuePeak) > m["simnet.queue_peak"] {
			m["simnet.queue_peak"] = float64(res.Load.QueuePeak)
		}
		sh := res.Sharded
		if sh == nil {
			continue
		}
		sharded++
		epochs += sh.Epochs
		lookups += sh.RemoteLookups
		hits += sh.RemoteHits
		var cellBusy, busyMax time.Duration
		cells := 0
		for _, s := range sh.ShardLoad {
			mail += s.MailSent
			if s.EventsFired == 0 {
				continue
			}
			cells++
			cellBusy += s.Busy
			busyMax = max(busyMax, s.Busy)
		}
		busy += cellBusy
		imbalance += ratio(float64(busyMax)*float64(cells), float64(cellBusy))
	}
	coreCounterMetrics(m, stObs, stRequests)
	m["sim.events_per_req"] = ratio(float64(fired), float64(t.requests))
	m["simnet.shed_frac"] = ratio(float64(shed), float64(admitted+shed))
	if sharded > 0 {
		m["sim.epochs"] = float64(epochs)
		m["exp.remote_lookups_per_req"] = ratio(float64(lookups), float64(t.requests))
		m["exp.remote_hit_ratio"] = ratio(float64(hits), float64(lookups))
		m["sim.mail_per_req"] = ratio(float64(mail), float64(t.requests))
		m["sim.busy_max_over_mean"] = imbalance / float64(sharded)
		m["sim.parallel_efficiency"] = ratio(busy.Seconds(), float64(workers)*t.runWallS)
	}
}

// writeSpans writes the traced run's spans, with their self times, as TSV
// under dir, headed by the run manifest. Each workload keeps only its
// latest traced run's file.
func writeSpans(dir, workload string, manifestJSON []byte, spans []span, self []int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# manifest %s\n", manifestJSON)
	fmt.Fprintln(bw, "id\tparent\tworkload\tlayer\tstart_ns\tend_ns\tself_ns\treq")
	for i, sp := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\n", sp.id, sp.parent, workload, sp.layer, sp.start, sp.end, self[i], sp.req)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfByLayer sums self time per layer, largest first, for the summary.
func selfByLayer(spans []span, self []int64) []string {
	tot := map[string]int64{}
	cnt := map[string]int64{}
	for i, sp := range spans {
		tot[sp.layer] += self[i]
		cnt[sp.layer]++
	}
	layers := make([]string, 0, len(tot))
	for l := range tot {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return tot[layers[a]] > tot[layers[b]] })
	out := make([]string, 0, len(layers))
	for _, l := range layers {
		out = append(out, fmt.Sprintf("%-34s %10d spans %12.3f ms self", l, cnt[l], float64(tot[l])/1e6))
	}
	return out
}
