package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// The per-layer ledger. Layers the runner calls through a protocol are
// timed by the wrappers during the traced repetition; layers the runner
// calls directly (simnet, load) are timed by replaying the repetition's own
// calls from here. Protocol calls a workload never makes, and the
// emulator's codec, Conditions, tracker RPC and control plane, are measured
// by replaying the workload's request stream and trace, so every time is a
// real measurement on every workload; such a layer's share of the run is 0.

// layerMetrics lists every per-layer metric in print order with its unit.
var layerMetrics = []struct{ name, unit string }{
	{"trace.generate_s", "s"}, {"trace.partition_s", "s"}, {"trace.bytes_per_user", "bytes"},
	{"core.request_us", "us"}, {"core.finish_us", "us"}, {"core.probe_us", "us"}, {"core.share", "fraction"},
	{"core.remote_lookup_us", "us"}, {"core.flood_msgs_per_req", "msgs/req"},
	{"core.lookup_hit_ratio", "fraction"}, {"core.prefetch_hit_ratio", "fraction"},
	{"baseline.nettube.request_us", "us"}, {"baseline.nettube.finish_us", "us"},
	{"baseline.pavod.request_us", "us"}, {"baseline.pavod.finish_us", "us"}, {"baseline.share", "fraction"},
	{"simnet.latency_ns", "ns"}, {"simnet.latency_allocs", "allocs"}, {"simnet.transfer_ns", "ns"},
	{"simnet.calls_per_req", "calls/req"}, {"simnet.share_est", "fraction"},
	{"simnet.shed_frac", "fraction"}, {"simnet.queue_peak", "count"},
	{"sim.events_per_req", "events/req"}, {"exp.self_share", "fraction"},
	{"sim.parallel_efficiency", "fraction"}, {"sim.busy_max_over_mean", "ratio"}, {"sim.epochs", "count"},
	{"sim.mail_per_req", "msgs/req"}, {"exp.remote_lookups_per_req", "lookups/req"}, {"exp.remote_hit_ratio", "fraction"},
	{"load.next_ns", "ns"},
	{"gc.alloc_bytes_per_req", "bytes/req"}, {"gc.cpu_frac", "fraction"},
	{"emu.codec_ns_per_frame", "ns"}, {"emu.codec_allocs_per_frame", "allocs"}, {"emu.codec_bytes_per_frame", "bytes"},
	{"emu.conditions_latency_ns", "ns"}, {"emu.rpc_us", "us"},
	{"ctrl.idle_cpu_cores", "cores"},
	{"bench.trace_overhead", "fraction"},
}

// replayCap bounds how many stream requests a protocol replay re-issues.
const replayCap = 20_000

// minReplay is how long each microbenchmark replay runs at least, so one
// timer read is amortised over many calls; passCap bounds one pass over
// its inputs, so slow calls do not overshoot minReplay by much.
const (
	minReplay = 250 * time.Millisecond
	passCap   = 4096
)

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// callStats sums a set of recorders' per-kind call time (ns) and counts.
type callStats struct {
	ns [nKinds]int64
	n  [nKinds]int64
}

func statsOf(recs []*recorder) callStats {
	var cs callStats
	for _, r := range recs {
		if r == nil {
			continue
		}
		for k := 0; k < nKinds; k++ {
			cs.ns[k] += r.callNS[k]
			cs.n[k] += r.callN[k]
		}
	}
	return cs
}

func (cs callStats) meanUS(kind int) float64 {
	return ratio(float64(cs.ns[kind]), float64(cs.n[kind])) / 1e3
}

func (cs callStats) totalNS() int64 {
	var t int64
	for _, v := range cs.ns {
		t += v
	}
	return t
}

// replayProtocol drives a fresh protocol instance through a request stream
// (Join on first sight, then Request and Finish per request) with tracing
// recorders, then runs one maintenance round per streamed node when the
// protocol has one, and optionally answers every streamed video as a
// remote lookup.
func replayProtocol(name string, tr *trace.Trace, stream []streamReq, seed int64, watchScale float64, remote bool, parent int32) (*recorder, error) {
	if len(stream) > replayCap {
		stream = stream[:replayCap]
	}
	rec := newRecorder("replay."+layerOf(name), parent, 0, tr)
	p, err := buildProtocol(name, tr, seed, watchScale, rec)
	if err != nil {
		return nil, err
	}
	timed, _ := p.(exp.Timed)
	joined := make(map[int32]bool)
	var now time.Duration
	for _, s := range stream {
		now += time.Second
		if timed != nil {
			timed.SetNow(now)
		}
		if !joined[s.node] {
			joined[s.node] = true
			p.Join(int(s.node))
		}
		p.Request(int(s.node), s.video)
		p.Finish(int(s.node), s.video)
	}
	if mt, ok := p.(exp.Maintainer); ok {
		for node := range joined {
			mt.Probe(int(node))
		}
	}
	if remote {
		rs, ok := p.(exp.RemoteSearcher)
		if !ok {
			return nil, fmt.Errorf("%s cannot answer remote lookups", name)
		}
		for _, s := range stream {
			rs.RemoteLookup(0, s.video)
		}
	}
	return rec, nil
}

// simnetReplay re-issues the network calls the engine's deliver step makes
// for each recorded delivery on a fresh simnet.Network: one Latency for
// the query path, then ServerTransfer for server-sourced requests or one
// or two Transfers for peer-sourced ones. It returns the whole sequence's
// time and the per-call cost of Latency and Transfer measured alone.
type simnetCost struct {
	seqNS      int64
	calls      int64
	latencyNS  float64
	latAllocs  float64
	transferNS float64
}

func simnetReplay(deliv []delivery, tr *trace.Trace, netCfg simnet.Config, expCfg exp.Config) (simnetCost, error) {
	var c simnetCost
	if len(deliv) == 0 {
		return c, fmt.Errorf("simnet replay: no deliveries recorded")
	}
	chunk := func(v int32) int64 {
		video := tr.Video(trace.VideoID(v))
		if video == nil {
			return 1 << 20
		}
		return int64(float64(vod.ChunkBytes(video.Length, expCfg.BitrateBps, expCfg.ChunksPerVideo)) * expCfg.WatchScale)
	}
	buffer := int64(float64(expCfg.BitrateBps) * expCfg.PlayoutBuffer.Seconds() / 8 * expCfg.WatchScale)
	// The full deliver sequence, timed as a whole.
	net1, err := simnet.New(netCfg)
	if err != nil {
		return c, err
	}
	t0 := nowNS()
	for _, d := range deliv {
		to := simnet.NodeID(d.node)
		from := simnet.ServerID
		if d.source == vod.SourcePeer && d.provider >= 0 {
			from = simnet.NodeID(d.provider)
		}
		lat := net1.Latency(from, to)
		start := d.at + lat
		cb := chunk(d.video)
		total := cb * int64(expCfg.ChunksPerVideo)
		fetch := total
		if d.prefix {
			fetch = total - cb
		}
		head := buffer
		if head > fetch {
			head = fetch
		}
		switch {
		case from == simnet.ServerID:
			if d.prefix {
				head = 0
			}
			net1.ServerTransfer(to, head, fetch, start)
			c.calls += 2
		case d.prefix:
			net1.Transfer(from, to, fetch, start)
			c.calls += 2
		default:
			net1.Transfer(from, to, head, start)
			c.calls += 2
			if rest := fetch - head; rest > 0 {
				net1.Transfer(from, to, rest, start)
				c.calls++
			}
		}
	}
	c.seqNS = nowNS() - t0
	// Latency and Transfer alone, over the same pairs, each repeated to at
	// least minReplay.
	if len(deliv) > passCap {
		deliv = deliv[:passCap]
	}
	net2, _ := simnet.New(netCfg)
	var n int64
	a0 := allocObjects()
	t0 = nowNS()
	for nowNS()-t0 < int64(minReplay) {
		for _, d := range deliv {
			net2.Latency(simnet.NodeID(d.provider), simnet.NodeID(d.node))
		}
		n += int64(len(deliv))
	}
	c.latencyNS = float64(nowNS()-t0) / float64(n)
	c.latAllocs = float64(allocObjects()-a0) / float64(n)
	// Transfer alone (it includes its own propagation Latency).
	net3, _ := simnet.New(netCfg)
	n = 0
	t0 = nowNS()
	for nowNS()-t0 < int64(minReplay) {
		for _, d := range deliv {
			net3.Transfer(simnet.NodeID(d.provider), simnet.NodeID(d.node), chunk(d.video), d.at)
		}
		n += int64(len(deliv))
	}
	c.transferNS = float64(nowNS()-t0) / float64(n)
	return c, nil
}

// loadNextNS times Gen.Next over the profile, redrawing the stream until
// minReplay has passed.
func loadNextNS(p *load.Profile) (float64, error) {
	var n int64
	t0 := nowNS()
	for nowNS()-t0 < int64(minReplay) {
		g, err := load.NewGen(p)
		if err != nil {
			return 0, err
		}
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
		n++ // the exhausting call
	}
	return float64(nowNS()-t0) / float64(n), nil
}

// steadyProfile is the open-loop arrival stream matching a closed-loop
// run's mean request rate over its duration: what the load layer would
// draw to offer the same traffic.
func steadyProfile(seed int64, requests int64, over time.Duration) *load.Profile {
	if over <= 0 {
		over = time.Second
	}
	rps := float64(requests) / over.Seconds()
	if rps <= 0 {
		rps = 1
	}
	return &load.Profile{Mode: load.Steady, Seed: derive(seed, seedLoad), RPS: rps, Duration: over}
}

// codecMix is a fixed mix of wire messages built from the trace: a query
// and its hit, a chunk request and its 8 KiB reply, a join response, a
// top-list reply and a server fetch, for 64 channel/video pairs.
func codecMix(tr *trace.Trace) []*emu.Message {
	payload := make([]byte, emu.DefaultTrackerConfig().ChunkPayload)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var msgs []*emu.Message
	for k := 0; k < 64; k++ {
		ch := &tr.Channels[k%len(tr.Channels)]
		if len(ch.Videos) == 0 {
			continue
		}
		v := int(ch.Videos[k%len(ch.Videos)])
		peer := func(i int) emu.PeerInfo {
			return emu.PeerInfo{ID: i, Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i), Channel: int(ch.ID)}
		}
		providers := []emu.PeerInfo{peer(k + 1), peer(k + 2), peer(k + 3)}
		var peers []emu.PeerInfo
		for i := 0; i < 12; i++ {
			peers = append(peers, peer(k+i))
		}
		var top []int
		for i := 0; i < 3 && i < len(ch.Videos); i++ {
			top = append(top, int(ch.Videos[i]))
		}
		msgs = append(msgs,
			&emu.Message{Type: emu.MsgQuery, From: k, Video: v, Channel: int(ch.ID), TTL: 2, Visited: []int{k, k + 1, k + 2}},
			&emu.Message{Type: emu.MsgOK, From: k + 1, Video: v, Provider: k + 1, ProviderAddr: providers[0].Addr,
				Providers: providers, Hops: 1, Messages: 3},
			&emu.Message{Type: emu.MsgChunkReq, From: k, Video: v},
			&emu.Message{Type: emu.MsgOK, From: k + 1, Video: v, Payload: payload},
			&emu.Message{Type: emu.MsgJoinOK, From: -1, Channel: int(ch.ID), Peers: peers},
			&emu.Message{Type: emu.MsgOK, From: -1, Videos: top},
			&emu.Message{Type: emu.MsgServe, From: k, Video: v, Chunk: 1},
		)
	}
	return msgs
}

// codecCost round-trips the mix through WriteMessage and ReadMessage.
func codecCost(tr *trace.Trace) (nsPerFrame, allocsPerFrame, bytesPerFrame float64, err error) {
	msgs := codecMix(tr)
	var buf bytes.Buffer
	var frames, nbytes int64
	a0 := allocObjects()
	t0 := nowNS()
	for nowNS()-t0 < int64(minReplay) {
		for _, m := range msgs {
			buf.Reset()
			if err := emu.WriteMessage(&buf, m); err != nil {
				return 0, 0, 0, err
			}
			nbytes += int64(buf.Len())
			if _, err := emu.ReadMessage(&buf); err != nil {
				return 0, 0, 0, err
			}
			frames++
		}
	}
	el := nowNS() - t0
	return float64(el) / float64(frames), float64(allocObjects()-a0) / float64(frames),
		float64(nbytes) / float64(frames), nil
}

// conditionsLatencyNS times Conditions.Latency over the stream's
// requester pairs and requester-tracker pairs.
func conditionsLatencyNS(c *emu.Conditions, stream []streamReq) float64 {
	if len(stream) < 2 {
		return 0
	}
	var n int64
	t0 := nowNS()
	for nowNS()-t0 < int64(minReplay) {
		for i := 1; i < len(stream) && i <= passCap; i++ {
			c.Latency(int(stream[i-1].node), int(stream[i].node))
			c.Latency(-1, int(stream[i].node))
			n += 2
		}
	}
	return float64(nowNS()-t0) / float64(n)
}

// rpcMedianUS is one tracker round trip on a fresh loopback connection, the
// way peers dial for every tracker RPC: dial, write a top-list request,
// read the reply, close. The tracker runs without injected WAN conditions
// so the figure is the transport and codec cost alone.
func rpcMedianUS(tr *trace.Trace, tc emu.TrackerConfig) (float64, error) {
	plane, err := emu.StartControlPlane(emu.ControlPlaneConfig{Shards: 1, Replicas: 1}, tc, tr, nil)
	if err != nil {
		return 0, err
	}
	defer plane.Stop()
	addr := plane.Replicas(0)[0]
	const rounds = 400
	us := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		req := &emu.Message{Type: emu.MsgTopList, From: 0, Channel: i % len(tr.Channels), TTL: 3}
		t0 := nowNS()
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return 0, fmt.Errorf("dial tracker: %w", err)
		}
		if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
			conn.Close()
			return 0, err
		}
		if err := emu.WriteMessage(conn, req); err != nil {
			conn.Close()
			return 0, err
		}
		_, err = emu.ReadMessage(conn)
		conn.Close()
		if err != nil {
			return 0, fmt.Errorf("tracker reply: %w", err)
		}
		us = append(us, float64(nowNS()-t0)/1e3)
	}
	return median(us), nil
}

// The emulator replays use the TCP emulation's defaults: the 2x2 tracker
// plane and WAN conditions (2-25 ms one-way latency, 1% loss) of the
// paper's PlanetLab runs scaled to loopback.

func emuTrackerConfig(seed int64) emu.TrackerConfig {
	tc := emu.DefaultTrackerConfig()
	tc.Seed = derive(seed, seedTracker)
	return tc
}

func emuConditions(seed int64) *emu.Conditions {
	c := emu.DefaultConditions()
	c.Seed = derive(seed, seedConditions)
	return c
}

// ctrlIdleWindow is how long the idle control plane is watched.
const ctrlIdleWindow = time.Second

// ctrlIdleCores is the CPU an idle 2x2 control plane burns (gossip and
// liveness rounds) over a fixed window, in cores. Nothing else runs in the
// process meanwhile.
func ctrlIdleCores(tr *trace.Trace, seed int64) (float64, error) {
	cp := emu.DefaultControlPlaneConfig()
	cp.RingSeed = derive(seed, seedRing)
	plane, err := emu.StartControlPlane(cp, emuTrackerConfig(seed), tr, emuConditions(seed))
	if err != nil {
		return 0, err
	}
	defer plane.Stop()
	time.Sleep(100 * time.Millisecond) // let every replica reach its gossip loop
	c0, t0 := cpuSeconds(), nowNS()
	time.Sleep(ctrlIdleWindow)
	return (cpuSeconds() - c0) / (float64(nowNS()-t0) / 1e9), nil
}

// selfShare is the run spans' self time (duration minus the union of their
// children) over their duration.
func selfShare(spans []span, layer string) float64 {
	self, dur := selfTimes(spans)
	var s, d int64
	for i, sp := range spans {
		if sp.layer == layer {
			s += self[i]
			d += dur[i]
		}
	}
	return ratio(float64(s), float64(d))
}

// selfTimes returns every span's self time and duration, by index.
func selfTimes(spans []span) (self, dur []int64) {
	self = make([]int64, len(spans))
	dur = make([]int64, len(spans))
	children := make(map[int32][]int, len(spans)/8)
	for i, sp := range spans {
		dur[i] = sp.end - sp.start
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	for i, sp := range spans {
		kids := children[sp.id]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered, curS, curE int64
		open := false
		for _, k := range kids {
			s, e := max(spans[k].start, sp.start), min(spans[k].end, sp.end)
			if e <= s {
				continue
			}
			if open && s <= curE {
				curE = max(curE, e)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = s, e, true
		}
		if open {
			covered += curE - curS
		}
		self[i] = dur[i] - covered
	}
	return self, dur
}

func sum64(xs ...uint64) float64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return float64(t)
}

// coreCounterMetrics are the exact SocialTube counters of a run.
func coreCounterMetrics(m map[string]float64, c obs.Counters, requests int64) {
	m["core.flood_msgs_per_req"] = ratio(sum64(c.FloodMsgsChannel, c.FloodMsgsCategory, c.FloodMsgsServer), float64(requests))
	m["core.lookup_hit_ratio"] = ratio(sum64(c.HitsChannel, c.HitsCategory, c.HitsServerAssist),
		sum64(c.LookupsChannel, c.LookupsCategory, c.LookupsServer))
	m["core.prefetch_hit_ratio"] = ratio(float64(c.PrefetchHits), sum64(c.PrefetchHits, c.PrefetchMisses))
}
