package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/socialtube/socialtube/internal/baseline"
	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// derive gives each consumer of the benchmark seed its own stream: the
// trace, the experiment engine, the network model, the arrival generator,
// the protocols and the emulator all take derive(seed, k) for a fixed k.
func derive(seed int64, k int64) int64 { return seed*1_000_003 + k }

const (
	seedTrace = iota + 1
	seedExp
	seedNet
	seedLoad
	seedProto
	seedConditions
	seedRing
	seedTracker
)

// simParams sizes a simulator workload. It is printed in the run manifest.
type simParams struct {
	Users            int      `json:"users"`
	Channels         int      `json:"channels"`
	Categories       int      `json:"categories"`
	VideoMultiplier  float64  `json:"videoMultiplier"`
	Sessions         int      `json:"sessions"`
	VideosPerSession int      `json:"videosPerSession"`
	WatchScale       float64  `json:"watchScale"`
	Protocols        []string `json:"protocols"`
	// Realizations is how many independently seeded traces one
	// repetition runs (see simRep).
	Realizations int `json:"realizations"`
	// Sharded open-loop fields; Workers 0 means the classic engine.
	Workers         int           `json:"workers,omitempty"`
	RPS             float64       `json:"rps,omitempty"`
	Duration        time.Duration `json:"durationNanos,omitempty"`
	FlashMultiplier float64       `json:"flashMultiplier,omitempty"`
	QueueCap        int           `json:"queueCap,omitempty"`
	TimelineWindow  time.Duration `json:"timelineWindowNanos,omitempty"`
}

// Table I catalog: 545 channels in 18 categories, 4.4x the crawl-wide
// per-channel video count (≈101k videos).
func tableICatalog(p *simParams) {
	p.Channels, p.Categories, p.VideoMultiplier = 545, 18, 4.4
}

func paperClosedParams() simParams {
	p := simParams{Users: 1000, Sessions: 2, VideosPerSession: 10, WatchScale: 1,
		Protocols: []string{"SocialTube", "NetTube", "PA-VoD"}, Realizations: 2}
	tableICatalog(&p)
	return p
}

func shardedFlashParams(workers int) simParams {
	p := simParams{Users: 25_000, Sessions: 1, VideosPerSession: 1, WatchScale: 0.05,
		Protocols:    []string{"SocialTube"},
		Realizations: 6, Workers: workers, RPS: 48, Duration: 600 * time.Second, FlashMultiplier: 100,
		QueueCap: 32, TimelineWindow: 30 * time.Second}
	tableICatalog(&p)
	return p
}

func (p simParams) traceConfig(seed int64) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = derive(seed, seedTrace)
	cfg.Users, cfg.Channels, cfg.Categories = p.Users, p.Channels, p.Categories
	if cfg.MaxInterestsPerUser > p.Categories {
		cfg.MaxInterestsPerUser = p.Categories
	}
	if p.VideoMultiplier > 0 {
		cfg.VideoCountMultiplier = p.VideoMultiplier
		cfg.MaxVideosPerChannel = int(float64(cfg.MaxVideosPerChannel) * p.VideoMultiplier)
	}
	return cfg
}

func (p simParams) expConfig(seed int64) exp.Config {
	cfg := exp.DefaultConfig()
	cfg.Seed = derive(seed, seedExp)
	cfg.Sessions, cfg.VideosPerSession, cfg.WatchScale = p.Sessions, p.VideosPerSession, p.WatchScale
	if p.WatchScale < 1 {
		// Compressed playback shrinks sessions; shrink off-times with it.
		cfg.MeanOffTime = 60 * time.Second
		cfg.Horizon = 24 * time.Hour
	}
	return cfg
}

func (p simParams) netConfig(seed int64) simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Seed = derive(seed, seedNet)
	cfg.ServerQueueCap = p.QueueCap
	return cfg
}

// profile is the open-loop arrival curve: steady Poisson arrivals with a
// flash crowd on flashChannel over the middle third of the window.
func (p simParams) profile(seed int64, flashChannel int) *load.Profile {
	return &load.Profile{
		Mode: load.Steady, Seed: derive(seed, seedLoad), RPS: p.RPS, Duration: p.Duration,
		Flash: &load.FlashCrowd{Channel: flashChannel, At: p.Duration / 3, For: p.Duration / 3,
			Multiplier: p.FlashMultiplier},
	}
}

// hottestChannel is the flash-crowd target: the channel with the most views.
func hottestChannel(tr *trace.Trace) int {
	best, views := 0, int64(-1)
	for c := range tr.Channels {
		if v := tr.ChannelViews(trace.ChannelID(c)); v > views && len(tr.Channels[c].Videos) > 0 {
			best, views = c, v
		}
	}
	return best
}

// layerOf names a protocol's layer in spans and per-layer metrics.
func layerOf(proto string) string {
	switch proto {
	case "NetTube":
		return "baseline.nettube"
	case "PA-VoD":
		return "baseline.pavod"
	}
	return "core"
}

// buildProtocol constructs one comparison system with the parameters the
// figure runner uses, wrapped in rec's timers unless rec is nil.
func buildProtocol(name string, tr *trace.Trace, seed int64, watchScale float64, rec *recorder) (vod.Protocol, error) {
	switch name {
	case "SocialTube":
		cfg := core.DefaultConfig()
		cfg.Seed = derive(seed, seedProto)
		s, err := core.New(cfg, tr)
		if err != nil || rec == nil {
			return s, err
		}
		return &coreW{System: s, r: rec}, nil
	case "NetTube":
		cfg := baseline.DefaultNetTubeConfig()
		cfg.Seed = derive(seed, seedProto)
		n, err := baseline.NewNetTube(cfg, tr)
		if err != nil || rec == nil {
			return n, err
		}
		return &netTubeW{NetTube: n, r: rec}, nil
	case "PA-VoD":
		cfg := baseline.DefaultPAVoDConfig()
		cfg.Seed = derive(seed, seedProto)
		cfg.ReadyDelay = time.Duration(float64(cfg.ReadyDelay) * watchScale)
		// ISP-localized assistance: one ISP per ~500 users from 1k users up.
		if len(tr.Users) >= 1000 {
			cfg.ISPs = len(tr.Users) / 500
		}
		p, err := baseline.NewPAVoD(cfg, tr)
		if err != nil || rec == nil {
			return p, err
		}
		return &paVoDW{PAVoD: p, r: rec}, nil
	}
	return nil, fmt.Errorf("unknown protocol %q", name)
}

// rep is one repetition of a workload: set-up, run, and what the per-layer
// ledger needs from both.
type rep struct {
	setup    phase
	run      phase
	runWallS float64 // run-phase wall time the throughput metric divides by
	requests int64
	peakMB   float64
	digest   string
	genS     float64 // trace.Generate wall time, summed over realizations

	tr      *trace.Trace
	results []*exp.Result
	recs    []*recorder
	profile *load.Profile
	// perProto lists each protocol's run-phase wall time, for the log.
	perProto string
	// stealFrac is the hypervisor's steal share of the machine's CPU time
	// while the repetition ran.
	stealFrac float64
}

// release drops the repetition's trace, results and recorders once its
// metrics are taken, so they do not inflate the next repetition's heap.
func (r *rep) release() {
	r.tr, r.results, r.recs = nil, nil, nil
}

// digestOf is sim_digest: SHA-256 over each Result's JSON, in run order.
func digestOf(results []*exp.Result) (string, error) {
	h := sha256.New()
	for _, res := range results {
		b, err := json.Marshal(res)
		if err != nil {
			return "", fmt.Errorf("marshal %s result: %w", res.Protocol, err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// generate times trace generation as the rep's first set-up step.
func generate(cfg trace.Config, sl *spanLog, parent int32, r *rep) error {
	id := sl.open("trace.generate", parent)
	t0 := nowNS()
	tr, err := trace.Generate(cfg)
	r.genS += float64(nowNS()-t0) / 1e9
	sl.close(id)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.tr = tr
	return nil
}

// runPhase splits a run call at split: before it is set-up (partitioning,
// cell construction), after it the run phase.
func (r *rep) runPhase(call, split, end point) {
	r.setup.add(between(call, split))
	ph := between(split, end)
	r.run.add(ph)
	r.runWallS += ph.wallS
}

// simRep runs one repetition: the workload once per trace realization, one
// realization after another. Each realization is an independently seeded
// trace, so a repetition averages over how much one trace's heavy-tailed
// catalog and category sizes move the metrics; repetitions repeat the same
// realizations, so their digests must agree.
func simRep(p simParams, seed int64, traced bool, sl *spanLog) (*rep, error) {
	r := &rep{}
	repSpan := sl.open("bench.rep", -1)
	var peakSum float64
	for k := 0; k < p.Realizations; k++ {
		r.tr = nil // the previous realization's trace is garbage now
		settle()
		hp := startHeapPeak()
		run := closedRealization
		if p.Workers > 0 {
			run = shardedRealization
		}
		err := run(p, derive(seed, int64(100+k)), traced, sl, repSpan, hp, r)
		peakSum += hp.finish()
		if err != nil {
			return nil, err
		}
	}
	sl.close(repSpan)
	r.peakMB = peakSum / float64(p.Realizations)
	var err error
	r.digest, err = digestOf(r.results)
	return r, err
}

// closedRealization generates one trace and runs SocialTube, NetTube and
// PA-VoD over it one after another through the classic closed-loop
// engine, adding phases, requests, recorders and Results to r.
func closedRealization(p simParams, seed int64, traced bool, sl *spanLog, repSpan int32, hp *heapPeak, r *rep) error {
	start := takePoint()
	if err := generate(p.traceConfig(seed), sl, repSpan, r); err != nil {
		return err
	}
	r.setup.add(between(start, takePoint()))
	expCfg, netCfg := p.expConfig(seed), p.netConfig(seed)
	for _, name := range p.Protocols {
		layer := layerOf(name)
		var rec *recorder
		if traced {
			rec = newRecorder(layer, -1, uint64(len(r.results)+1)<<40, r.tr)
			r.recs = append(r.recs, rec)
		}
		c := takePoint()
		ns := sl.open(layer+".new", repSpan)
		proto, err := buildProtocol(name, r.tr, seed, p.WatchScale, rec)
		sl.close(ns)
		if err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
		built := takePoint()
		runSpan := sl.open("exp.run", repSpan)
		if rec != nil {
			rec.parent = runSpan
		}
		res, err := exp.Run(expCfg, r.tr, proto, netCfg)
		end := takePoint()
		sl.close(runSpan)
		if err != nil {
			return fmt.Errorf("run %s: %w", name, err)
		}
		hp.atRest()
		runtime.KeepAlive(proto)
		r.runPhase(c, built, end)
		r.perProto += fmt.Sprintf(" (%s %.3fs)", name, float64(end.wall-built.wall)/1e9)
		r.requests += res.Requests
		r.results = append(r.results, res)
	}
	return nil
}

// shardedRealization generates one trace and runs SocialTube over it
// community-sharded under open-loop arrivals with a flash crowd and a
// bounded server queue, adding phases, requests, recorders and the Result
// to r.
func shardedRealization(p simParams, seed int64, traced bool, sl *spanLog, repSpan int32, hp *heapPeak, r *rep) error {
	start := takePoint()
	if err := generate(p.traceConfig(seed), sl, repSpan, r); err != nil {
		return err
	}
	r.profile = p.profile(seed, hottestChannel(r.tr))
	r.setup.add(between(start, takePoint()))
	runSpan := sl.open("exp.run_sharded", repSpan)
	protos := make([]vod.Protocol, p.Categories)
	// RunSharded partitions the trace and calls the factory once per
	// non-empty cell, one after another, before its event loops start:
	// the last factory return splits set-up from the run phase.
	var built point
	factory := func(cell int, ct *trace.Trace) (vod.Protocol, error) {
		var rec *recorder
		if traced {
			rec = newRecorder("core", runSpan, uint64(len(r.results)*p.Categories+cell+1)<<40, ct)
			r.recs = append(r.recs, rec)
		}
		ns := sl.open("core.new", runSpan)
		proto, err := buildProtocol("SocialTube", ct, seed, p.WatchScale, rec)
		sl.close(ns)
		protos[cell] = proto
		built = takePoint()
		return proto, err
	}
	c := takePoint()
	res, err := exp.RunSharded(p.expConfig(seed), r.tr, factory, p.netConfig(seed), exp.ShardedOptions{
		Workers: p.Workers, TimelineWindow: p.TimelineWindow, Load: r.profile,
	})
	end := takePoint()
	sl.close(runSpan)
	if err != nil {
		return fmt.Errorf("run sharded: %w", err)
	}
	hp.atRest()
	runtime.KeepAlive(protos)
	r.runPhase(c, built, end)
	r.requests += res.Requests
	r.results = append(r.results, res)
	return nil
}

// checkSim is the output-correctness gate for one simulator Result.
func checkSim(res *exp.Result) error {
	cache, peer, server := res.CacheHits.Value(), res.PeerHits.Value(), res.ServerHits.Value()
	shed := int64(res.Obs.ServerShed)
	if res.Requests <= 0 {
		return fmt.Errorf("%s: no requests", res.Protocol)
	}
	if sum := cache + peer + server + shed; sum != res.Requests {
		return fmt.Errorf("%s: cache %d + peer %d + server %d + shed %d = %d, want requests %d",
			res.Protocol, cache, peer, server, shed, sum, res.Requests)
	}
	if got, want := int64(res.StartupDelay.Len()), res.Requests-cache-shed; got != want {
		return fmt.Errorf("%s: startup histogram holds %d, want requests-cache-shed = %d", res.Protocol, got, want)
	}
	if l := res.Load; l != nil && l.Offered != l.Busy+res.Requests {
		return fmt.Errorf("%s: offered %d != busy %d + requests %d", res.Protocol, l.Offered, l.Busy, res.Requests)
	}
	return nil
}
