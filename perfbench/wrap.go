package main

import (
	"time"

	"github.com/socialtube/socialtube/internal/baseline"
	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// Protocol calls are timed from outside the program by wrappers that embed
// the concrete protocol types. Embedding keeps every optional interface the
// experiment engine asserts (Maintainer, Timed, obs.Instrumented,
// obs.Traceable, Repairer, Reseeder, RemoteSearcher, SpanScoped) exactly as
// the bare type has it, so a wrapped run executes the same program and
// produces byte-identical Results (see TestWrappersAreTransparent). Only
// traced repetitions install them; untraced ones run the bare types.

// Call kinds a wrapper times.
const (
	kRequest = iota
	kFinish
	kProbe
	kJoin
	kLeave
	kFail
	kRemote
	nKinds
)

var kindNames = [nKinds]string{"request", "finish", "probe", "join", "leave", "fail", "remote_lookup"}

// span is one timed interval: a phase of a repetition or one call into a
// layer. Spans of one request share req; parent is the id of the enclosing
// span (-1 for a root).
type span struct {
	id     int32
	parent int32
	layer  string
	start  int64
	end    int64
	req    uint64
}

// delivery is one located request as the engine's deliver step will see
// it: who asked, who provides, and when. The simnet replay re-issues the
// network calls these imply.
type delivery struct {
	node     int32
	provider int32
	video    int32
	source   vod.Source
	prefix   bool
	at       time.Duration
}

// streamReq is one request of a workload's request stream, replayed
// through layers the workload itself does not call.
type streamReq struct {
	node  int32
	video trace.VideoID
}

// recorder is one protocol instance's ledger: spans, per-kind call time,
// the request stream and the deliveries it implies. A recorder is used by
// one goroutine at a time: the classic engine is single-threaded and each
// sharded cell owns its protocol instance.
type recorder struct {
	layer   string
	names   [nKinds]string
	parent  int32
	base    uint64
	seq     uint64
	lastReq map[int]uint64
	simNow  time.Duration
	callNS  [nKinds]int64
	callN   [nKinds]int64
	spans   []span
	deliv   []delivery
	stream  []streamReq
	cellTr  *trace.Trace
}

// newRecorder returns the ledger of one protocol instance over trace tr,
// whose call spans hang under parent and whose request ids start at base.
func newRecorder(layer string, parent int32, base uint64, tr *trace.Trace) *recorder {
	r := &recorder{layer: layer, parent: parent, base: base, lastReq: make(map[int]uint64), cellTr: tr}
	for k := range r.names {
		r.names[k] = layer + "." + kindNames[k]
	}
	return r
}

// exit records a call of the given kind that started at t0, linked to the
// node's latest request.
func (r *recorder) exit(kind int, t0 int64, node int) {
	t1 := nowNS()
	r.callNS[kind] += t1 - t0
	r.callN[kind]++
	r.spans = append(r.spans, span{parent: r.parent, layer: r.names[kind], start: t0, end: t1, req: r.lastReq[node]})
}

// exitRequest records a Request call that started at t0 under a new
// request id, with the stream entry and delivery it implies.
func (r *recorder) exitRequest(t0 int64, node int, v trace.VideoID, res vod.RequestResult) {
	t1 := nowNS()
	r.seq++
	id := r.base | r.seq
	r.lastReq[node] = id
	r.callNS[kRequest] += t1 - t0
	r.callN[kRequest]++
	r.spans = append(r.spans, span{parent: r.parent, layer: r.names[kRequest], start: t0, end: t1, req: id})
	r.stream = append(r.stream, streamReq{node: int32(node), video: v})
	if res.Source != vod.SourceCache {
		r.deliv = append(r.deliv, delivery{node: int32(node), provider: int32(res.Provider), video: int32(v),
			source: res.Source, prefix: res.PrefixCached, at: r.simNow})
	}
}

// coreW times *core.System.
type coreW struct {
	*core.System
	r *recorder
}

func (w *coreW) SetNow(now time.Duration) { w.r.simNow = now; w.System.SetNow(now) }
func (w *coreW) Join(node int)            { t := nowNS(); w.System.Join(node); w.r.exit(kJoin, t, node) }
func (w *coreW) Leave(node int)           { t := nowNS(); w.System.Leave(node); w.r.exit(kLeave, t, node) }
func (w *coreW) Fail(node int)            { t := nowNS(); w.System.Fail(node); w.r.exit(kFail, t, node) }

func (w *coreW) Request(node int, v trace.VideoID) vod.RequestResult {
	t := nowNS()
	res := w.System.Request(node, v)
	w.r.exitRequest(t, node, v, res)
	return res
}

func (w *coreW) Finish(node int, v trace.VideoID) {
	t := nowNS()
	w.System.Finish(node, v)
	w.r.exit(kFinish, t, node)
}

func (w *coreW) Probe(node int) int {
	t := nowNS()
	n := w.System.Probe(node)
	w.r.exit(kProbe, t, node)
	return n
}

func (w *coreW) RemoteLookup(span uint64, v trace.VideoID) (provider, hops, msgs int, ok bool) {
	t := nowNS()
	provider, hops, msgs, ok = w.System.RemoteLookup(span, v)
	w.r.exit(kRemote, t, -1)
	return provider, hops, msgs, ok
}

// netTubeW times *baseline.NetTube.
type netTubeW struct {
	*baseline.NetTube
	r *recorder
}

func (w *netTubeW) SetNow(now time.Duration) { w.r.simNow = now; w.NetTube.SetNow(now) }
func (w *netTubeW) Join(node int)            { t := nowNS(); w.NetTube.Join(node); w.r.exit(kJoin, t, node) }
func (w *netTubeW) Leave(node int) {
	t := nowNS()
	w.NetTube.Leave(node)
	w.r.exit(kLeave, t, node)
}
func (w *netTubeW) Fail(node int) { t := nowNS(); w.NetTube.Fail(node); w.r.exit(kFail, t, node) }

func (w *netTubeW) Request(node int, v trace.VideoID) vod.RequestResult {
	t := nowNS()
	res := w.NetTube.Request(node, v)
	w.r.exitRequest(t, node, v, res)
	return res
}

func (w *netTubeW) Finish(node int, v trace.VideoID) {
	t := nowNS()
	w.NetTube.Finish(node, v)
	w.r.exit(kFinish, t, node)
}

func (w *netTubeW) Probe(node int) int {
	t := nowNS()
	n := w.NetTube.Probe(node)
	w.r.exit(kProbe, t, node)
	return n
}

// paVoDW times *baseline.PAVoD, which has no Probe: the wrapper must not
// add one, or the engine would start maintenance rounds PA-VoD never runs.
type paVoDW struct {
	*baseline.PAVoD
	r *recorder
}

func (w *paVoDW) SetNow(now time.Duration) { w.r.simNow = now; w.PAVoD.SetNow(now) }
func (w *paVoDW) Join(node int)            { t := nowNS(); w.PAVoD.Join(node); w.r.exit(kJoin, t, node) }
func (w *paVoDW) Leave(node int)           { t := nowNS(); w.PAVoD.Leave(node); w.r.exit(kLeave, t, node) }
func (w *paVoDW) Fail(node int)            { t := nowNS(); w.PAVoD.Fail(node); w.r.exit(kFail, t, node) }

func (w *paVoDW) Request(node int, v trace.VideoID) vod.RequestResult {
	t := nowNS()
	res := w.PAVoD.Request(node, v)
	w.r.exitRequest(t, node, v, res)
	return res
}

func (w *paVoDW) Finish(node int, v trace.VideoID) {
	t := nowNS()
	w.PAVoD.Finish(node, v)
	w.r.exit(kFinish, t, node)
}
