package emu

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/health"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// maxQueryProviders caps the ranked candidate list a flood response
// carries: enough for two mid-stream handoffs before a re-query.
const maxQueryProviders = 3

// Mode selects which protocol a peer speaks.
type Mode int

// Protocol modes.
const (
	// ModeSocialTube runs the paper's hierarchical per-community
	// protocol.
	ModeSocialTube Mode = iota + 1
	// ModeNetTube runs per-video overlays with a session cache.
	ModeNetTube
	// ModePAVoD runs server-directed peer assistance without caching.
	ModePAVoD
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSocialTube:
		return "SocialTube"
	case ModeNetTube:
		return "NetTube"
	case ModePAVoD:
		return "PA-VoD"
	default:
		return "unknown"
	}
}

// PeerConfig sets one peer's parameters.
type PeerConfig struct {
	// ID is the node's id (its user id in the trace).
	ID int
	// Mode selects the protocol.
	Mode Mode
	// Addr is the listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// InnerLinks (N_l), InterLinks (N_h) bound SocialTube link budgets.
	InnerLinks int
	InterLinks int
	// LinksPerOverlay bounds NetTube per-video overlay links.
	LinksPerOverlay int
	// TTL bounds query forwarding.
	TTL int
	// PrefetchCount is the number of first chunks to prefetch.
	PrefetchCount int
	// UplinkBps is the peer's upload capacity.
	UplinkBps int64
	// ChunkPayload is the bytes shipped per chunk.
	ChunkPayload int
	// RPCTimeout bounds each peer-to-peer RPC.
	RPCTimeout time.Duration
	// MaxRetries bounds additional attempts for tracker-path RPCs
	// (0 disables retrying); RetryBackoff is the initial delay between
	// attempts, doubled per retry.
	MaxRetries   int
	RetryBackoff time.Duration
	// BreakerThreshold / BreakerOpenFor parameterise the per-neighbour
	// circuit breaker (zero fields select health.DefaultConfig).
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// Seed drives the peer's random choices.
	Seed int64
}

// DefaultPeerConfig returns Table I parameters scaled for loopback runs.
func DefaultPeerConfig(id int, mode Mode) PeerConfig {
	return PeerConfig{
		ID:               id,
		Mode:             mode,
		Addr:             "127.0.0.1:0",
		InnerLinks:       5,
		InterLinks:       10,
		LinksPerOverlay:  4,
		TTL:              2,
		PrefetchCount:    3,
		UplinkBps:        4_000_000,
		ChunkPayload:     8 << 10,
		RPCTimeout:       3 * time.Second,
		MaxRetries:       2,
		RetryBackoff:     5 * time.Millisecond,
		BreakerThreshold: health.DefaultConfig().Threshold,
		BreakerOpenFor:   health.DefaultConfig().OpenFor,
		Seed:             int64(id) + 1,
	}
}

// Validate reports the first problem with the configuration.
func (c PeerConfig) Validate() error {
	switch {
	case c.Mode < ModeSocialTube || c.Mode > ModePAVoD:
		return fmt.Errorf("%w: mode=%d", dist.ErrBadParameter, c.Mode)
	case c.InnerLinks <= 0 || c.InterLinks < 0 || c.LinksPerOverlay <= 0:
		return fmt.Errorf("%w: link budgets", dist.ErrBadParameter)
	case c.TTL <= 0:
		return fmt.Errorf("%w: ttl=%d", dist.ErrBadParameter, c.TTL)
	case c.PrefetchCount < 0:
		return fmt.Errorf("%w: prefetchCount=%d", dist.ErrBadParameter, c.PrefetchCount)
	case c.UplinkBps <= 0 || c.ChunkPayload <= 0:
		return fmt.Errorf("%w: uplink/payload", dist.ErrBadParameter)
	case c.RPCTimeout <= 0:
		return fmt.Errorf("%w: rpcTimeout=%v", dist.ErrBadParameter, c.RPCTimeout)
	case c.MaxRetries < 0 || c.RetryBackoff < 0:
		return fmt.Errorf("%w: retry policy", dist.ErrBadParameter)
	case c.BreakerThreshold < 0 || c.BreakerOpenFor < 0:
		return fmt.Errorf("%w: breaker policy", dist.ErrBadParameter)
	}
	return nil
}

// Peer is one TCP node. Start it, drive it with RequestVideo/FinishVideo,
// and Stop it to release all goroutines.
type Peer struct {
	cfg     PeerConfig
	tr      *trace.Trace
	cond    *Conditions
	cp      *ControlPlane
	ln      net.Listener
	wg      sync.WaitGroup
	closeCh chan struct{}
	// crashed marks an abrupt failure: the process is alive but drops
	// every incoming message, exactly like a host that lost power —
	// neighbors keep dangling links until their probes time out.
	crashed atomic.Bool
	// ctr counts protocol events (atomic fields; see Counters).
	ctr obs.Counters
	// epoch anchors breaker time: health.Set wants monotonic offsets,
	// so every breaker call passes time.Since(epoch).
	epoch time.Time
	// brk short-circuits RPCs to neighbours that keep failing; tbrk does
	// the same for control-plane endpoints, keyed by the directory's flat
	// endpoint index, so the failover walk skips replicas known dark.
	brkMu sync.Mutex
	brk   *health.Set
	tbrk  *health.Set
	// prefRep overrides the configured preferred replica per shard after
	// a breaker-driven demotion (guarded by brkMu).
	prefRep map[int]int

	// planeMu guards the peer's routing view of the control plane: the
	// highest ring epoch seen on a tracker response and the dead-shard
	// mask that came with it. joinedEpoch (under p.mu) tracks the epoch
	// the current home-channel registration was made under, so an epoch
	// change triggers re-registration with the adopting shard.
	planeMu    sync.Mutex
	planeEpoch int64
	planeDead  uint64

	// hintMu guards the hinted-handoff queue: plane-broadcast writes
	// (register/leave) that could not reach a replica, replayed on heal.
	hintMu sync.Mutex
	hints  []hint

	mu     sync.Mutex
	g      *dist.RNG
	cache  *vod.Cache
	subs   map[trace.ChannelID]bool
	online bool
	// watching is the video currently being watched (-1 when idle);
	// PA-VoD peers serve the video they are watching even though they
	// keep no cache.
	watching trace.VideoID
	// SocialTube state.
	home  trace.ChannelID
	inner map[int]PeerInfo
	inter map[int]PeerInfo
	// joinedEpoch is the ring epoch the current home registration was
	// made under; attachChannel re-joins when the plane's epoch moves.
	joinedEpoch int64
	// NetTube state: links per joined per-video overlay.
	perVideo map[trace.VideoID]map[int]PeerInfo
	// Uplink queue + accounting.
	busyUntil   time.Time
	servedBytes int64
	// onChunk, when set (figure/test harnesses), observes every chunk
	// this peer receives while fetching a video.
	onChunk func(v trace.VideoID, chunk, provider int)
}

// NewPeerWithControlPlane builds a peer over the trace, routing every
// tracker-path RPC through the control plane's shard directory. Call
// Start before use.
func NewPeerWithControlPlane(cfg PeerConfig, tr *trace.Trace, cp *ControlPlane, cond *Conditions) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("peer config: %w", err)
	}
	if tr == nil || len(tr.Videos) == 0 {
		return nil, fmt.Errorf("%w: peer needs a non-empty trace", dist.ErrBadParameter)
	}
	if cp == nil {
		return nil, fmt.Errorf("%w: peer needs a control plane", dist.ErrBadParameter)
	}
	p := &Peer{
		cfg:     cfg,
		tr:      tr,
		cond:    cond,
		cp:      cp,
		closeCh: make(chan struct{}),
		epoch:   time.Now(),
		brk: health.NewSet(health.Config{
			Threshold: cfg.BreakerThreshold,
			OpenFor:   cfg.BreakerOpenFor,
		}, 0),
		tbrk: health.NewSet(health.Config{
			Threshold: cfg.BreakerThreshold,
			OpenFor:   cfg.BreakerOpenFor,
		}, 0),
		prefRep:  make(map[int]int),
		g:        dist.NewRNG(cfg.Seed),
		online:   true,
		watching: -1,
		cache:    vod.NewCache(0),
		subs:     make(map[trace.ChannelID]bool),
		home:     -1,
		inner:    make(map[int]PeerInfo),
		inter:    make(map[int]PeerInfo),
		perVideo: make(map[trace.VideoID]map[int]PeerInfo),
	}
	if u := tr.User(trace.UserID(cfg.ID)); u != nil {
		for _, ch := range u.Subscriptions {
			p.subs[ch] = true
		}
	}
	return p, nil
}

// Start begins listening and registers with the tracker.
func (p *Peer) Start() error {
	ln, err := net.Listen("tcp", p.cfg.Addr)
	if err != nil {
		return fmt.Errorf("peer %d listen: %w", p.cfg.ID, err)
	}
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop()
	// Registration is plane-wide (every shard replica tracks the address
	// book) and best-effort: it is retried implicitly by later joins, so
	// losing an RPC here mirrors a lossy network, not a fatal error. A
	// replica the write cannot reach gets a hint instead, replayed when
	// the partition heals.
	p.broadcastPlane(&Message{Type: MsgRegister, From: p.cfg.ID, Addr: p.Addr()}, false)
	return nil
}

// broadcastPlane sends req to every replica of every shard, shard-major
// (register and leave are plane-wide writes). Replicas across an open
// partition cut are skipped outright, and any replica the write fails to
// reach is queued as a hinted handoff for replay on heal. retry selects
// rpcRetry semantics per endpoint (Rejoin's re-registration) over the
// single best-effort attempt (Start, LeaveOverlays).
func (p *Peer) broadcastPlane(req *Message, retry bool) {
	for s := 0; s < p.cp.NumShards(); s++ {
		for r, addr := range p.cp.Replicas(s) {
			if p.cond.Severed(p.cfg.ID, r) {
				p.queueHint(addr, req)
				continue
			}
			var err error
			if retry {
				_, err = p.rpcRetry(addr, req)
			} else {
				_, err = rpc(addr, req, p.cfg.RPCTimeout)
			}
			if err != nil {
				p.queueHint(addr, req)
			}
		}
	}
}

// hint is one queued hinted-handoff write: a plane-broadcast RPC that
// could not reach addr while it was dark or severed.
type hint struct {
	addr string
	msg  *Message
}

// queueHint queues req for later replay to addr, one slot per
// (addr, message type) — a newer register to the same replica supersedes
// the older one rather than queueing behind it.
func (p *Peer) queueHint(addr string, req *Message) {
	cp := *req // private copy: callers may reuse the message
	p.hintMu.Lock()
	for i := range p.hints {
		if p.hints[i].addr == addr && p.hints[i].msg.Type == cp.Type {
			p.hints[i].msg = &cp
			p.hintMu.Unlock()
			return
		}
	}
	p.hints = append(p.hints, hint{addr: addr, msg: &cp})
	p.hintMu.Unlock()
	atomic.AddUint64(&p.ctr.HintsQueued, 1)
}

// ReplayHints redelivers every queued hinted-handoff write, requeueing
// the ones that still fail. The cluster's fault driver calls it when a
// partition heals; anti-entropy gossip then spreads the replayed writes
// to the replicas that were dark rather than severed.
func (p *Peer) ReplayHints() {
	p.hintMu.Lock()
	pending := p.hints
	p.hints = nil
	p.hintMu.Unlock()
	var still []hint
	for _, h := range pending {
		if _, err := rpc(h.addr, h.msg, p.cfg.RPCTimeout); err != nil {
			still = append(still, h)
			continue
		}
		atomic.AddUint64(&p.ctr.HintsReplayed, 1)
	}
	if len(still) > 0 {
		p.hintMu.Lock()
		p.hints = append(still, p.hints...)
		p.hintMu.Unlock()
	}
}

// observePlane folds an epoch-stamped tracker response into the routing
// view: a strictly newer epoch replaces the dead-shard mask. Healthy
// planes stamp nothing, so the view stays (0, 0) and routing is
// byte-identical to the pre-takeover walk.
func (p *Peer) observePlane(resp *Message) {
	if resp == nil || resp.Epoch == 0 {
		return
	}
	p.planeMu.Lock()
	if resp.Epoch > p.planeEpoch {
		p.planeEpoch = resp.Epoch
		p.planeDead = resp.DeadShards
	}
	p.planeMu.Unlock()
}

// planeView returns the peer's current (ring epoch, dead-shard mask).
func (p *Peer) planeView() (int64, uint64) {
	p.planeMu.Lock()
	defer p.planeMu.Unlock()
	return p.planeEpoch, p.planeDead
}

// Addr returns the peer's listen address (valid after Start).
func (p *Peer) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Stop closes the listener and waits for all handler goroutines.
func (p *Peer) Stop() {
	select {
	case <-p.closeCh:
		return
	default:
	}
	close(p.closeCh)
	if p.ln != nil {
		p.ln.Close()
	}
	p.wg.Wait()
}

// ServedBytes returns the bytes this peer uploaded to others.
func (p *Peer) ServedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.servedBytes
}

// Links returns the node's total link count (its maintenance overhead).
func (p *Peer) Links() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.inner) + len(p.inter)
	for _, m := range p.perVideo {
		n += len(m)
	}
	return n
}

// CacheLen returns the number of fully cached videos.
func (p *Peer) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cache.FullLen()
}

func (p *Peer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.closeCh:
				return
			default:
				continue
			}
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

func (p *Peer) handle(conn net.Conn) {
	defer conn.Close()
	// Budget the whole exchange (read, uplink queueing, write) at a few
	// RPC timeouts so a stalled client can't pin a handler goroutine,
	// without cutting off legitimately queued chunk transfers.
	if err := conn.SetDeadline(time.Now().Add(4 * p.cfg.RPCTimeout)); err != nil {
		return
	}
	req, err := ReadMessage(conn)
	if err != nil {
		atomic.AddUint64(&p.ctr.FramesMalformed, 1)
		return
	}
	if err := req.Validate(); err != nil {
		atomic.AddUint64(&p.ctr.FramesRejected, 1)
		return
	}
	if p.cond.Drop() {
		return // simulated loss
	}
	time.Sleep(p.cond.Latency(p.cfg.ID, req.From))
	resp := p.dispatch(req)
	if resp != nil {
		act, stall := p.cond.nextChaos()
		writeMessageChaos(conn, resp, act, stall, &p.ctr)
	}
}

// Counters snapshots the peer's protocol counters, folding in the
// current breaker statistics.
func (p *Peer) Counters() obs.Counters {
	c := p.ctr.Snapshot()
	p.brkMu.Lock()
	c.BreakerOpens = p.brk.Opens + p.tbrk.Opens
	c.BreakerSkips = p.brk.Skips + p.tbrk.Skips
	c.BreakerProbes = p.brk.Probes + p.tbrk.Probes
	c.BreakerRecoveries = p.brk.Recoveries + p.tbrk.Recoveries
	p.brkMu.Unlock()
	return c
}

// allowPeer consults the circuit breaker before an RPC to peer id:
// false means the breaker is open and the call should be skipped.
func (p *Peer) allowPeer(id int) bool {
	p.brkMu.Lock()
	defer p.brkMu.Unlock()
	p.brk.Ensure(id)
	return p.brk.Allow(id, time.Since(p.epoch))
}

// peerOK / peerFail feed RPC outcomes back into the breaker. Only
// transport-level failures count — a well-formed MsgMiss is a healthy
// peer without the content.
func (p *Peer) peerOK(id int) {
	p.brkMu.Lock()
	p.brk.Success(id)
	p.brkMu.Unlock()
}

func (p *Peer) peerFail(id int) {
	p.brkMu.Lock()
	p.brk.Ensure(id)
	p.brk.Failure(id, time.Since(p.epoch))
	p.brkMu.Unlock()
}

// SetOnline flips the peer's availability: an offline peer's listener stays
// bound (the process is alive) but it answers every protocol request
// negatively, as a logged-off user would.
func (p *Peer) SetOnline(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.online = v
}

// Crash takes the peer down abruptly: unlike SetOnline(false) + LeaveOverlays
// it sends no Bye and no Leave, so the tracker and every neighbor keep stale
// references to it until probing notices. The listener stays bound (the port
// is held) but every incoming message is dropped on the floor.
func (p *Peer) Crash() {
	p.crashed.Store(true)
}

// IsCrashed reports whether the peer is currently crashed.
func (p *Peer) IsCrashed() bool {
	return p.crashed.Load()
}

// Rejoin brings a crashed peer back: its link state is gone (a restarted
// process holds no sockets) but its cache survived on disk. The peer
// re-registers with the tracker and, under SocialTube, re-seeds its prefetch
// prefixes from its home channel's popularity list (§IV-B re-seeding).
func (p *Peer) Rejoin() {
	if !p.crashed.Swap(false) {
		return
	}
	p.mu.Lock()
	home := p.home
	p.inner = make(map[int]PeerInfo)
	p.inter = make(map[int]PeerInfo)
	p.perVideo = make(map[trace.VideoID]map[int]PeerInfo)
	p.home = -1
	p.mu.Unlock()
	p.broadcastPlane(&Message{Type: MsgRegister, From: p.cfg.ID, Addr: p.Addr()}, true)
	p.ReplayHints()
	if p.cfg.Mode == ModeSocialTube && home >= 0 {
		p.socialTubePrefetch(home, -1)
	}
}

// rpcRetry performs one RPC with up to MaxRetries additional attempts and
// exponential backoff, aborting early when the peer stops. It is used on the
// tracker path, where a transient outage should degrade service gracefully
// instead of losing the request outright.
func (p *Peer) rpcRetry(addr string, req *Message) (*Message, error) {
	backoff := p.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		resp, err := rpc(addr, req, p.cfg.RPCTimeout)
		if err == nil {
			return resp, nil
		}
		if attempt >= p.cfg.MaxRetries {
			atomic.AddUint64(&p.ctr.RPCFailures, 1)
			return resp, err
		}
		select {
		case <-p.closeCh:
			atomic.AddUint64(&p.ctr.RPCFailures, 1)
			return nil, err
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// chanKey returns the routing key for a video-keyed tracker RPC: the
// video's owning channel, so a video and its channel land on the same
// shard and the tracker's per-channel state stays shard-local.
func (p *Peer) chanKey(v trace.VideoID) int64 {
	if vd := p.tr.Video(v); vd != nil {
		return int64(vd.Channel)
	}
	return int64(v)
}

// trackerRPC routes one tracker-path RPC to the shard owning key, failing
// over between the shard's replicas. On a single-endpoint plane (the
// legacy path) it reduces to exactly rpcRetry against that address — no
// breaker is consulted, so legacy behaviour is unchanged.
//
// With replicas, each retry round walks the owning shard's replica set
// (walkShard) starting from the preferred replica, then — if the whole
// shard failed — walks the shard the key re-rendezvouses onto when the
// owner is removed from the ring. That fallback is what bounds the
// pre-takeover loss window: requests survive a whole-shard death even
// before any survivor has declared it, at the cost of one extra walk.
// Once a declaration has gossiped, responses carry the ring epoch and
// dead-shard mask, the peer's plane view reroutes the request up front,
// and the failed walk disappears. Backoff doubles between rounds exactly
// like rpcRetry.
func (p *Peer) trackerRPC(key int64, req *Message) (*Message, error) {
	shard := p.cp.Owner(key)
	if p.cp.Endpoints() == 1 {
		return p.rpcRetry(p.cp.Replicas(shard)[0], req)
	}
	_, dead := p.planeView()
	if dead != 0 {
		if alt := p.cp.OwnerExcluding(key, dead); alt != shard {
			atomic.AddUint64(&p.ctr.TakeoverReroutes, 1)
			shard = alt
		}
	}
	backoff := p.cfg.RetryBackoff
	var lastResp *Message
	var lastErr error
	for round := 0; ; round++ {
		resp, err := p.walkShard(shard, req)
		if err == nil {
			p.observePlane(resp)
			return resp, nil
		}
		lastResp, lastErr = resp, err
		if shard < 64 {
			if fb := p.cp.OwnerExcluding(key, dead|1<<uint(shard)); fb != shard {
				if resp, err := p.walkShard(fb, req); err == nil {
					atomic.AddUint64(&p.ctr.TakeoverReroutes, 1)
					p.observePlane(resp)
					return resp, nil
				}
			}
		}
		if round >= p.cfg.MaxRetries {
			atomic.AddUint64(&p.ctr.RPCFailures, 1)
			return lastResp, lastErr
		}
		select {
		case <-p.closeCh:
			atomic.AddUint64(&p.ctr.RPCFailures, 1)
			return nil, lastErr
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// walkShard tries one request against every replica of shard, starting
// from the preferred replica: replicas across a partition cut are
// skipped, endpoints with open breakers are skipped, and transport
// outcomes feed the endpoint breaker. If every breaker was open the
// preferred replica is probed anyway — total shard darkness must keep
// probing for recovery.
func (p *Peer) walkShard(shard int, req *Message) (*Message, error) {
	reps := p.cp.Replicas(shard)
	pref := p.preferredReplica(shard, len(reps))
	tried := false
	var lastResp *Message
	var lastErr error
	for k := 0; k < len(reps); k++ {
		r := (pref + k) % len(reps)
		if p.cond.Severed(p.cfg.ID, r) {
			continue
		}
		idx := p.cp.EndpointIndex(shard, r)
		if !p.allowEndpoint(idx) {
			continue
		}
		tried = true
		resp, err := rpc(reps[r], req, p.cfg.RPCTimeout)
		if err == nil {
			p.endpointOK(idx)
			p.maybeDemote(shard, pref, r)
			return resp, nil
		}
		p.endpointFail(idx)
		lastResp, lastErr = resp, err
	}
	if !tried && !p.cond.Severed(p.cfg.ID, pref) {
		idx := p.cp.EndpointIndex(shard, pref)
		resp, err := rpc(reps[pref], req, p.cfg.RPCTimeout)
		if err == nil {
			p.endpointOK(idx)
			return resp, nil
		}
		p.endpointFail(idx)
		lastResp, lastErr = resp, err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("emu: no reachable replica of shard %d", shard)
	}
	return lastResp, lastErr
}

// preferredReplica returns the replica of shard this peer tries first:
// the ID-stable configured choice (spreading peers across replicas)
// unless a breaker-driven demotion moved it.
func (p *Peer) preferredReplica(shard, n int) int {
	p.brkMu.Lock()
	if v, ok := p.prefRep[shard]; ok && v >= 0 && v < n {
		p.brkMu.Unlock()
		return v
	}
	p.brkMu.Unlock()
	pref := p.cfg.ID % n
	if pref < 0 {
		pref += n
	}
	return pref
}

// maybeDemote re-points the preferred replica of shard at winner when the
// walk had to skip past an open-breaker preference: the old behaviour
// kept the preference sticky, so every request during a long replica
// outage paid the failover walk (a breaker-skip plus the wrap-around)
// before reaching the healthy replica. Demotion is withdrawn naturally —
// if the demoted-to replica fails later, the walk wraps to the recovered
// original and demotes back to it.
func (p *Peer) maybeDemote(shard, pref, winner int) {
	if winner == pref {
		return
	}
	p.brkMu.Lock()
	defer p.brkMu.Unlock()
	if p.tbrk.State(p.cp.EndpointIndex(shard, pref)) == health.Open {
		p.prefRep[shard] = winner
	}
}

// allowEndpoint / endpointOK / endpointFail mirror the per-neighbour
// breaker helpers for control-plane endpoints, keyed by flat endpoint
// index.
func (p *Peer) allowEndpoint(idx int) bool {
	p.brkMu.Lock()
	defer p.brkMu.Unlock()
	p.tbrk.Ensure(idx)
	return p.tbrk.Allow(idx, time.Since(p.epoch))
}

func (p *Peer) endpointOK(idx int) {
	p.brkMu.Lock()
	p.tbrk.Success(idx)
	p.brkMu.Unlock()
}

func (p *Peer) endpointFail(idx int) {
	p.brkMu.Lock()
	p.tbrk.Ensure(idx)
	p.tbrk.Failure(idx, time.Since(p.epoch))
	p.brkMu.Unlock()
}

func (p *Peer) dispatch(req *Message) *Message {
	if p.crashed.Load() {
		return nil // a crashed host answers nothing at all
	}
	if req.From >= 0 && p.cond.Severed(req.From, p.cfg.ID) {
		return nil // partitioned: the sender is on the other side of the cut
	}
	p.mu.Lock()
	up := p.online
	p.mu.Unlock()
	if !up {
		return nil // an offline peer does not answer
	}
	switch req.Type {
	case MsgQuery:
		return p.handleQuery(req)
	case MsgChunkReq:
		return p.handleChunkReq(req)
	case MsgConnect:
		return p.handleConnect(req)
	case MsgProbe:
		return &Message{Type: MsgOK, From: p.cfg.ID}
	case MsgBye:
		p.dropLinksTo(req.From)
		return &Message{Type: MsgOK, From: p.cfg.ID}
	case MsgCacheSample:
		return p.handleCacheSample(req)
	default:
		return &Message{Type: MsgMiss, From: p.cfg.ID}
	}
}

// dropLinksTo removes every link to the departed peer ("for graceful
// departures, before a node leaves the system, it notifies all of its
// neighbors, which will update the links", §IV-A).
func (p *Peer) dropLinksTo(id int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.inner, id)
	delete(p.inter, id)
	for _, m := range p.perVideo {
		delete(m, id)
	}
}

// handleQuery implements the receiver side of the TTL flood: answer from
// the local cache or forward to neighbours with a decremented TTL. A hit
// short-circuits with this peer as the sole candidate (rank 1: fewest
// hops); forwarded floods accumulate a ranked candidate list, up to
// maxQueryProviders, so the requester can fail over without re-flooding.
func (p *Peer) handleQuery(req *Message) *Message {
	v := trace.VideoID(req.Video)
	p.mu.Lock()
	hasIt := p.cache.HasFull(v)
	neighbors := p.forwardSet(req)
	p.mu.Unlock()

	if hasIt {
		self := PeerInfo{ID: p.cfg.ID, Addr: p.Addr()}
		return &Message{
			Type: MsgOK, From: p.cfg.ID,
			Video: req.Video, Provider: p.cfg.ID, ProviderAddr: p.Addr(), Hops: 1,
			Providers: []PeerInfo{self},
		}
	}
	if req.TTL <= 1 {
		return &Message{Type: MsgMiss, From: p.cfg.ID, Messages: 0}
	}
	visited := append(append([]int{}, req.Visited...), p.cfg.ID)
	seen := make(map[int]bool, len(visited))
	for _, id := range visited {
		seen[id] = true
	}
	msgs, hops := 0, 0
	var provs []PeerInfo
	for _, nb := range neighbors {
		if seen[nb.ID] {
			continue
		}
		if !p.allowPeer(nb.ID) {
			continue // open breaker: don't spend a message on a dead link
		}
		msgs++
		resp, err := rpc(nb.Addr, &Message{
			Type: MsgQuery, From: p.cfg.ID,
			Video: req.Video, TTL: req.TTL - 1, Visited: visited,
		}, p.cfg.RPCTimeout)
		if err != nil {
			p.peerFail(nb.ID)
			continue
		}
		p.peerOK(nb.ID)
		msgs += resp.Messages
		if resp.Type != MsgOK {
			continue
		}
		if hops == 0 {
			hops = resp.Hops + 1
		}
		provs = appendProviders(provs, responseProviders(resp), maxQueryProviders)
		if len(provs) >= maxQueryProviders {
			break
		}
	}
	if len(provs) == 0 {
		return &Message{Type: MsgMiss, From: p.cfg.ID, Messages: msgs}
	}
	return &Message{
		Type: MsgOK, From: p.cfg.ID,
		Video: req.Video, Hops: hops, Messages: msgs,
		Provider: provs[0].ID, ProviderAddr: provs[0].Addr,
		Providers: provs,
	}
}

// responseProviders returns a response's ranked candidate list, falling
// back to the legacy single-provider head.
func responseProviders(m *Message) []PeerInfo {
	if len(m.Providers) > 0 {
		return m.Providers
	}
	if m.ProviderAddr != "" {
		return []PeerInfo{{ID: m.Provider, Addr: m.ProviderAddr}}
	}
	return nil
}

// appendProviders merges src into dst keeping ids unique and the list at
// most limit long; earlier entries (fewer hops) keep their rank.
func appendProviders(dst, src []PeerInfo, limit int) []PeerInfo {
	for _, c := range src {
		if len(dst) >= limit {
			break
		}
		dup := false
		for _, d := range dst {
			if d.ID == c.ID {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, c)
		}
	}
	return dst
}

// forwardSet returns the neighbours a query is forwarded to. The caller
// must hold p.mu.
func (p *Peer) forwardSet(req *Message) []PeerInfo {
	switch p.cfg.Mode {
	case ModeSocialTube:
		// Queries are forwarded along inner-links within the channel
		// overlay only (inter-neighbours start their own channel
		// floods at the origin).
		out := make([]PeerInfo, 0, len(p.inner))
		for _, info := range p.inner {
			out = append(out, info)
		}
		sortInfos(out)
		return out
	case ModeNetTube:
		seen := make(map[int]bool)
		var out []PeerInfo
		for _, m := range p.perVideo {
			for id, info := range m {
				if !seen[id] {
					seen[id] = true
					out = append(out, info)
				}
			}
		}
		sortInfos(out)
		return out
	default:
		return nil
	}
}

// sortInfos orders a map-gathered peer list by id so every flood walks
// neighbours in the same order run-to-run (Go map iteration is random).
func sortInfos(s []PeerInfo) {
	sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
}

// handleChunkReq serves one cached chunk from the peer's finite uplink.
func (p *Peer) handleChunkReq(req *Message) *Message {
	v := trace.VideoID(req.Video)
	p.mu.Lock()
	ok := p.cache.HasFull(v) || p.watching == v || (req.Chunk == 0 && p.cache.HasPrefix(v))
	if !ok {
		p.mu.Unlock()
		return &Message{Type: MsgMiss, From: p.cfg.ID}
	}
	tx := time.Duration(float64(p.cfg.ChunkPayload*8) / float64(p.cfg.UplinkBps) * float64(time.Second))
	now := time.Now()
	start := now
	if p.busyUntil.After(start) {
		start = p.busyUntil
	}
	done := start.Add(tx)
	p.busyUntil = done
	p.servedBytes += int64(p.cfg.ChunkPayload)
	p.mu.Unlock()
	time.Sleep(done.Sub(now))
	return &Message{
		Type: MsgOK, From: p.cfg.ID,
		Video: req.Video, Chunk: req.Chunk,
		Payload: make([]byte, p.cfg.ChunkPayload),
	}
}

// handleCacheSample returns up to TTL random cached video ids, the source
// material for NetTube's random neighbour prefetching.
func (p *Peer) handleCacheSample(req *Message) *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	vids := p.cache.FullVideos()
	n := req.TTL
	if n <= 0 || n > len(vids) {
		n = len(vids)
	}
	p.g.Shuffle(len(vids), func(i, j int) { vids[i], vids[j] = vids[j], vids[i] })
	out := make([]int, 0, n)
	for _, v := range vids[:n] {
		out = append(out, int(v))
	}
	return &Message{Type: MsgOK, From: p.cfg.ID, Videos: out}
}

// handleConnect accepts or rejects an overlay link request depending on the
// relevant budget, keeping links symmetric (the requester adds the link
// only on acceptance).
func (p *Peer) handleConnect(req *Message) *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	info := PeerInfo{ID: req.From, Addr: req.Addr, Channel: req.Channel}
	accepted := false
	switch req.Link {
	case "inner":
		if trace.ChannelID(req.Channel) == p.home && len(p.inner) < p.cfg.InnerLinks {
			if _, dup := p.inner[req.From]; !dup {
				p.inner[req.From] = info
				accepted = true
			}
		}
	case "inter":
		if len(p.inter) < p.cfg.InterLinks {
			if _, dup := p.inter[req.From]; !dup {
				p.inter[req.From] = info
				accepted = true
			}
		}
	case "video":
		v := trace.VideoID(req.Video)
		m := p.perVideo[v]
		if m == nil {
			// Only accept overlay links for videos this peer is in
			// the overlay of (it has watched/cached it).
			if !p.cache.HasFull(v) {
				break
			}
			m = make(map[int]PeerInfo)
			p.perVideo[v] = m
		}
		if len(m) < p.cfg.LinksPerOverlay {
			if _, dup := m[req.From]; !dup {
				m[req.From] = info
				accepted = true
			}
		}
	}
	return &Message{Type: MsgOK, From: p.cfg.ID, Accepted: accepted}
}
