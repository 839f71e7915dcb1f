// Package router is the ingest tier's one forwarding engine. It
// terminates beacon WebSockets and forwards each session to a collector
// over persistent trunk connections (the internal/trunk frame
// protocol). The paper's audit only holds if the collector receives
// every beacon a panelist emits, so the engine's whole job is
// robustness: admission control (origin allowlist, session caps,
// overload shedding with Retry-After hints the beacon client honors),
// per-trunk circuit breakers, bounded per-session forward queues with
// watermark backpressure, and a spill buffer that holds every
// client-acknowledged commit until its collector durably acks it,
// replayed through the collector's nonce/stream dedup so nothing is
// double-counted.
//
// The engine runs in two roles, fixed by its constructor:
//
//   - New builds the sharded router. It consistent-hashes every session
//     onto one of N collector shards by its nonce, so each shard's
//     store, WAL and streaming audit own a stable, disjoint slice of the
//     dataset that internal/shardmerge reunites. It also terminates
//     gateway trunks on /trunk and relays their commits to the owning
//     shard (see ServeTrunk).
//   - NewGateway builds the edge gateway: the same engine with one
//     upstream collector and no relay endpoint, under its own metric
//     names, ID prefix and /healthz body.
//
// Either way the engine is trusted infrastructure, unlike the clients
// it fronts: it measures exposure as connection lifetime on its own
// clock and ships the connection-derived facts (peer IP, connect time,
// exposure) upstream in a self-contained Commit frame.
package router

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/gen2"
	"adaudit/internal/shardmerge"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// Shed reasons used for the sheds_total{reason=...} counter.
const (
	ShedDraining = "draining" // draining for shutdown
	ShedCapacity = "capacity" // MaxSessions cap reached
	ShedSpill    = "spill"    // spill buffer full: an upstream outage outlasting memory
	ShedOrigin   = "origin"   // page origin not in the allowlist
)

// maxStageSkew clamps engine-measured trace offsets against clients
// whose clocks disagree wildly with ours — the same bound the
// collector's trace adoption applies.
const maxStageSkew = 5 * time.Minute

// Config assembles the engine.
type Config struct {
	// Shards lists each upstream collector's trunk endpoint
	// (ws://host:port/trunk) in shard order. The order is the identity
	// of the topology: the hash routes by index, and the shard-merge
	// layer must union exports in the same order for bit-stable float
	// aggregates. Required: at least one for a router, exactly one for
	// a gateway.
	Shards []string
	// TrunkToken is presented on upstream trunk handshakes and required
	// of gateways trunking into /trunk (empty disables both checks).
	TrunkToken string
	// RouterID names this instance on the trunk wire; upstream commits
	// are deduped per (id, stream), so each instance needs a distinct
	// ID. Defaults to a random token.
	RouterID string
	// TrunksPerShard is the size of each upstream's trunk pool
	// (default 2).
	TrunksPerShard int
	// Dialer customises trunk dials (tests inject faults through
	// WrapConn/NetDial). MaxMessageSize and Header are managed by the
	// engine.
	Dialer wsproto.Dialer

	// AllowedOrigins restricts which page origins may open beacon
	// sessions: a request whose Origin header's host neither equals an
	// entry nor is a subdomain of one is refused with 403. Empty admits
	// all origins (ad iframes are cross-origin by design).
	AllowedOrigins []string
	// MaxSessions caps concurrent beacon sessions; 0 disables.
	MaxSessions int
	// MaxMessageSize bounds beacon messages (default 16 KiB).
	MaxMessageSize int64
	// HandshakeTimeout bounds the wait for a session's initial payload
	// (default 10s).
	HandshakeTimeout time.Duration
	// KeepAliveInterval pings idle beacon sessions and trunks; a peer
	// that stops answering within two intervals is torn down. Default
	// 30s; negative disables.
	KeepAliveInterval time.Duration
	// MaxExposure caps a session's lifetime (default 30 minutes).
	MaxExposure time.Duration

	// BatchBytes flushes a trunk's pending batch at this size (default
	// 32 KiB); BatchAge when its oldest frame has waited this long
	// (default 50ms).
	BatchBytes int
	BatchAge   time.Duration

	// QueueHigh/QueueLow are the per-session forward-queue watermarks
	// (defaults 64/16): reads stall at high and resume at low —
	// backpressure into the client's TCP window instead of memory.
	QueueHigh int
	QueueLow  int

	// SpillLimit bounds unacknowledged commits held across upstream
	// outages, summed over every shard (default 65536); at the cap new
	// sessions are shed rather than promised acks that may not be kept.
	SpillLimit int
	// AckTimeout re-sends a commit its upstream has not acked (default
	// 5s); ReplayInterval is the spill scan period (default 1s).
	AckTimeout     time.Duration
	ReplayInterval time.Duration

	// BreakerThreshold consecutive failed dials open a trunk's breaker
	// (default 3); BreakerCooldown is the open period (default 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// RetryAfterHint is the reconnect delay handed to shed or drained
	// clients (default 2s).
	RetryAfterHint time.Duration

	// Logger receives operational events; defaults to slog.Default().
	Logger *slog.Logger
	// Telemetry is the registry the engine's instruments register on;
	// nil creates a private one.
	Telemetry *telemetry.Registry
}

// role is what tells the engine's two deployments apart from outside.
// The constructor fixes it; it is never configured.
type role struct {
	name     string // log and error prefix, shed body, metric family stem
	idPrefix string // prefix of a generated RouterID
	// sharded selects per-shard telemetry (shard_id labels), a shard
	// list in /healthz and the /trunk relay endpoint. A gateway has one
	// unlabelled upstream and relays nothing.
	sharded bool
}

var (
	routerRole  = role{name: "router", idPrefix: "rt-", sharded: true}
	gatewayRole = role{name: "gateway", idPrefix: "gw-"}
)

// Router terminates beacon sessions (and, in the router role, gateway
// trunks) and forwards them onto per-shard trunk pools.
type Router struct {
	cfg      Config
	role     role
	log      *slog.Logger
	reg      *telemetry.Registry
	tel      engineTelemetry
	upgrader wsproto.Upgrader

	pools []*shardPool

	draining  atomic.Bool
	sessMu    sync.Mutex
	sessConns map[*wsproto.Conn]struct{}
	sessWG    sync.WaitGroup

	// streamID numbers engine-originated streams (beacon sessions and
	// relayed gateway commits alike); stream 0 is never used.
	streamID atomic.Uint64

	// relays maps router streams of trunk-relayed sessions back to
	// their origin gateway connection and stream, so shard acks can be
	// forwarded; relayByOrigin dedups gateway replays of the same
	// commit onto one router stream.
	relayMu       sync.Mutex
	relays        map[uint64]*relayEntry
	relayByOrigin map[string]uint64

	// opens maps a gateway's origin stream (gatewayID/stream) to the
	// router stream and shard fixed at Open time, so advisory Events can
	// follow their Open even when the gateway round-robins the two
	// frames onto different trunk connections. Two generations bound the
	// memory when gateways die without committing.
	opensMu sync.Mutex
	opens   gen2.Map[string, relayOpen]

	stopCh    chan struct{}
	stopOnce  sync.Once
	runnersWG sync.WaitGroup
}

// relayEntry is the return path for one trunk-relayed stream.
type relayEntry struct {
	origin       *wsproto.Conn
	originStream uint64
	originKey    string
	shard        int
}

// New validates cfg and returns a started sharded router: every shard
// pool's trunk runners and replay loop are live. Callers own serving
// HTTP (see Server) and must Close the router when done.
func New(cfg Config) (*Router, error) {
	return start(cfg, routerRole)
}

// NewGateway validates cfg and returns a started edge gateway: the
// engine with cfg.Shards' single collector as its one upstream, no
// relay endpoint, adaudit_gateway_* metrics and a gw- ID.
func NewGateway(cfg Config) (*Router, error) {
	if len(cfg.Shards) > 1 {
		return nil, fmt.Errorf("gateway: config lists %d upstreams, want one collector", len(cfg.Shards))
	}
	return start(cfg, gatewayRole)
}

func start(cfg Config, ro role) (*Router, error) {
	if len(cfg.Shards) == 0 || slices.Contains(cfg.Shards, "") {
		return nil, fmt.Errorf("%s: config requires an upstream trunk URL", ro.name)
	}
	if cfg.RouterID == "" {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("%s: generating id: %w", ro.name, err)
		}
		cfg.RouterID = ro.idPrefix + hex.EncodeToString(b[:])
	}
	if cfg.TrunksPerShard <= 0 {
		cfg.TrunksPerShard = 2
	}
	if cfg.MaxMessageSize == 0 {
		cfg.MaxMessageSize = 16 << 10
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	switch {
	case cfg.KeepAliveInterval == 0:
		cfg.KeepAliveInterval = 30 * time.Second
	case cfg.KeepAliveInterval < 0:
		cfg.KeepAliveInterval = 0
	}
	if cfg.MaxExposure == 0 {
		cfg.MaxExposure = 30 * time.Minute
	}
	if cfg.BatchBytes == 0 {
		cfg.BatchBytes = 32 << 10
	}
	if cfg.BatchAge == 0 {
		cfg.BatchAge = 50 * time.Millisecond
	}
	if cfg.QueueHigh == 0 {
		cfg.QueueHigh = 64
	}
	if cfg.QueueLow == 0 || cfg.QueueLow >= cfg.QueueHigh {
		cfg.QueueLow = cfg.QueueHigh / 4
	}
	if cfg.SpillLimit == 0 {
		cfg.SpillLimit = 1 << 16
	}
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.ReplayInterval == 0 {
		cfg.ReplayInterval = time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.RetryAfterHint == 0 {
		cfg.RetryAfterHint = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Router{
		cfg:  cfg,
		role: ro,
		log:  cfg.Logger,
		reg:  reg,
		upgrader: wsproto.Upgrader{
			MaxMessageSize:    cfg.MaxMessageSize,
			EnableCompression: true,
		},
		sessConns:     map[*wsproto.Conn]struct{}{},
		relays:        map[uint64]*relayEntry{},
		relayByOrigin: map[string]uint64{},
		opens:         gen2.New[string, relayOpen](relayOpenLimit),
		stopCh:        make(chan struct{}),
	}
	r.tel = newEngineTelemetry(r)
	for i, u := range cfg.Shards {
		p := newShardPool(r, i, u)
		r.pools = append(r.pools, p)
		for _, t := range p.trunks {
			r.runnersWG.Add(1)
			go t.run()
		}
		r.runnersWG.Add(1)
		go p.replayLoop()
	}
	return r, nil
}

// Telemetry returns the engine's metrics registry.
func (r *Router) Telemetry() *telemetry.Registry { return r.reg }

// SessionCount returns the number of live beacon sessions and gateway
// trunks terminated here.
func (r *Router) SessionCount() int {
	r.sessMu.Lock()
	defer r.sessMu.Unlock()
	return len(r.sessConns)
}

// poolFor returns the shard pool owning a session key.
func (r *Router) poolFor(key string) *shardPool {
	return r.pools[shardmerge.ShardFor(key, len(r.pools))]
}

// spillPending sums unacknowledged commits across every shard pool.
func (r *Router) spillPending() int {
	n := 0
	for _, p := range r.pools {
		n += p.spillPending()
	}
	return n
}

// shed refuses the request with 503 and the Retry-After hint.
func (r *Router) shed(w http.ResponseWriter, reason string) {
	r.tel.sheds.With(reason).Inc()
	w.Header().Set("Retry-After",
		strconv.Itoa(int((r.cfg.RetryAfterHint+time.Second-1)/time.Second)))
	http.Error(w, r.role.name+" "+reason, http.StatusServiceUnavailable)
}

// originAllowed applies the admission allowlist to an Origin header.
func (r *Router) originAllowed(origin string) bool {
	if len(r.cfg.AllowedOrigins) == 0 {
		return true
	}
	if origin == "" {
		return false
	}
	host := origin
	if u, err := url.Parse(origin); err == nil && u.Hostname() != "" {
		host = u.Hostname()
	}
	for _, allowed := range r.cfg.AllowedOrigins {
		if strings.EqualFold(host, allowed) ||
			strings.HasSuffix(strings.ToLower(host), "."+strings.ToLower(allowed)) {
			return true
		}
	}
	return false
}

// ServeHTTP is the beacon endpoint: admission control, WebSocket
// upgrade, then the session protocol (first message is the impression
// payload, "ev:" messages are interaction updates, the connection
// lifetime measures exposure). The session's shard is decided the
// moment its payload, and thus its nonce, is known.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch {
	case r.draining.Load():
		r.shed(w, ShedDraining)
		return
	case r.cfg.MaxSessions > 0 && r.SessionCount() >= r.cfg.MaxSessions:
		r.shed(w, ShedCapacity)
		return
	case r.spillPending() >= r.cfg.SpillLimit:
		// An upstream has been unreachable long enough to fill the spill
		// buffer; admitting more sessions would promise acks that may
		// not be kept.
		r.shed(w, ShedSpill)
		return
	case !r.originAllowed(req.Header.Get("Origin")):
		r.tel.sheds.With(ShedOrigin).Inc()
		http.Error(w, "origin not allowed", http.StatusForbidden)
		return
	}
	conn, err := r.upgrader.Upgrade(w, req)
	if err != nil {
		r.log.Debug(r.role.name+": handshake rejected", "err", err, "remote", req.RemoteAddr)
		return
	}
	r.tel.connections.Add(1)
	// Session messages are decoded or copied before the next read, so
	// the frame buffer can recycle.
	conn.ReuseReadBuffer()
	if !r.trackSession(conn) {
		_ = conn.Close(wsproto.CloseServiceRestart, r.drainCloseReason())
		return
	}
	go func() {
		defer r.untrackSession(conn)
		r.runSession(conn)
	}()
}

// trackSession registers conn for Drain's sweep, or reports false once
// draining has begun. Drain sets the flag under the same lock, so every
// accepted connection is either swept or refused.
func (r *Router) trackSession(conn *wsproto.Conn) bool {
	r.sessMu.Lock()
	defer r.sessMu.Unlock()
	if r.draining.Load() {
		return false
	}
	r.sessWG.Add(1)
	r.sessConns[conn] = struct{}{}
	r.tel.sessionsActive.Add(1)
	return true
}

func (r *Router) untrackSession(conn *wsproto.Conn) {
	r.sessMu.Lock()
	delete(r.sessConns, conn)
	r.sessMu.Unlock()
	r.tel.sessionsActive.Add(-1)
	r.sessWG.Done()
}

// drainCloseReason is the close-frame reason drained clients receive:
// the resumable 1012 code plus the backoff floor the beacon client
// parses.
func (r *Router) drainCloseReason() string {
	return "draining retry-after=" + r.cfg.RetryAfterHint.String()
}

// stageOffset computes a trace stage offset relative to the beacon's
// stamped send time, clamped like the collector's trace adoption.
func stageOffset(sentUnixNanos int64, at time.Time) time.Duration {
	off := at.Sub(time.Unix(0, sentUnixNanos))
	if off < 0 {
		return 0
	}
	if off > maxStageSkew {
		return maxStageSkew
	}
	return off
}

// runSession drives one beacon connection end to end: payload
// handshake, shard selection by nonce, keepalive, event collection, and
// the commit handoff into the owning shard's spill/forward pipeline.
func (r *Router) runSession(conn *wsproto.Conn) {
	remote := conn.RemoteAddr().String()
	if host, _, ok := strings.Cut(remote, ":"); ok {
		remote = host
	}
	if strings.HasPrefix(remote, "[") { // IPv6 [addr]:port
		remote = strings.Trim(remote, "[]")
	}
	connectedAt := time.Now()

	_ = conn.SetReadDeadline(connectedAt.Add(r.cfg.HandshakeTimeout))
	op, msg, err := conn.ReadMessage()
	if err != nil || !op.IsData() {
		_ = conn.Close(wsproto.ClosePolicyViolation, "no payload")
		return
	}
	recvAt := time.Now()
	// The first message's opcode selects the session wire, mirroring
	// the collector's negotiation. Trunk frames re-encode as text either
	// way: the collector ingests both identically.
	var payload beacon.Payload
	if op == wsproto.OpBinary {
		payload, err = beacon.DecodeBinary(msg)
	} else {
		payload, err = beacon.Decode(string(msg))
	}
	if err != nil {
		r.log.Debug(r.role.name+": bad payload", "err", err, "remote", remote)
		_ = conn.Close(wsproto.ClosePolicyViolation, "bad payload")
		return
	}
	// The nonce is both the replay-dedup key and the shard key: a commit
	// replayed against a restarted collector merges by nonce instead of
	// double-counting, and client retries carrying it land on the same
	// shard. A nonce-less payload gets one minted before routing.
	if payload.Nonce == "" {
		payload.Nonce = beacon.NewNonce()
	}
	pool := r.poolFor(payload.Nonce)
	stream := r.streamID.Add(1)

	// Engine-leg trace stages, measured against the beacon's stamped
	// send time (only meaningful for sampled payloads).
	traced := payload.TraceID != "" && payload.TraceSent > 0
	var hopRecv time.Duration
	if traced {
		hopRecv = stageOffset(payload.TraceSent, recvAt)
	}

	// The forward queue decouples this session's reads from its shard's
	// trunk health; the high watermark stalls reads into the client's
	// TCP window rather than growing memory.
	q := newSessionQueue(r.cfg.QueueHigh, r.cfg.QueueLow)
	defer q.close()
	var fwdWG sync.WaitGroup
	fwdWG.Add(1)
	go func() {
		defer fwdWG.Done()
		pool.forwardLoop(q)
	}()
	q.push(trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Open, Stream: stream,
		RemoteIP:    remote,
		ConnectedAt: connectedAt.UnixNano(),
		Payload:     payload.Encode(),
	}))

	// Keepalive and exposure-cap deadlines, the collector's discipline
	// applied at this hop.
	hardStop := connectedAt.Add(r.cfg.MaxExposure)
	renewDeadline := func() {
		if r.draining.Load() {
			return
		}
		d := hardStop
		if ka := r.cfg.KeepAliveInterval; ka > 0 {
			if soft := time.Now().Add(2 * ka); soft.Before(d) {
				d = soft
			}
		}
		_ = conn.SetReadDeadline(d)
	}
	conn.SetPongHandler(func([]byte) { renewDeadline() })
	renewDeadline()
	if ka := r.cfg.KeepAliveInterval; ka > 0 {
		stopPings := make(chan struct{})
		defer close(stopPings)
		go keepAlive(conn, ka, stopPings)
	}

	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			break
		}
		renewDeadline()
		var e beacon.Event
		var isEvent bool
		if op == wsproto.OpBinary {
			e, isEvent, err = beacon.DecodeBinaryEventUpdate(msg)
		} else {
			e, isEvent, err = beacon.DecodeEventUpdate(string(msg))
		}
		if err != nil {
			r.log.Debug(r.role.name+": bad event update", "err", err, "remote", remote)
			continue
		}
		if isEvent {
			r.tel.events.Add(1)
			payload.Events = append(payload.Events, e)
			var evText string
			if op == wsproto.OpBinary {
				evText = beacon.EncodeEventUpdate(e)
			} else {
				evText = string(msg)
			}
			q.push(trunk.AppendFrame(nil, trunk.Frame{
				Type: trunk.Event, Stream: stream, Payload: evText,
			}))
		}
	}
	// Stop forwarding advisory frames before building the commit, so
	// the commit is the last word on this stream.
	q.close()
	fwdWG.Wait()

	exposure := time.Since(connectedAt)
	if exposure > r.cfg.MaxExposure {
		exposure = r.cfg.MaxExposure
	}
	var stages []trunk.Stage
	if traced {
		stages = []trunk.Stage{
			{Name: trace.StageGatewayRecv, Offset: hopRecv},
			{Name: trace.StageTrunkForward, Offset: stageOffset(payload.TraceSent, time.Now())},
		}
	}
	commit := trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Commit, Stream: stream,
		RemoteIP:    remote,
		ConnectedAt: connectedAt.UnixNano(),
		Exposure:    exposure,
		Payload:     payload.Encode(),
		Stages:      stages,
	})
	// Spill before closing the client: once the commit is in the shard
	// pool's spill buffer the replay loop guarantees delivery, so the
	// close handshake the client treats as its ack is never a lie.
	pool.spillCommit(stream, commit)

	if r.draining.Load() {
		_ = conn.Close(wsproto.CloseServiceRestart, r.drainCloseReason())
	} else {
		_ = conn.Close(wsproto.CloseNormal, "")
	}
}

// keepAlive pings conn every interval until stop closes or a ping
// fails.
func keepAlive(conn *wsproto.Conn, interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			err := conn.Ping(nil)
			_ = conn.SetWriteDeadline(time.Time{})
			if err != nil {
				return
			}
		}
	}
}

// TrunkHealth counts one upstream's trunk connections.
type TrunkHealth struct {
	TrunksTotal   int `json:"trunks_total"`
	TrunksHealthy int `json:"trunks_healthy"`
}

// ShardHealth is one shard's slice of a router's /healthz body.
type ShardHealth struct {
	ShardID int `json:"shard_id"`
	TrunkHealth
	SpillPending int `json:"spill_pending"`
}

// HealthStatus is the /healthz body. A router reports its ID and a
// per-shard breakdown; a gateway, with one upstream, reports its ID and
// that upstream's trunk counts inline.
type HealthStatus struct {
	// Status is "ok" (every trunk of every upstream up), "degraded"
	// (every upstream reachable but some trunks down), or "unhealthy"
	// (some upstream has no healthy trunk: its slice of the keyspace is
	// spilling and nothing can re-home it, because ownership is the
	// hash, not the topology).
	Status    string `json:"status"`
	GatewayID string `json:"gateway_id,omitempty"`
	RouterID  string `json:"router_id,omitempty"`
	// *TrunkHealth is set for a gateway only.
	*TrunkHealth
	Shards       []ShardHealth `json:"shards,omitempty"`
	Sessions     int           `json:"sessions"`
	SpillPending int           `json:"spill_pending"`
	Draining     bool          `json:"draining"`
}

// Health reports the engine's degradation level.
func (r *Router) Health() HealthStatus {
	h := HealthStatus{
		Sessions: r.SessionCount(),
		Draining: r.draining.Load(),
	}
	allUp, anyDead := true, false
	for _, p := range r.pools {
		sh := ShardHealth{
			ShardID:      p.id,
			TrunkHealth:  TrunkHealth{TrunksTotal: len(p.trunks), TrunksHealthy: p.healthyTrunks()},
			SpillPending: p.spillPending(),
		}
		if sh.TrunksHealthy < sh.TrunksTotal {
			allUp = false
		}
		if sh.TrunksHealthy == 0 {
			anyDead = true
		}
		h.SpillPending += sh.SpillPending
		h.Shards = append(h.Shards, sh)
	}
	if r.role.sharded {
		h.RouterID = r.cfg.RouterID
	} else {
		h.GatewayID = r.cfg.RouterID
		h.TrunkHealth, h.Shards = &h.Shards[0].TrunkHealth, nil
	}
	switch {
	case anyDead:
		h.Status = "unhealthy"
	case allUp:
		h.Status = "ok"
	default:
		h.Status = "degraded"
	}
	return h
}

// Drain sheds new sessions, forces live ones to commit and hands them
// back with a resumable close (1012 + retry-after), then waits up to
// grace for every spill buffer to empty. It returns the number of
// commits still unacknowledged when the grace expired — 0 means every
// impression acked to a client reached its collector.
func (r *Router) Drain(grace time.Duration) int {
	// Send the resumable close ourselves: unblocking the session's read
	// with a bare deadline would make wsproto auto-close with a protocol
	// error before runSession could speak. Closing the transport is what
	// breaks the read loop; the commit still happens after it.
	r.sessMu.Lock()
	r.draining.Store(true)
	for conn := range r.sessConns {
		_ = conn.Close(wsproto.CloseServiceRestart, r.drainCloseReason())
	}
	r.sessMu.Unlock()

	deadline := time.Now().Add(grace)
	done := make(chan struct{})
	go func() {
		r.sessWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		r.log.Warn(r.role.name+": drain grace expired with sessions still open",
			"sessions", r.SessionCount())
	}
	for r.spillPending() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return r.spillPending()
}

// Close stops every pool's trunk runners and replay loop and closes
// every trunk connection. Pending spill entries are abandoned; call
// Drain first for a zero-loss shutdown.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	for _, p := range r.pools {
		for _, t := range p.trunks {
			t.closeConn()
		}
	}
	r.runnersWG.Wait()
}
