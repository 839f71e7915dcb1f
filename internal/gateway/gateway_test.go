package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
	"adaudit/internal/trace"
	"adaudit/internal/wsproto"
)

const testTrunkToken = "trunk-secret"

// testCollector builds a collector suitable for fronting with a
// gateway: trunk endpoint guarded by testTrunkToken, fast keepalive.
func testCollector(t *testing.T, mut func(*collector.Config)) (*collector.Collector, *store.Store) {
	t.Helper()
	st := store.New()
	cfg := collector.Config{
		Store:             st,
		Anonymizer:        ipmeta.NewAnonymizer([]byte("gw-test")),
		TrunkToken:        testTrunkToken,
		KeepAliveInterval: 50 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := collector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

// startCollectorServer serves c on addr ("127.0.0.1:0" for a free
// port); stop shuts it down gracefully and may be called once.
func startCollectorServer(t *testing.T, c *collector.Collector, addr string) (*collector.Server, func()) {
	t.Helper()
	srv, err := collector.NewServer(c, addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx)
	}()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("collector server did not stop")
		}
	}
	t.Cleanup(stop)
	return srv, stop
}

// fastConfig returns a gateway Config tuned for test time scales.
func fastConfig(trunkURL string) Config {
	return Config{
		CollectorURL:      trunkURL,
		TrunkToken:        testTrunkToken,
		GatewayID:         "gw-test",
		KeepAliveInterval: 50 * time.Millisecond,
		BatchAge:          10 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerCooldown:   50 * time.Millisecond,
		RetryAfterHint:    2 * time.Second,
	}
}

// startGateway builds and serves a gateway; the cleanup closes it.
func startGateway(t *testing.T, cfg Config) (*Gateway, *Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(g, "127.0.0.1:0", WithDrainGrace(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("gateway server did not stop")
		}
	})
	return g, srv
}

func trunkURL(srv *collector.Server) string {
	return fmt.Sprintf("ws://%s/trunk", srv.Addr())
}

// healthyTrunks and spillPending read the gateway's /healthz numbers.
func healthyTrunks(g *Gateway) int { return g.Health().TrunksHealthy }
func spillPending(g *Gateway) int  { return g.Health().SpillPending }

// metric reads one adaudit_gateway_* series from the gateway's registry.
func metric(t *testing.T, g *Gateway, name string, labels map[string]string) int64 {
	t.Helper()
	s, ok := g.Telemetry().Find("adaudit_gateway_"+name, labels)
	if !ok {
		t.Fatalf("metric adaudit_gateway_%s%v not registered", name, labels)
	}
	return int64(s.Value)
}

// sheds reads the admission shed counter for one reason.
func sheds(t *testing.T, g *Gateway, reason string) int64 {
	t.Helper()
	return metric(t, g, "sheds_total", map[string]string{"reason": reason})
}

// severableDialer records every trunk connection it opens and, once
// armed, refuses new dials: a severed trunk's redial then fails and its
// breaker holds the slot down, instead of the slot coming straight
// back on a successful redial.
type severableDialer struct {
	mu    sync.Mutex
	conns []net.Conn
	armed atomic.Bool
}

func (d *severableDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if d.armed.Load() {
		return nil, errors.New("dial refused: severed")
	}
	var nd net.Dialer
	c, err := nd.DialContext(ctx, network, addr)
	if err == nil {
		d.mu.Lock()
		d.conns = append(d.conns, c)
		d.mu.Unlock()
	}
	return c, err
}

// sever arms the dialer and cuts the first connection it opened.
func (d *severableDialer) sever() {
	d.armed.Store(true)
	d.mu.Lock()
	c := d.conns[0]
	d.mu.Unlock()
	c.Close()
}

func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testPayload(i int) beacon.Payload {
	return beacon.Payload{
		CampaignID: "Gateway-001",
		CreativeID: fmt.Sprintf("cr-%d", i),
		PageURL:    fmt.Sprintf("http://pub%d.es/page", i%3),
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
		Nonce:      beacon.NewNonce(),
	}
}

// TestGatewayEndToEnd pushes one beacon session through the full edge
// path — client → gateway → trunk → collector — and checks the
// impression lands with its events, exposure, and nonce intact, and
// that the gateway's spill buffer drains to empty on the ack.
func TestGatewayEndToEnd(t *testing.T) {
	c, st := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	g, gsrv := startGateway(t, fastConfig(trunkURL(csrv)))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return healthyTrunks(g) == g.Health().TrunksTotal })

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	p := testPayload(0)
	ctx := context.Background()
	sess, err := client.Open(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "impression to reach the collector", func() bool { return st.Len() == 1 })
	im, _ := st.Get(1)
	if im.CampaignID != "Gateway-001" || im.Publisher != "pub0.es" {
		t.Fatalf("record = %+v", im)
	}
	if im.Clicks != 1 {
		t.Fatalf("clicks = %d, want 1", im.Clicks)
	}
	if im.Exposure < 40*time.Millisecond {
		t.Fatalf("exposure = %v, want >= hold duration", im.Exposure)
	}
	if im.Nonce != p.Nonce {
		t.Fatalf("nonce = %q, want %q", im.Nonce, p.Nonce)
	}
	waitFor(t, 5*time.Second, "spill buffer to drain", func() bool { return spillPending(g) == 0 })
	if got := metric(t, g, "acks_total", nil); got != 1 {
		t.Fatalf("acks = %v, want 1", got)
	}
	// The gateway's one pool shares the engine's unlabelled series, so
	// a commit must be counted once, not once per layer.
	if got := metric(t, g, "commits_total", nil); got != 1 {
		t.Fatalf("commits = %v, want 1", got)
	}
	if got := c.Metrics.Events.Load(); got != 1 {
		t.Fatalf("collector events metric = %d, want 1 (direct-path parity)", got)
	}
}

// TestGatewaySynthesizesNonce: a nonce-less payload must still be
// replay-safe across a collector restart, so the gateway mints one.
func TestGatewaySynthesizesNonce(t *testing.T) {
	c, st := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	g, gsrv := startGateway(t, fastConfig(trunkURL(csrv)))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return healthyTrunks(g) > 0 })

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	p := testPayload(0)
	p.Nonce = ""
	if err := client.Report(context.Background(), p, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "impression to land", func() bool { return st.Len() == 1 })
	im, _ := st.Get(1)
	if im.Nonce == "" {
		t.Fatal("gatewayed impression stored without a nonce")
	}
}

// TestGatewayOriginAdmission covers the allowlist: bare host and
// subdomain origins are admitted, others are refused with 403 before
// the upgrade.
func TestGatewayOriginAdmission(t *testing.T) {
	c, _ := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	cfg := fastConfig(trunkURL(csrv))
	cfg.AllowedOrigins = []string{"ads.example.com"}
	g, gsrv := startGateway(t, cfg)
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return healthyTrunks(g) > 0 })

	dialWithOrigin := func(origin string) (*wsproto.Conn, *http.Response, error) {
		d := &wsproto.Dialer{Header: http.Header{}}
		if origin != "" {
			d.Header.Set("Origin", origin)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return d.Dial(ctx, gsrv.BeaconURL())
	}

	for _, origin := range []string{"https://ads.example.com", "https://sub.ads.example.com:8443"} {
		conn, _, err := dialWithOrigin(origin)
		if err != nil {
			t.Fatalf("allowed origin %q refused: %v", origin, err)
		}
		conn.Close(wsproto.CloseNormal, "")
	}
	for _, origin := range []string{"https://evil.example.net", "https://notads.example.com.evil.io", ""} {
		_, resp, err := dialWithOrigin(origin)
		if err == nil {
			t.Fatalf("origin %q admitted, want 403", origin)
		}
		if resp == nil || resp.StatusCode != http.StatusForbidden {
			t.Fatalf("origin %q: response %+v, want 403", origin, resp)
		}
	}
	if got := sheds(t, g, ShedOrigin); got != 3 {
		t.Fatalf("origin sheds = %v, want 3", got)
	}
}

// TestGatewayShedsAtCapacity: with MaxSessions reached, admission
// returns 503 with the Retry-After hint the beacon client honors as a
// backoff floor.
func TestGatewayShedsAtCapacity(t *testing.T) {
	c, _ := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	cfg := fastConfig(trunkURL(csrv))
	cfg.MaxSessions = 1
	g, gsrv := startGateway(t, cfg)
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return healthyTrunks(g) > 0 })

	ctx := context.Background()
	d := &wsproto.Dialer{}
	first, _, err := d.Dial(ctx, gsrv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close(wsproto.CloseNormal, "")
	waitFor(t, 2*time.Second, "first session tracked", func() bool { return g.SessionCount() == 1 })

	_, resp, err := d.Dial(ctx, gsrv.BeaconURL())
	if err == nil {
		t.Fatal("second session admitted past MaxSessions")
	}
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed response = %+v, want 503", resp)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q", got, "2")
	}
	if got := sheds(t, g, ShedCapacity); got != 1 {
		t.Fatalf("capacity sheds = %v, want 1", got)
	}
}

// TestGatewayRejectsWithoutTrunkToken: a gateway holding the wrong
// credential never establishes a trunk, trips its breaker, and reports
// unhealthy — misconfiguration is loud, not silent loss.
func TestGatewayRejectsWithoutTrunkToken(t *testing.T) {
	c, _ := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	cfg := fastConfig(trunkURL(csrv))
	cfg.TrunkToken = "wrong"
	g, _ := startGateway(t, cfg)

	waitFor(t, 5*time.Second, "breaker to open", func() bool { return metric(t, g, "breaker_opens_total", nil) >= 1 })
	if h := g.Health(); h.Status != "unhealthy" || h.TrunksHealthy != 0 {
		t.Fatalf("health = %+v, want unhealthy with zero trunks", h)
	}
}

// TestHealthzDegradationLadder walks /healthz through the three levels
// by breaking trunks: all up → ok (200), one up → degraded (200),
// none up → unhealthy (503).
func TestHealthzDegradationLadder(t *testing.T) {
	c, _ := testCollector(t, nil)
	csrv, stopCollector := startCollectorServer(t, c, "127.0.0.1:0")
	cfg := fastConfig(trunkURL(csrv))
	cfg.Trunks = 2
	// A severed trunk's redials are refused, and with a threshold of one
	// and a long cooldown its breaker keeps the slot down for the rest
	// of the test.
	dialer := &severableDialer{}
	cfg.Dialer.NetDial = dialer.dial
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = 30 * time.Second
	g, gsrv := startGateway(t, cfg)
	base := fmt.Sprintf("http://%s/healthz", gsrv.Addr())

	getHealth := func() (int, HealthStatus) {
		resp, err := http.Get(base)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st HealthStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	waitFor(t, 5*time.Second, "both trunks up", func() bool { return healthyTrunks(g) == 2 })
	if code, st := getHealth(); code != http.StatusOK || st.Status != "ok" {
		t.Fatalf("healthz with all trunks = %d %+v, want 200 ok", code, st)
	}

	// Break one trunk by severing its TCP connection; the breaker keeps
	// the slot down.
	dialer.sever()
	waitFor(t, 5*time.Second, "one trunk down", func() bool { return healthyTrunks(g) == 1 })
	if code, st := getHealth(); code != http.StatusOK || st.Status != "degraded" {
		t.Fatalf("healthz with one trunk = %d %+v, want 200 degraded", code, st)
	}

	// Take the collector away entirely: the survivor drops too.
	stopCollector()
	waitFor(t, 5*time.Second, "all trunks down", func() bool { return healthyTrunks(g) == 0 })
	if code, st := getHealth(); code != http.StatusServiceUnavailable || st.Status != "unhealthy" {
		t.Fatalf("healthz with no trunks = %d %+v, want 503 unhealthy", code, st)
	}
}

// TestGatewaySpillReplaysAcrossCollectorOutage is the zero-loss
// headline: a session commits while the collector is down, the client
// is acked from the spill buffer, and when the collector returns the
// commit replays through the nonce/stream-dedup path exactly once.
func TestGatewaySpillReplaysAcrossCollectorOutage(t *testing.T) {
	c, st := testCollector(t, nil)
	csrv, stopCollector := startCollectorServer(t, c, "127.0.0.1:0")
	collectorAddr := csrv.Addr().String()
	g, gsrv := startGateway(t, fastConfig(trunkURL(csrv)))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return healthyTrunks(g) > 0 })

	stopCollector()
	waitFor(t, 5*time.Second, "trunks to drop", func() bool { return healthyTrunks(g) == 0 })

	// The client's whole session happens during the outage; Report
	// returning nil is the gateway's promise.
	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	p := testPayload(1)
	if err := client.Report(context.Background(), p, 40*time.Millisecond); err != nil {
		t.Fatalf("client not acked during collector outage: %v", err)
	}
	// The close handshake the client just saw races the commit's spill
	// insert by microseconds; wait for it rather than sampling.
	waitFor(t, 2*time.Second, "commit to spill", func() bool { return spillPending(g) == 1 })
	if st.Len() != 0 {
		t.Fatal("impression reached a stopped collector?")
	}

	// Collector restarts on the same address with the surviving store
	// (its nonce cache reseeds from it in New).
	c2, err := collector.New(collector.Config{
		Store:             st,
		Anonymizer:        ipmeta.NewAnonymizer([]byte("gw-test")),
		TrunkToken:        testTrunkToken,
		KeepAliveInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	startCollectorServer(t, c2, collectorAddr)

	waitFor(t, 10*time.Second, "spilled commit to replay", func() bool { return st.Len() == 1 && spillPending(g) == 0 })
	im, _ := st.Get(1)
	if im.Nonce != p.Nonce {
		t.Fatalf("replayed nonce = %q, want %q", im.Nonce, p.Nonce)
	}
	if got := metric(t, g, "acks_total", nil); got != 1 {
		t.Fatalf("acks = %v, want 1", got)
	}
}

// TestGatewayDrainHandsSessionsBack: Drain sheds new work, closes live
// sessions with the resumable 1012 code and a parseable retry-after
// reason, and flushes the spill buffer before returning.
func TestGatewayDrainHandsSessionsBack(t *testing.T) {
	c, st := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	g, gsrv := startGateway(t, fastConfig(trunkURL(csrv)))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return healthyTrunks(g) > 0 })

	ctx := context.Background()
	d := &wsproto.Dialer{}
	conn, _, err := d.Dial(ctx, gsrv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteText(testPayload(2).Encode()); err != nil {
		t.Fatal(err)
	}
	// An acknowledged event proves the gateway finished the payload
	// handshake — draining before that would correctly close 1002.
	if err := conn.WriteText(beacon.EncodeEventUpdate(beacon.Event{Kind: beacon.EventClick, At: 5 * time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "payload handshake to finish", func() bool { return metric(t, g, "events_total", nil) == 1 })

	drained := make(chan int, 1)
	go func() { drained <- g.Drain(5 * time.Second) }()

	// The client's next read surfaces the drain close frame.
	var ce *wsproto.CloseError
	for {
		_, _, err := conn.ReadMessage()
		if err != nil {
			if !errors.As(err, &ce) {
				t.Fatalf("drain surfaced %v, want a close frame", err)
			}
			break
		}
	}
	if ce.Code != wsproto.CloseServiceRestart {
		t.Fatalf("drain close code = %d, want %d", ce.Code, wsproto.CloseServiceRestart)
	}
	if !strings.Contains(ce.Reason, "retry-after=") {
		t.Fatalf("drain close reason = %q, want a retry-after hint", ce.Reason)
	}

	left := <-drained
	if left != 0 {
		t.Fatalf("drain left %d commits unflushed", left)
	}
	// The mid-flight session's impression still landed: acked-to-client
	// is never a lie, even for a drain-truncated exposure.
	waitFor(t, 5*time.Second, "drained commit to land", func() bool { return st.Len() == 1 })

	// New admissions during/after drain are shed with 503.
	_, resp, err := d.Dial(ctx, gsrv.BeaconURL())
	if err == nil {
		t.Fatal("draining gateway admitted a session")
	}
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain shed response = %+v, want 503", resp)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed missing Retry-After header")
	}
}

// TestGatewayTraceSpans: a sampled impression traced through the
// gateway carries the two edge spans, spliced into the collector's
// pipeline stages.
func TestGatewayTraceSpans(t *testing.T) {
	rec := trace.NewRecorder(16)
	tracer := trace.NewTracer(rec, 1)
	c, st := testCollector(t, func(cfg *collector.Config) { cfg.Tracer = tracer })
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	g, gsrv := startGateway(t, fastConfig(trunkURL(csrv)))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return healthyTrunks(g) > 0 })

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL(), Tracer: tracer}
	if err := client.Report(context.Background(), testPayload(3), 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "impression to land", func() bool { return st.Len() == 1 })

	var snap trace.Snapshot
	waitFor(t, 5*time.Second, "trace to appear", func() bool {
		recent := rec.Recent(1)
		if len(recent) == 0 {
			return false
		}
		snap = recent[0]
		return len(snap.Stages) >= 5
	})
	names := make([]string, len(snap.Stages))
	for i, s := range snap.Stages {
		names[i] = s.Name
	}
	wantPrefix := []string{
		trace.StageBeaconSend, trace.StageWireRecv,
		trace.StageGatewayRecv, trace.StageTrunkForward, trace.StageDecode,
	}
	for i, want := range wantPrefix {
		if i >= len(names) || names[i] != want {
			t.Fatalf("stage sequence = %v, want prefix %v", names, wantPrefix)
		}
	}
	// The two edge spans bracket the session in causal order.
	if snap.StageOffset(trace.StageTrunkForward) < snap.StageOffset(trace.StageGatewayRecv) {
		t.Fatalf("trunk_forward (%v) precedes gateway_recv (%v)",
			snap.StageOffset(trace.StageTrunkForward), snap.StageOffset(trace.StageGatewayRecv))
	}
}

// TestGatewayBackpressureDropsAdvisoryNotCommits: with no healthy trunk
// the advisory stream is dropped but the commit still lands once the
// collector returns — the queue never blocks a session forever.
func TestGatewayBackpressureDropsAdvisoryNotCommits(t *testing.T) {
	c, st := testCollector(t, nil)
	csrv, stopCollector := startCollectorServer(t, c, "127.0.0.1:0")
	collectorAddr := csrv.Addr().String()
	cfg := fastConfig(trunkURL(csrv))
	cfg.QueueHigh = 4
	cfg.QueueLow = 1
	g, gsrv := startGateway(t, cfg)
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return healthyTrunks(g) > 0 })
	stopCollector()
	waitFor(t, 5*time.Second, "trunks to drop", func() bool { return healthyTrunks(g) == 0 })

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	p := testPayload(4)
	sess, err := client.Open(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := sess.SendEvent(beacon.Event{Kind: beacon.EventMouseMove, At: time.Duration(i) * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "advisory frames to be dropped", func() bool { return metric(t, g, "queue_drops_total", nil) > 0 })

	c2, err := collector.New(collector.Config{
		Store:             st,
		Anonymizer:        ipmeta.NewAnonymizer([]byte("gw-test")),
		TrunkToken:        testTrunkToken,
		KeepAliveInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	startCollectorServer(t, c2, collectorAddr)
	waitFor(t, 10*time.Second, "commit to replay", func() bool { return st.Len() == 1 })
	im, _ := st.Get(1)
	if im.MouseMoves != 32 {
		t.Fatalf("mouse moves = %d, want all 32 carried by the commit", im.MouseMoves)
	}
}

// listenerAddr pins a free port without serving, for tests that need a
// guaranteed-dead collector address.
func listenerAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestGatewayShedsWhenSpillFull: a full spill buffer (collector gone
// for too long) flips admission to shedding rather than promising acks
// the gateway cannot keep.
func TestGatewayShedsWhenSpillFull(t *testing.T) {
	cfg := fastConfig("ws://" + listenerAddr(t) + "/trunk")
	cfg.SpillLimit = 1
	g, gsrv := startGateway(t, cfg)

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	if err := client.Report(context.Background(), testPayload(5), 10*time.Millisecond); err != nil {
		t.Fatalf("first session should be acked into the spill: %v", err)
	}
	waitFor(t, 2*time.Second, "commit to spill", func() bool { return spillPending(g) == 1 })
	d := &wsproto.Dialer{}
	_, resp, err := d.Dial(context.Background(), gsrv.BeaconURL())
	if err == nil {
		t.Fatal("gateway with a full spill admitted a session")
	}
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("spill shed response = %+v, want 503", resp)
	}
	if got := sheds(t, g, ShedSpill); got != 1 {
		t.Fatalf("spill sheds = %v, want 1", got)
	}
}
