package router

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

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/wsproto"
)

const testTrunkToken = "trunk-secret"

// shardFixture is n live collector shards for a router to front.
type shardFixture struct {
	colls  []*collector.Collector
	stores []*store.Store
	srvs   []*collector.Server
	stops  []func()
}

// startShards boots n collectors, each with its own store, trunk token
// and server. mut customises each shard's collector config; srvOpts
// supplies per-shard server options (e.g. a live audit engine).
func startShards(t *testing.T, n int, mut func(i int, cfg *collector.Config),
	srvOpts func(i int, c *collector.Collector, st *store.Store) []collector.ServerOption) *shardFixture {
	t.Helper()
	f := &shardFixture{}
	for i := 0; i < n; i++ {
		st := store.New()
		cfg := collector.Config{
			Store:             st,
			Anonymizer:        ipmeta.NewAnonymizer([]byte("rt-test")),
			TrunkToken:        testTrunkToken,
			KeepAliveInterval: 50 * time.Millisecond,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		c, err := collector.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var opts []collector.ServerOption
		if srvOpts != nil {
			opts = srvOpts(i, c, st)
		}
		srv, err := collector.NewServer(c, "127.0.0.1:0", opts...)
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
				t.Fatal("shard collector server did not stop")
			}
		}
		t.Cleanup(stop)
		f.colls = append(f.colls, c)
		f.stores = append(f.stores, st)
		f.srvs = append(f.srvs, srv)
		f.stops = append(f.stops, stop)
	}
	return f
}

func (f *shardFixture) trunkURLs() []string {
	urls := make([]string, len(f.srvs))
	for i, s := range f.srvs {
		urls[i] = fmt.Sprintf("ws://%s/trunk", s.Addr())
	}
	return urls
}

func (f *shardFixture) baseURLs() []string {
	urls := make([]string, len(f.srvs))
	for i, s := range f.srvs {
		urls[i] = fmt.Sprintf("http://%s", s.Addr())
	}
	return urls
}

// totalLen sums the shard stores.
func (f *shardFixture) totalLen() int {
	n := 0
	for _, st := range f.stores {
		n += st.Len()
	}
	return n
}

// assertPlacement checks every stored impression sits on the shard its
// nonce hashes to — the router's core routing invariant.
func (f *shardFixture) assertPlacement(t *testing.T) {
	t.Helper()
	for i, st := range f.stores {
		st.ForEach(func(im store.Impression) bool {
			if im.Nonce == "" {
				t.Errorf("shard %d: impression %d stored without nonce", i, im.ID)
				return true
			}
			if want := shardmerge.ShardFor(im.Nonce, len(f.stores)); want != i {
				t.Errorf("nonce %q on shard %d, hash owns shard %d", im.Nonce, i, want)
			}
			return true
		})
	}
}

// fastRouterConfig returns a router Config tuned for test time scales.
func fastRouterConfig(shardURLs []string) Config {
	return Config{
		Shards:            shardURLs,
		TrunkToken:        testTrunkToken,
		RouterID:          "rt-test",
		KeepAliveInterval: 50 * time.Millisecond,
		BatchAge:          10 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerCooldown:   50 * time.Millisecond,
		RetryAfterHint:    2 * time.Second,
	}
}

// startRouter builds and serves a router; the cleanup closes it.
func startRouter(t *testing.T, cfg Config, opts ...ServerOption) (*Router, *Server) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]ServerOption{WithDrainGrace(time.Second)}, opts...)
	srv, err := NewServer(r, "127.0.0.1:0", opts...)
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
			t.Fatal("router server did not stop")
		}
	})
	return r, srv
}

// allTrunksUp reports whether every shard pool has its full trunk
// complement established.
func allTrunksUp(r *Router) bool {
	for _, p := range r.pools {
		if p.healthyTrunks() != len(p.trunks) {
			return false
		}
	}
	return true
}

// severableDialer records every trunk connection it opens and, once
// armed, refuses new dials: a severed trunk's redial then fails and its
// breaker holds the slot down, instead of the slot coming straight
// back on a successful redial.
type severableDialer struct {
	mu    sync.Mutex
	conns map[string][]net.Conn
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
		if d.conns == nil {
			d.conns = map[string][]net.Conn{}
		}
		d.conns[addr] = append(d.conns[addr], c)
		d.mu.Unlock()
	}
	return c, err
}

// sever arms the dialer and cuts the first connection it opened to addr.
func (d *severableDialer) sever(addr string) {
	d.armed.Store(true)
	d.mu.Lock()
	c := d.conns[addr][0]
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
		CampaignID: "Router-001",
		CreativeID: fmt.Sprintf("cr-%d", i),
		PageURL:    fmt.Sprintf("http://pub%d.es/page", i%3),
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
		Nonce:      beacon.NewNonce(),
	}
}

// TestRouterEndToEnd pushes sessions through the full sharded path —
// client → router → shard trunks → N collectors — and checks every
// impression lands on exactly the shard its nonce hashes to, with
// events and exposure intact, and that every pool's spill buffer drains
// on the acks.
func TestRouterEndToEnd(t *testing.T) {
	const shards, sessions = 3, 24
	f := startShards(t, shards, nil, nil)
	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()))
	waitFor(t, 5*time.Second, "all shard trunks to establish", func() bool { return allTrunksUp(r) })

	client := &beacon.Client{CollectorURL: rsrv.BeaconURL()}
	ctx := context.Background()
	payloads := make([]beacon.Payload, sessions)
	for i := range payloads {
		payloads[i] = testPayload(i)
		sess, err := client.Open(ctx, payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 10*time.Second, "all impressions to reach their shards",
		func() bool { return f.totalLen() == sessions })
	f.assertPlacement(t)

	// The hash must actually spread the workload: with 24 random nonces
	// on 3 shards, an empty shard means the partition function is not
	// being consulted.
	for i, st := range f.stores {
		if st.Len() == 0 {
			t.Errorf("shard %d received no impressions out of %d", i, sessions)
		}
	}
	// Per-impression integrity survived the extra hop.
	seen := map[string]bool{}
	for _, st := range f.stores {
		st.ForEach(func(im store.Impression) bool {
			seen[im.Nonce] = true
			if im.Clicks != 1 {
				t.Errorf("nonce %q: clicks = %d, want 1", im.Nonce, im.Clicks)
			}
			return true
		})
	}
	for _, p := range payloads {
		if !seen[p.Nonce] {
			t.Errorf("nonce %q never landed on any shard", p.Nonce)
		}
	}
	waitFor(t, 5*time.Second, "spill buffers to drain", func() bool { return r.spillPending() == 0 })
	var acks uint64
	for _, p := range r.pools {
		acks += uint64(p.tel.acks.Load())
	}
	if acks != sessions {
		t.Fatalf("summed shard acks = %d, want %d", acks, sessions)
	}
	// Events are advisory and may flush a batch-age behind their commit,
	// so parity is eventual.
	waitFor(t, 5*time.Second, "advisory events to reach their shards", func() bool {
		var events int64
		for _, c := range f.colls {
			events += c.Metrics.Events.Load()
		}
		return events == sessions
	})
}

// TestRouterSynthesizesNonce: the nonce is both the replay key and the
// shard key, so a nonce-less payload gets one minted before routing.
func TestRouterSynthesizesNonce(t *testing.T) {
	f := startShards(t, 2, nil, nil)
	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return allTrunksUp(r) })

	client := &beacon.Client{CollectorURL: rsrv.BeaconURL()}
	p := testPayload(0)
	p.Nonce = ""
	if err := client.Report(context.Background(), p, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "impression to land", func() bool { return f.totalLen() == 1 })
	f.assertPlacement(t)
}

// TestRouterTrunkRelay fronts the router with a real gateway: the
// gateway trunks into /trunk believing the router is its collector, the
// router re-streams each commit onto the owning shard, and the shard's
// ack flows back so the gateway's spill drains. The full edge topology
// — client → gateway → router → shard — with zero protocol changes at
// either neighbor.
func TestRouterTrunkRelay(t *testing.T) {
	const shards, sessions = 2, 10
	f := startShards(t, shards, nil, nil)
	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()))
	waitFor(t, 5*time.Second, "shard trunks to establish", func() bool { return allTrunksUp(r) })

	g, err := NewGateway(Config{
		Shards:            []string{rsrv.TrunkURL()},
		TrunkToken:        testTrunkToken,
		RouterID:          "gw-relay-test",
		KeepAliveInterval: 50 * time.Millisecond,
		BatchAge:          10 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerCooldown:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gsrv, err := NewServer(g, "127.0.0.1:0", WithDrainGrace(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	gctx, gcancel := context.WithCancel(context.Background())
	gdone := make(chan struct{})
	go func() {
		defer close(gdone)
		_ = gsrv.Serve(gctx)
	}()
	t.Cleanup(func() {
		gcancel()
		select {
		case <-gdone:
		case <-time.After(10 * time.Second):
			t.Fatal("gateway server did not stop")
		}
	})
	waitFor(t, 5*time.Second, "gateway trunks to reach the router", func() bool {
		return g.Health().TrunksHealthy == g.Health().TrunksTotal
	})
	if got := r.tel.relayTrunks.Load(); got < 1 {
		t.Fatalf("relay trunks gauge = %v, want >= 1", got)
	}

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	ctx := context.Background()
	for i := 0; i < sessions; i++ {
		sess, err := client.Open(ctx, testPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 10*time.Second, "all relayed impressions to reach their shards",
		func() bool { return f.totalLen() == sessions })
	f.assertPlacement(t)
	// The relayed acks must travel the whole way back: shard → router
	// spill → gateway spill.
	waitFor(t, 5*time.Second, "router spill to drain", func() bool { return r.spillPending() == 0 })
	waitFor(t, 5*time.Second, "gateway spill to drain", func() bool { return g.Health().SpillPending == 0 })
	waitFor(t, 5*time.Second, "relayed advisory events to reach their shards", func() bool {
		var events int64
		for _, c := range f.colls {
			events += c.Metrics.Events.Load()
		}
		return events == sessions
	})
}

// TestRouterHealthLadder walks /healthz through the sharded degradation
// ladder: all trunks up → ok; one trunk of one shard down → degraded
// (200, the shard is still reachable); a whole shard unreachable →
// unhealthy (503), because that shard's keyspace slice has nowhere else
// to go.
func TestRouterHealthLadder(t *testing.T) {
	f := startShards(t, 2, nil, nil)
	cfg := fastRouterConfig(f.trunkURLs())
	cfg.TrunksPerShard = 2
	// A severed trunk's redials are refused, and with a threshold of one
	// and a long cooldown its breaker keeps the slot down for the rest
	// of the test.
	dialer := &severableDialer{}
	cfg.Dialer.NetDial = dialer.dial
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = 30 * time.Second
	r, rsrv := startRouter(t, cfg)
	base := fmt.Sprintf("http://%s/healthz", rsrv.Addr())

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

	waitFor(t, 5*time.Second, "all trunks up", func() bool { return allTrunksUp(r) })
	if code, st := getHealth(); code != http.StatusOK || st.Status != "ok" || len(st.Shards) != 2 {
		t.Fatalf("healthz with all trunks = %d %+v, want 200 ok with 2 shards", code, st)
	}

	dialer.sever(f.srvs[0].Addr().String())
	waitFor(t, 5*time.Second, "one trunk down", func() bool { return r.pools[0].healthyTrunks() == 1 })
	if code, st := getHealth(); code != http.StatusOK || st.Status != "degraded" {
		t.Fatalf("healthz with one trunk down = %d %+v, want 200 degraded", code, st)
	}

	// Take shard 0 away entirely: its slice of the keyspace is stuck.
	f.stops[0]()
	waitFor(t, 5*time.Second, "shard 0 trunks down", func() bool { return r.pools[0].healthyTrunks() == 0 })
	code, st := getHealth()
	if code != http.StatusServiceUnavailable || st.Status != "unhealthy" {
		t.Fatalf("healthz with a dead shard = %d %+v, want 503 unhealthy", code, st)
	}
	if st.Shards[0].TrunksHealthy != 0 || st.Shards[1].TrunksHealthy == 0 {
		t.Fatalf("per-shard health = %+v, want shard 0 dead and shard 1 alive", st.Shards)
	}
}

// TestRouterDrainHandsSessionsBack: Drain sheds new work, closes live
// sessions with the resumable 1012 code and a parseable retry-after
// reason, and flushes every shard's spill buffer before returning.
func TestRouterDrainHandsSessionsBack(t *testing.T) {
	f := startShards(t, 2, nil, nil)
	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return allTrunksUp(r) })

	ctx := context.Background()
	d := &wsproto.Dialer{}
	conn, _, err := d.Dial(ctx, rsrv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteText(testPayload(2).Encode()); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteText(beacon.EncodeEventUpdate(beacon.Event{Kind: beacon.EventClick, At: 5 * time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "payload handshake to finish", func() bool { return r.tel.events.Load() == 1 })

	drained := make(chan int, 1)
	go func() { drained <- r.Drain(5 * time.Second) }()

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
	if left := <-drained; left != 0 {
		t.Fatalf("drain left %d commits unflushed", left)
	}
	waitFor(t, 5*time.Second, "drained commit to land", func() bool { return f.totalLen() == 1 })

	_, resp, err := d.Dial(ctx, rsrv.BeaconURL())
	if err == nil {
		t.Fatal("draining router admitted a session")
	}
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain shed response = %+v, want 503", resp)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed missing Retry-After header")
	}
}

// listenerAddr pins a free port without serving, for tests that need a
// guaranteed-dead shard address.
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

// TestRouterShedsWhenSpillFull: SpillLimit counts across every shard's
// spill; at the cap admission flips to shedding rather than promising
// acks the router cannot keep.
func TestRouterShedsWhenSpillFull(t *testing.T) {
	cfg := fastRouterConfig([]string{"ws://" + listenerAddr(t) + "/trunk"})
	cfg.SpillLimit = 1
	r, rsrv := startRouter(t, cfg)

	client := &beacon.Client{CollectorURL: rsrv.BeaconURL()}
	if err := client.Report(context.Background(), testPayload(5), 10*time.Millisecond); err != nil {
		t.Fatalf("first session should be acked into the spill: %v", err)
	}
	waitFor(t, 2*time.Second, "commit to spill", func() bool { return r.spillPending() == 1 })
	d := &wsproto.Dialer{}
	_, resp, err := d.Dial(context.Background(), rsrv.BeaconURL())
	if err == nil {
		t.Fatal("router with a full spill admitted a session")
	}
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("spill shed response = %+v, want 503", resp)
	}
	if got := r.tel.sheds.With(ShedSpill).Load(); got != 1 {
		t.Fatalf("spill sheds = %v, want 1", got)
	}
}

// TestRouterMergedLiveAPI: shards run live streamaudit engines, the
// router server aggregates them — /api/live/export serves the
// shard-order merge and /api/live/summary answers over it, with counts
// matching the union of the shard stores.
func TestRouterMergedLiveAPI(t *testing.T) {
	const shards, sessions = 2, 12
	uni, err := publisher.NewUniverse(publisher.Config{Seed: 5, NumPublishers: 120})
	if err != nil {
		t.Fatal(err)
	}
	meta := audit.UniverseMetadata{Universe: uni}
	keywords := map[string][]string{}
	for _, c := range adnet.PaperCampaigns() {
		keywords[c.ID] = c.Keywords
	}
	f := startShards(t, shards, nil,
		func(i int, c *collector.Collector, st *store.Store) []collector.ServerOption {
			eng, err := streamaudit.New(streamaudit.Config{
				Store:    st,
				Meta:     meta,
				Keywords: keywords,
			})
			if err != nil {
				t.Fatal(err)
			}
			return []collector.ServerOption{collector.WithLiveAudit(eng)}
		})

	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()),
		WithLiveMerge(&shardmerge.Client{Shards: f.baseURLs()},
			streamaudit.StaticConfig{Meta: meta, Keywords: keywords}))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return allTrunksUp(r) })

	// Real campaign IDs and universe publishers, so the live engines
	// fold metadata the same way a production shard would.
	campaigns := adnet.PaperCampaigns()
	client := &beacon.Client{CollectorURL: rsrv.BeaconURL()}
	ctx := context.Background()
	for i := 0; i < sessions; i++ {
		p := beacon.Payload{
			CampaignID: campaigns[i%len(campaigns)].ID,
			CreativeID: fmt.Sprintf("cr-%d", i),
			PageURL:    fmt.Sprintf("http://%s/page", uni.At(i%uni.Len()).Domain),
			UserAgent:  "Mozilla/5.0 Chrome/49.0",
			Nonce:      beacon.NewNonce(),
		}
		if err := client.Report(ctx, p, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "all impressions to land", func() bool { return f.totalLen() == sessions })
	f.assertPlacement(t)

	// The merged export must union exactly the shard stores.
	resp, err := http.Get(fmt.Sprintf("http://%s/api/live/export", rsrv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merged export status = %d, want 200", resp.StatusCode)
	}
	var exp streamaudit.Export
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: meta, Keywords: keywords}, &exp)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range eng.Summaries() {
		total += s.Impressions
	}
	if total != sessions {
		t.Fatalf("merged export impressions = %d, want %d", total, sessions)
	}

	// And the router's own summary endpoint answers over the same
	// merged state.
	resp2, err := http.Get(fmt.Sprintf("http://%s/api/live/summary", rsrv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("merged summary status = %d, want 200", resp2.StatusCode)
	}
	var sums []streamaudit.CampaignLive
	if err := json.NewDecoder(resp2.Body).Decode(&sums); err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, s := range sums {
		total += s.Impressions
	}
	if total != sessions {
		t.Fatalf("merged summary impressions = %d, want %d", total, sessions)
	}
}

// TestSessionQueueWatermarks pins the hysteresis contract: pushes stall
// at the high watermark and resume only once drained to low.
func TestSessionQueueWatermarks(t *testing.T) {
	q := newSessionQueue(4, 1)
	for i := 0; i < 4; i++ {
		if !q.push([]byte{byte(i)}) {
			t.Fatal("push refused below watermark")
		}
	}
	blocked := make(chan bool, 1)
	go func() { blocked <- q.push([]byte{99}) }()
	select {
	case <-blocked:
		t.Fatal("push past high watermark did not stall")
	case <-time.After(50 * time.Millisecond):
	}
	// Draining one frame (len 3 > low) must not wake the pusher.
	if f, ok := q.pop(); !ok || f[0] != 0 {
		t.Fatalf("pop = %v %v", f, ok)
	}
	select {
	case <-blocked:
		t.Fatal("pusher woke before the low watermark")
	case <-time.After(50 * time.Millisecond):
	}
	// Draining to the low watermark releases it.
	q.pop()
	q.pop()
	if ok := <-blocked; !ok {
		t.Fatal("released push reported closed")
	}
	q.close()
	// A closed queue still drains its backlog, then reports done.
	got := 0
	for {
		if _, ok := q.pop(); !ok {
			break
		}
		got++
	}
	if got != 2 { // frames 3 and 99 remained
		t.Fatalf("drained %d frames after close, want 2", got)
	}
	if q.push([]byte{1}) {
		t.Fatal("push succeeded on closed queue")
	}
}
