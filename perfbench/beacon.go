package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaudit"
	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/gateway"
	"adaudit/internal/ipmeta"
	"adaudit/internal/router"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

// chainShards is beacon-chain's collector shard count.
const chainShards = 2

// trunkToken is the shared secret of the chained topology's trunks.
const trunkToken = "perfbench-trunk"

// roundSessions is a beacon round's size: big enough that a round's
// report reads a representative sample of the dataset and its p99 has
// 160 samples beyond it, small enough for several rounds per run.
const roundSessions = 16000

// reportReads is how many times a round re-reads the full report after
// its load, for report_ms and the allocation metrics.
const reportReads = 5

// session is one beacon session replayed from a dataset impression.
type session struct {
	p      beacon.Payload
	src    netip.Addr
	binary bool
}

// buildSessions turns a seeded sample of the dataset into beacon
// sessions: the impression's campaign, creative, page, UA and its
// mouse/click events at offset 0, a nonce from the impression ID, the
// wire alternating by nonce, and a loopback source address hashed from
// the user key, so per-user state sees the dataset's users and
// loopback 4-tuples do not run out.
func buildSessions(st *store.Store, seed int64, n int) []session {
	all := impressions(st)
	if n > len(all) {
		n = len(all)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(all))[:n]
	out := make([]session, n)
	for i, j := range perm {
		im := all[j]
		events := make([]beacon.Event, 0, im.MouseMoves+im.Clicks)
		for k := 0; k < im.MouseMoves; k++ {
			events = append(events, beacon.Event{Kind: beacon.EventMouseMove})
		}
		for k := 0; k < im.Clicks; k++ {
			events = append(events, beacon.Event{Kind: beacon.EventClick})
		}
		out[i] = session{
			p: beacon.Payload{
				CampaignID: im.CampaignID,
				CreativeID: im.CreativeID,
				PageURL:    im.PageURL,
				UserAgent:  im.UserAgent,
				Nonce:      fmt.Sprintf("perfbench-%d", im.ID),
				Events:     events,
			},
			src:    userAddr(im.UserKey),
			binary: im.ID%2 == 1,
		}
	}
	return out
}

// userAddr maps a user key onto an address in 127.0.0.0/8.
func userAddr(key string) netip.Addr {
	h := fnv.New32a()
	h.Write([]byte(key))
	v := h.Sum32()
	return netip.AddrFrom4([4]byte{127, byte(v >> 16), byte(v >> 8), byte(1 + v%254)})
}

type srcKey struct{}

// dialFrom is the beacon clients' NetDial: it binds the source address
// the session's context carries.
func dialFrom(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	if src, ok := ctx.Value(srcKey{}).(netip.Addr); ok {
		d.LocalAddr = net.TCPAddrFromAddrPort(netip.AddrPortFrom(src, 0))
	}
	return d.DialContext(ctx, network, addr)
}

// topology is one running deployment: a single collector, or a gateway
// in front of a router in front of chainShards collectors. Every
// collector journals to a write-ahead log (SyncOS, auditd's default)
// and runs a live streaming-audit engine.
type topology struct {
	stores    []*store.Store
	engines   []*streamaudit.Engine
	beaconURL string
	merge     *shardmerge.Client
	gw        *gateway.Gateway
	rt        *router.Router
	// stops tears the servers down, front tier first.
	stops []func()
	wals  []*store.WAL
}

// startTopology brings a topology up and waits until its trunks are
// established. pr, when non-nil, wraps every listener and trunk dial
// with the traced run's counters.
func startTopology(chain bool, meta audit.MetadataSource, dir string, pr *probes) (t *topology, err error) {
	t = &topology{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	keywords := map[string][]string{}
	for _, c := range adnet.PaperCampaigns() {
		keywords[c.ID] = c.Keywords
	}
	n := 1
	if chain {
		n = chainShards
	}
	var shardAddrs []string
	for i := 0; i < n; i++ {
		st := store.New()
		wal, err := store.OpenWAL(filepath.Join(dir, fmt.Sprintf("shard-%d.wal", i)), store.WALOptions{Policy: store.SyncOS})
		if err != nil {
			return t, err
		}
		t.wals = append(t.wals, wal)
		st.AttachWAL(wal)
		coll, err := collector.New(collector.Config{
			Store:      st,
			Anonymizer: ipmeta.NewAnonymizer([]byte(fmt.Sprintf("perfbench-shard-%d", i))),
			TrunkToken: trunkToken,
		})
		if err != nil {
			return t, err
		}
		eng, err := streamaudit.New(streamaudit.Config{Store: st, Meta: meta, Keywords: keywords, Telemetry: coll.Telemetry()})
		if err != nil {
			return t, err
		}
		opts := []collector.ServerOption{collector.WithLiveAudit(eng)}
		if pr != nil {
			ln, err := pr.collector.listen()
			if err != nil {
				return t, err
			}
			opts = append(opts, collector.WithListener(ln))
		}
		srv, err := collector.NewServer(coll, "127.0.0.1:0", opts...)
		if err != nil {
			return t, err
		}
		t.serve(srv.Serve)
		t.stores = append(t.stores, st)
		t.engines = append(t.engines, eng)
		shardAddrs = append(shardAddrs, srv.Addr().String())
		t.beaconURL = srv.BeaconURL()
	}
	if !chain {
		return t, nil
	}

	var trunks, apis []string
	for _, a := range shardAddrs {
		trunks = append(trunks, "ws://"+a+"/trunk")
		apis = append(apis, "http://"+a)
	}
	t.merge = &shardmerge.Client{Shards: apis}
	rcfg := router.Config{Shards: trunks, TrunkToken: trunkToken}
	var ropts []router.ServerOption
	if pr != nil {
		rcfg.Dialer.WrapConn = pr.shardTrunk.wrap
		ln, err := pr.router.listen()
		if err != nil {
			return t, err
		}
		ropts = append(ropts, router.WithListener(ln))
	}
	if t.rt, err = router.New(rcfg); err != nil {
		return t, err
	}
	rsrv, err := router.NewServer(t.rt, "127.0.0.1:0", ropts...)
	if err != nil {
		return t, err
	}
	t.serve(rsrv.Serve)

	gcfg := gateway.Config{CollectorURL: rsrv.TrunkURL(), TrunkToken: trunkToken}
	var gopts []gateway.ServerOption
	if pr != nil {
		gcfg.Dialer.WrapConn = pr.gwTrunk.wrap
		ln, err := pr.gateway.listen()
		if err != nil {
			return t, err
		}
		gopts = append(gopts, gateway.WithListener(ln))
	}
	if t.gw, err = gateway.New(gcfg); err != nil {
		return t, err
	}
	gsrv, err := gateway.NewServer(t.gw, "127.0.0.1:0", gopts...)
	if err != nil {
		return t, err
	}
	t.serve(gsrv.Serve)
	t.beaconURL = gsrv.BeaconURL()

	deadline := time.Now().Add(10 * time.Second)
	for t.rt.Health().Status != "ok" || t.gw.Health().Status != "ok" {
		if time.Now().After(deadline) {
			return t, fmt.Errorf("chained topology trunks never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return t, nil
}

// serve runs a server until the topology closes.
func (t *topology) serve(serve func(context.Context) error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = serve(ctx)
	}()
	t.stops = append(t.stops, func() { cancel(); <-done })
}

// close stops every server, front tier first, and closes the logs.
func (t *topology) close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	for _, w := range t.wals {
		_ = w.Close()
		_ = os.Remove(w.Path())
	}
}

func (t *topology) applied() (n int64) {
	for _, e := range t.engines {
		n += e.Applied()
	}
	return n
}

// union is the shard-order combination of the shard stores that
// adsim -shards audits as the reference.
func (t *topology) union() (*store.Store, error) {
	if len(t.stores) == 1 {
		return t.stores[0], nil
	}
	combined := store.New()
	for _, s := range t.stores {
		for _, im := range impressions(s) {
			if _, err := combined.Insert(im); err != nil {
				return nil, err
			}
		}
	}
	return combined, nil
}

// report produces the full audit report a user reads: the live
// engine's on a single collector, the merged shard exports' on a chain.
func (t *topology) report(meta audit.MetadataSource, inputs []audit.CampaignInput) (*audit.FullReport, error) {
	if t.merge == nil {
		return t.engines[0].Report(inputs)
	}
	merged, err := t.merge.FetchMerged(context.Background())
	if err != nil {
		return nil, err
	}
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: meta}, merged)
	if err != nil {
		return nil, err
	}
	return eng.Report(inputs)
}

// round is the outcome of one round of load. Its slices are sized
// before the round's heap baseline so they do not count as retained
// state.
type round struct {
	sessions series  // Client.Report durations, ms
	closes   []int64 // ns since the round started, sorted
	applied  []point // Σ Engine.Applied over the shards
	acked    []string
	failed   int
	// load is the time until the last session closed; caughtUp until
	// the live audit had applied the last one.
	load, caughtUp time.Duration

	// Traced rounds only.
	open, closeCall series  // Client.Open and Session.Close, us
	published       []int64 // feed publish times, ns since start, sorted
	backlog         int64   // max Σ (FeedSeq - Applied)
	gwSpill         int
	rtSpill         int
}

func newRound(n int) *round {
	return &round{
		sessions: make(series, 0, n),
		closes:   make([]int64, 0, n),
		applied:  make([]point, 0, n),
		acked:    make([]string, 0, n),
	}
}

// clientOut is one closed-loop client's share of a round.
type clientOut struct {
	sessions, open, closeCall series
	closes                    []int64
	acked                     []string
	failed                    int
}

// runRound replays every session through t with the given number of
// closed-loop clients, each starting its next session when its last
// one has closed, and waits until the live audit has applied them all.
// The applied curve is read whenever Engine.Listen signals a change.
func runRound(t *topology, rd *round, sessions []session, clients int, pr *probes) error {
	start := time.Now()
	var mu sync.Mutex
	record := func() {
		mu.Lock()
		if n := t.applied(); len(rd.applied) == 0 || n > rd.applied[len(rd.applied)-1].n {
			rd.applied = append(rd.applied, point{t: int64(time.Since(start)), n: n})
		}
		mu.Unlock()
	}
	var listeners sync.WaitGroup
	stopListen := make(chan struct{})
	for _, e := range t.engines {
		u := e.Listen()
		listeners.Add(1)
		go func(e *streamaudit.Engine, u *streamaudit.Updates) {
			defer listeners.Done()
			defer e.Unlisten(u)
			for {
				select {
				case <-stopListen:
					return
				case <-u.C():
					u.Take()
					record()
				}
			}
		}(e, u)
	}
	var pollStop, pollDone chan struct{}
	var subs []*store.FeedSub
	var readers sync.WaitGroup
	if pr != nil {
		pollStop, pollDone = make(chan struct{}), make(chan struct{})
		go pollTopology(t, rd, start, pollStop, pollDone)
		// A subscriber of its own on each shard's change feed reads the
		// moment each commit was published. Its buffer holds a whole
		// round, so it is never dropped.
		for _, st := range t.stores {
			sub := st.Subscribe(len(sessions)+store.DefaultFeedBuffer, nil, nil)
			subs = append(subs, sub)
			readers.Add(1)
			go func() {
				defer readers.Done()
				wall := start.UnixNano()
				for ev := range sub.Events() {
					mu.Lock()
					rd.published = append(rd.published, ev.PublishedAt-wall)
					mu.Unlock()
				}
			}()
		}
	}

	var next atomic.Int64
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	for c := range outs {
		out := &outs[c]
		n := len(sessions)/clients + 1
		out.sessions, out.closes, out.acked = make(series, 0, n), make([]int64, 0, n), make([]string, 0, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := &beacon.Client{CollectorURL: t.beaconURL}
			bin := &beacon.Client{CollectorURL: t.beaconURL, Wire: beacon.WireBinary}
			for _, cl := range []*beacon.Client{text, bin} {
				cl.Dialer.NetDial = dialFrom
				if pr != nil {
					cl.Dialer.NetDial = pr.dial
					cl.Dialer.WrapConn = pr.client.wrap
				}
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sessions) {
					return
				}
				s := &sessions[i]
				cl := text
				if s.binary {
					cl = bin
				}
				ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), srcKey{}, s.src), 30*time.Second)
				t0 := time.Now()
				var err error
				if pr == nil {
					err = cl.Report(ctx, s.p, 0)
				} else {
					err = tracedReport(ctx, cl, s.p, out)
				}
				t1 := time.Now()
				cancel()
				if err != nil {
					out.failed++
					continue
				}
				out.sessions = append(out.sessions, ms(t1.Sub(t0)))
				out.closes = append(out.closes, int64(t1.Sub(start)))
				out.acked = append(out.acked, s.p.Nonce)
			}
		}()
	}
	wg.Wait()
	for i := range outs {
		rd.sessions = append(rd.sessions, outs[i].sessions...)
		rd.closes = append(rd.closes, outs[i].closes...)
		rd.acked = append(rd.acked, outs[i].acked...)
		rd.open = append(rd.open, outs[i].open...)
		rd.closeCall = append(rd.closeCall, outs[i].closeCall...)
		rd.failed += outs[i].failed
	}
	sort.Slice(rd.closes, func(i, j int) bool { return rd.closes[i] < rd.closes[j] })
	if len(rd.closes) > 0 {
		rd.load = time.Duration(rd.closes[len(rd.closes)-1])
	}

	want := int64(len(rd.acked))
	deadline := time.Now().Add(30 * time.Second)
	for t.applied() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stopListen)
	listeners.Wait()
	if pr != nil {
		close(pollStop)
		<-pollDone
		for _, sub := range subs {
			sub.Close()
		}
		readers.Wait()
		sort.Slice(rd.published, func(i, j int) bool { return rd.published[i] < rd.published[j] })
	}
	record()
	last := rd.applied[len(rd.applied)-1]
	if last.n < want {
		return fmt.Errorf("live audit applied %d of %d acknowledged sessions within 30s", last.n, want)
	}
	rd.caughtUp = time.Duration(last.t)
	return nil
}

// tracedReport is Client.Report with exposure 0 split at the layer
// boundaries: Open (dial, upgrade, payload), the events, and Close.
func tracedReport(ctx context.Context, cl *beacon.Client, p beacon.Payload, out *clientOut) error {
	events := p.Events
	p.Events = nil
	t0 := time.Now()
	sess, err := cl.Open(ctx, p)
	out.open = append(out.open, us(time.Since(t0)))
	if err != nil {
		return err
	}
	for _, e := range events {
		if err := sess.SendEvent(e); err != nil {
			_ = sess.Close()
			return err
		}
	}
	t0 = time.Now()
	err = sess.Close()
	out.closeCall = append(out.closeCall, us(time.Since(t0)))
	return err
}

// pollPeriod is the traced run's sampling period of the feed backlog
// and the forwarding tiers' spill.
const pollPeriod = time.Millisecond

// pollTopology samples the feed backlog Σ (FeedSeq - Applied) and the
// gateway's and router's spill until stopped.
func pollTopology(t *topology, rd *round, start time.Time, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(pollPeriod)
	defer tick.Stop()
	for {
		var backlog int64
		for i, s := range t.stores {
			backlog += s.FeedSeq() - t.engines[i].Applied()
		}
		rd.backlog = max(rd.backlog, backlog)
		if t.gw != nil {
			rd.gwSpill = max(rd.gwSpill, t.gw.Health().SpillPending)
			rd.rtSpill = max(rd.rtSpill, t.rt.Health().SpillPending)
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// checkPlacement checks that every acknowledged nonce is stored exactly
// once, on the shard shardmerge.ShardFor assigns it, and that nothing
// else is stored. It returns the number of sessions that break it.
func (t *topology) checkPlacement(acked []string) (bad int, detail string) {
	seen := map[string]int{}
	misplaced := 0
	for i, s := range t.stores {
		s.ForEach(func(im store.Impression) bool {
			seen[im.Nonce]++
			if shardmerge.ShardFor(im.Nonce, len(t.stores)) != i {
				misplaced++
			}
			return true
		})
	}
	missing, dup := 0, 0
	for _, n := range acked {
		switch seen[n] {
		case 0:
			missing++
		case 1:
		default:
			dup++
		}
		delete(seen, n)
	}
	extra := len(seen)
	return missing + dup + misplaced + extra, fmt.Sprintf("%d acked: %d missing, %d duplicated, %d misplaced, %d unacknowledged",
		len(acked), missing, dup, misplaced, extra)
}

// roundStats are the end-to-end samples of one round.
type roundStats struct {
	load, batch    time.Duration
	rate, retained float64
	visible        series
	reads          []reportRead
}

// measureRound runs one round on a fresh topology, reads the report,
// and checks the outputs. A traced round (pr non-nil) also records the
// per-layer samples into lr. It returns nil stats, with the failure
// recorded in r, when the round could not complete its load or report.
func measureRound(cfg config, chain bool, meta audit.MetadataSource, sessions []session, pr *probes, lr *layerSamples, r *results) (*roundStats, error) {
	t, err := startTopology(chain, meta, cfg.dir, pr)
	if err != nil {
		return nil, err
	}
	defer t.close()
	rd := newRound(len(sessions))
	base := liveHeap()
	err = runRound(t, rd, sessions, runtime.NumCPU(), pr)
	r.attempted += len(sessions)
	r.failed += rd.failed
	if err != nil {
		r.failed += len(sessions) - rd.failed
		r.check("beacon.applied", false, err.Error())
		return nil, nil
	}
	st := &roundStats{
		load:     rd.load,
		rate:     float64(len(rd.acked)) / rd.load.Seconds(),
		retained: liveHeap() - base,
		visible:  countLags(rd.closes, rd.applied),
	}
	if pr != nil {
		lr.add(t, rd, pr)
	}

	union, err := t.union()
	if err != nil {
		return nil, err
	}
	inputs := shardedAuditInputs(union)
	var got *audit.FullReport
	for i := 0; i <= reportReads; i++ {
		rep, err := timedRead(func() (err error) {
			got, err = t.report(meta, inputs)
			return err
		})
		r.attempted++
		if err != nil {
			r.failed++
			r.check("beacon.report", false, err.Error())
			return nil, nil
		}
		if i == 0 {
			// The first read completes the round's batch: load, drain
			// and one full report.
			st.batch = rd.caughtUp + rep.d
		} else {
			st.reads = append(st.reads, rep)
		}
	}

	bad, detail := t.checkPlacement(rd.acked)
	r.failed += bad
	r.check("beacon.exactly_once_on_shard", bad == 0, detail)
	aud, err := audit.New(union, meta)
	if err != nil {
		return nil, err
	}
	want, err := aud.FullAuditSerial(inputs)
	if err != nil {
		return nil, err
	}
	same := reflect.DeepEqual(got, want)
	if !same {
		r.failed += reportReads + 1
	}
	r.check("beacon.report_equals_batch", same, fmt.Sprintf("%d impressions over %d shards", union.Len(), len(t.stores)))
	var resyncs, drops int64
	for i, e := range t.engines {
		resyncs += e.Resyncs()
		drops += t.stores[i].FeedDrops()
	}
	r.check("beacon.no_resyncs", resyncs == 0 && drops == 0, fmt.Sprintf("%d resyncs, %d feed drops", resyncs, drops))
	if pr != nil {
		lr.resyncs += resyncs
		lr.drops += drops
		if err := lr.addReports(t, meta, inputs); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// runBeacon runs beacon-direct (chain false) or beacon-chain: set-up,
// one warm-up round on a quarter of the sessions, then timed rounds of
// every session, each on a fresh topology, until the load has run for
// the run length. A traced run alternates untraced and traced rounds.
func runBeacon(cfg config, r *results, chain bool) error {
	n := setups
	if cfg.trace {
		n = 1 // a traced run reports no setup_s
	}
	var e endToEndSamples
	var ws *adaudit.Workspace
	for i := 0; i < n; i++ {
		start := time.Now()
		var err error
		if ws, err = adaudit.NewWorkspace(adaudit.Options{Seed: cfg.seed}); err == nil {
			_, err = ws.Run(adnet.PaperCampaigns())
		}
		if err != nil {
			return err
		}
		t, err := startTopology(chain, audit.UniverseMetadata{Universe: ws.Publishers}, cfg.dir, nil)
		if err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(start).Seconds())
		t.close()
	}
	meta := audit.UniverseMetadata{Universe: ws.Publishers}
	sessions := buildSessions(ws.Store, cfg.seed, roundSessions)
	ws = nil // the replayed sessions and the metadata are all the load needs

	if _, err := measureRound(cfg, chain, meta, sessions[:max(1, len(sessions)/4)], nil, nil, r); err != nil {
		return err
	}
	var untracedRate, tracedRate series
	lr := &layerSamples{}
	var load time.Duration
	for n := 0; n < 2 || load < cfg.seconds; n++ {
		var pr *probes
		if cfg.trace && n%2 == 1 {
			pr = &probes{}
		}
		st, err := measureRound(cfg, chain, meta, sessions, pr, lr, r)
		if err != nil {
			return err
		}
		if st == nil {
			break // the round failed a check; the run is already incorrect
		}
		load += st.load
		if pr != nil {
			tracedRate = append(tracedRate, st.rate)
			continue
		}
		untracedRate = append(untracedRate, st.rate)
		e.addRound(st.batch, st.rate, st.retained, st.visible)
		e.addReads(st.reads)
	}
	if !cfg.trace {
		e.record(r)
		return nil
	}
	if len(tracedRate) > 0 && len(untracedRate) > 0 {
		// Time per session traced over time per session untraced.
		tr, _ := tracedRate.quantile(0.5)
		ur, _ := untracedRate.quantile(0.5)
		r.set("trace.overhead_ratio", ur/tr, len(tracedRate)+len(untracedRate))
	}
	if lr.impressions == 0 {
		r.check("beacon.traced_round", false, "no traced round completed")
		return nil
	}
	lr.record(r, chain)
	return nil
}

// shardedAuditInputs synthesizes per-campaign vendor reports from a
// store the way adsim -shards does, so the live-versus-batch
// comparison audits a report that agrees with the store by
// construction and audit equality is the only thing under test.
func shardedAuditInputs(st *store.Store) []audit.CampaignInput {
	type pubCount struct{ impressions, clicks int64 }
	perCampaign := map[string]map[string]*pubCount{}
	st.ForEach(func(im store.Impression) bool {
		pubs := perCampaign[im.CampaignID]
		if pubs == nil {
			pubs = map[string]*pubCount{}
			perCampaign[im.CampaignID] = pubs
		}
		pc := pubs[im.Publisher]
		if pc == nil {
			pc = &pubCount{}
			pubs[im.Publisher] = pc
		}
		pc.impressions++
		pc.clicks += int64(im.Clicks)
		return true
	})
	ids := make([]string, 0, len(perCampaign))
	for id := range perCampaign {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	inputs := make([]audit.CampaignInput, 0, len(ids))
	for _, id := range ids {
		rep := &adnet.VendorReport{CampaignID: id}
		var total int64
		for pub, pc := range perCampaign[id] {
			rep.Rows = append(rep.Rows, adnet.ReportRow{Publisher: pub, Impressions: pc.impressions, Clicks: pc.clicks})
			total += pc.impressions
		}
		sort.Slice(rep.Rows, func(a, b int) bool {
			if rep.Rows[a].Impressions != rep.Rows[b].Impressions {
				return rep.Rows[a].Impressions > rep.Rows[b].Impressions
			}
			return rep.Rows[a].Publisher < rep.Rows[b].Publisher
		})
		rep.TotalImpressionsCharged = total
		rep.ContextualImpressions = total * 2 / 3
		rep.RefundedImpressions = total / 10
		inputs = append(inputs, audit.CampaignInput{ID: id, Report: rep})
	}
	return inputs
}
