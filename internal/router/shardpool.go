package router

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// trunkMaxMessage mirrors the collector's trunk batch bound.
const trunkMaxMessage = 1 << 20

// trunkDialTimeout bounds one trunk connection attempt.
const trunkDialTimeout = 5 * time.Second

// shardPool is one upstream's side of the engine: a small pool of
// persistent trunk connections to that shard's collector, plus the
// spill buffer holding every commit hashed onto the shard until it
// durably acks. Pools are independent — one shard's outage spills only
// its own slice of the keyspace while the others keep flowing — and
// spill entries never migrate between pools, because shard ownership is
// the hash of the session key, not trunk availability.
type shardPool struct {
	r   *Router
	id  int
	url string
	tel poolTelemetry

	trunks []*trunkConn
	// gen counts trunk topology changes within this pool; a spill entry
	// sent under an older generation may have died with its trunk.
	gen atomic.Uint64
	// rr round-robins forwarders across the pool's healthy trunks.
	rr atomic.Uint64

	// spill holds every commit not yet acked, keyed by stream. Entries
	// survive trunk failures and collector restarts; the replay loop is
	// the only sender, so a commit cannot race its own retransmission.
	spillMu    sync.Mutex
	spill      map[uint64]*spillEntry
	replayWake chan struct{}
}

// spillEntry is one unacknowledged commit.
type spillEntry struct {
	frame []byte // encoded Commit frame, length-prefixed
	// sentGen is the pool generation at the last send (0 = never sent);
	// sentAt the send time. Both are owned by the pool's replay loop.
	sentGen  uint64
	sentAt   time.Time
	enqueued time.Time // first spill time, for the forward histogram
}

func newShardPool(r *Router, id int, url string) *shardPool {
	p := &shardPool{
		r:          r,
		id:         id,
		url:        url,
		spill:      map[uint64]*spillEntry{},
		replayWake: make(chan struct{}, 1),
	}
	p.tel = newPoolTelemetry(r, p)
	for i := 0; i < r.cfg.TrunksPerShard; i++ {
		p.trunks = append(p.trunks, &trunkConn{p: p, idx: i})
	}
	return p
}

func (p *shardPool) spillPending() int {
	p.spillMu.Lock()
	defer p.spillMu.Unlock()
	return len(p.spill)
}

// wakeReplay nudges the replay loop to run now.
func (p *shardPool) wakeReplay() {
	select {
	case p.replayWake <- struct{}{}:
	default:
	}
}

// spillCommit registers a commit for guaranteed delivery to this shard
// and nudges the replay loop to send it now.
func (p *shardPool) spillCommit(stream uint64, frame []byte) {
	p.r.tel.commits.Add(1)
	p.tel.commits.Add(1)
	p.spillMu.Lock()
	p.spill[stream] = &spillEntry{frame: frame, enqueued: time.Now()}
	p.spillMu.Unlock()
	p.wakeReplay()
}

// respillCommit re-registers a relayed commit only if its stream is not
// already spilled — the fold for a gateway replay of a commit the
// router still holds. No counter moves: the commit was counted when
// first spilled, and if the stream just resolved in the race window
// the re-spilled frame is absorbed by the shard's dedup.
func (p *shardPool) respillCommit(stream uint64, frame []byte) {
	p.spillMu.Lock()
	if _, ok := p.spill[stream]; ok {
		p.spillMu.Unlock()
		return
	}
	p.spill[stream] = &spillEntry{frame: frame, enqueued: time.Now()}
	p.spillMu.Unlock()
	p.wakeReplay()
}

// ackStream removes an acked commit from the spill buffer and resolves
// any trunk-relay return path waiting on this stream.
func (p *shardPool) ackStream(stream uint64) {
	p.spillMu.Lock()
	e, ok := p.spill[stream]
	if ok {
		delete(p.spill, stream)
	}
	p.spillMu.Unlock()
	if ok {
		p.tel.acks.Add(1)
		p.tel.forward.ObserveDuration(time.Since(e.enqueued))
	}
	p.r.relayResolve(stream, true, "")
}

// rejectStream drops a commit the shard refused permanently.
func (p *shardPool) rejectStream(stream uint64, reason string) {
	p.spillMu.Lock()
	_, ok := p.spill[stream]
	if ok {
		delete(p.spill, stream)
	}
	p.spillMu.Unlock()
	if ok {
		p.tel.rejects.Add(1)
		p.r.log.Warn(p.r.role.name+": collector rejected commit",
			"shard", p.id, "stream", stream, "reason", reason)
	}
	p.r.relayResolve(stream, false, reason)
}

// forwardLoop drains one session's queue onto the pool's healthy
// trunks. Advisory frames are droppable: with no healthy trunk they are
// discarded, since the accounting state travels self-contained in the
// commit. The session pins itself to one trunk while it stays healthy,
// so its Open and Events arrive in order on one connection — load still
// spreads because each session picks its own.
func (p *shardPool) forwardLoop(q *sessionQueue) {
	var t *trunkConn
	for {
		frame, ok := q.pop()
		if !ok {
			return
		}
		if t == nil || !t.isHealthy() {
			t = p.pickTrunk()
		}
		if t == nil || !t.enqueue(frame) {
			p.tel.queueDrops.Add(1)
		}
	}
}

// pickTrunk returns a healthy trunk of this pool, round-robin, or nil.
func (p *shardPool) pickTrunk() *trunkConn {
	n := len(p.trunks)
	start := int(p.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		t := p.trunks[(start+i)%n]
		if t.isHealthy() {
			return t
		}
	}
	return nil
}

// healthyTrunks counts established trunk connections to this shard.
func (p *shardPool) healthyTrunks() int {
	n := 0
	for _, t := range p.trunks {
		if t.isHealthy() {
			n++
		}
	}
	return n
}

// replayLoop is the pool's single commit sender: it pushes fresh spill
// entries immediately (woken by spillCommit and trunk attach) and
// re-sends entries whose trunk died or whose ack timed out. One sender
// per pool means a commit can never race its own retransmission onto
// two trunks; the collector's stream and nonce dedup absorb the replays
// a lost ack still forces.
func (p *shardPool) replayLoop() {
	r := p.r
	defer r.runnersWG.Done()
	tick := time.NewTicker(r.cfg.ReplayInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-p.replayWake:
		case <-tick.C:
		}
		p.replayPending()
	}
}

// replayPending sends every due spill entry over a healthy trunk of
// this pool: never sent, sent under an older pool generation (its trunk
// may have died with the ack in flight), or unacked past AckTimeout.
func (p *shardPool) replayPending() {
	t := p.pickTrunk()
	if t == nil {
		return
	}
	gen := p.gen.Load()
	now := time.Now()
	type item struct {
		stream uint64
		e      *spillEntry
	}
	var due []item
	p.spillMu.Lock()
	for s, e := range p.spill {
		if e.sentGen != gen || now.Sub(e.sentAt) > p.r.cfg.AckTimeout {
			due = append(due, item{s, e})
		}
	}
	p.spillMu.Unlock()
	if len(due) == 0 {
		return
	}
	sent := 0
	for _, it := range due {
		if !t.enqueue(it.e.frame) {
			break // trunk died mid-replay; the next wake retries
		}
		resend := it.e.sentGen != 0
		p.spillMu.Lock()
		if _, ok := p.spill[it.stream]; ok {
			it.e.sentGen = gen
			it.e.sentAt = now
		}
		p.spillMu.Unlock()
		if resend {
			p.tel.replays.Add(1)
		}
		sent++
	}
	if sent > 0 {
		t.flush()
	}
}

// trunkConn is one slot in a shard's trunk pool: a WebSocket to the
// collector's /trunk endpoint carrying batched frames for every session
// hashed onto that shard. Each slot runs its own dial/read lifecycle
// with a circuit breaker, so a dead collector costs bounded probing,
// not a dial storm.
type trunkConn struct {
	p   *shardPool
	idx int

	mu sync.Mutex
	// conn is the live connection (nil while down); buf the pending
	// batch, firstAppend when its oldest frame was buffered.
	conn        *wsproto.Conn
	buf         []byte
	firstAppend time.Time
	healthy     bool
	// fails counts consecutive dial failures for the breaker; reset on
	// a successful dial.
	fails int
}

func (t *trunkConn) isHealthy() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.healthy
}

// run is the trunk slot's lifecycle loop: breaker-gated dial, hello,
// then reading acks until the connection dies.
func (t *trunkConn) run() {
	r := t.p.r
	defer r.runnersWG.Done()
	for {
		select {
		case <-r.stopCh:
			return
		default:
		}
		if t.fails >= r.cfg.BreakerThreshold {
			// Breaker open: wait out the cooldown, then the next dial is
			// the half-open probe. Success closes the breaker (fails
			// resets); failure re-opens it for another cooldown.
			if !sleepOrStop(r.stopCh, r.cfg.BreakerCooldown) {
				return
			}
		} else if t.fails > 0 {
			// Below the threshold, space retries briefly so a transient
			// blip does not burn the whole failure budget at once.
			if !sleepOrStop(r.stopCh, r.cfg.BreakerCooldown/4) {
				return
			}
		}
		conn, err := t.dial()
		if err != nil {
			t.fails++
			if t.fails == r.cfg.BreakerThreshold {
				t.p.tel.breakerOpens.Add(1)
				r.log.Warn(r.role.name+": trunk breaker opened",
					"shard", t.p.id, "trunk", t.idx, "fails", t.fails, "err", err)
			}
			continue
		}
		t.fails = 0
		t.attach(conn)
		t.reader(conn)
		t.detach(conn)
	}
}

// sleepOrStop waits d unless stop closes first; reports whether the
// full wait elapsed.
func sleepOrStop(stop <-chan struct{}, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}

// dial opens the trunk connection and performs the Hello exchange. A
// router speaks the same trunk protocol a gateway does: to its shards,
// the router is just a very large gateway.
func (t *trunkConn) dial() (*wsproto.Conn, error) {
	r := t.p.r
	d := r.cfg.Dialer
	d.MaxMessageSize = trunkMaxMessage
	hdr := http.Header{}
	for k, vs := range r.cfg.Dialer.Header {
		hdr[k] = vs
	}
	if r.cfg.TrunkToken != "" {
		hdr.Set(trunk.TokenHeader, r.cfg.TrunkToken)
	}
	d.Header = hdr
	ctx, cancel := context.WithTimeout(context.Background(), trunkDialTimeout)
	defer cancel()
	conn, _, err := d.Dial(ctx, t.p.url)
	if err != nil {
		return nil, err
	}
	// Ack/reject batches are fully decoded before the next read.
	conn.ReuseReadBuffer()
	hello := trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Hello, Version: trunk.Version, GatewayID: r.cfg.RouterID,
	})
	if err := conn.WriteMessage(wsproto.OpBinary, hello); err != nil {
		_ = conn.NetConn().Close()
		return nil, err
	}
	return conn, nil
}

// attach publishes the fresh connection: the trunk becomes eligible for
// session traffic and the pool's replay loop is nudged to push spilled
// commits through it.
func (t *trunkConn) attach(conn *wsproto.Conn) {
	p := t.p
	t.mu.Lock()
	t.conn = conn
	t.buf = nil
	t.healthy = true
	t.mu.Unlock()
	p.tel.trunksHealthy.Add(1)
	p.gen.Add(1)
	p.wakeReplay()
	p.r.log.Info(p.r.role.name+": trunk established",
		"shard", p.id, "trunk", t.idx, "collector", p.url)
}

// detach withdraws a dead connection. The generation bump makes the
// pool's replay loop re-send every commit whose ack may have died with
// this trunk, onto whichever of the shard's trunks is healthy — no
// per-session state moves, because commits are self-contained.
func (t *trunkConn) detach(conn *wsproto.Conn) {
	p := t.p
	t.mu.Lock()
	wasHealthy := t.healthy
	t.conn = nil
	t.healthy = false
	t.buf = nil
	t.mu.Unlock()
	_ = conn.NetConn().Close()
	if wasHealthy {
		p.tel.trunksHealthy.Add(-1)
	}
	p.gen.Add(1)
	p.r.log.Warn(p.r.role.name+": trunk lost", "shard", p.id, "trunk", t.idx)
}

// reader consumes collector replies (acks and rejects) and runs the
// trunk's keepalive until the connection dies. It also hosts the
// age-based batch flusher, so a trickle of frames below the size
// threshold still leaves within BatchAge.
func (t *trunkConn) reader(conn *wsproto.Conn) {
	r := t.p.r
	stop := make(chan struct{})
	defer close(stop)

	renewDeadline := func() {
		if ka := r.cfg.KeepAliveInterval; ka > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(2 * ka))
		}
	}
	conn.SetPongHandler(func([]byte) { renewDeadline() })
	renewDeadline()
	if ka := r.cfg.KeepAliveInterval; ka > 0 {
		go func() {
			keepAlive(conn, ka, stop)
			// A failed ping means a dead peer: closing the transport
			// wakes the read below. After stop the connection is being
			// torn down anyway.
			_ = conn.NetConn().Close()
		}()
	}
	go func() {
		period := r.cfg.BatchAge / 2
		if period < 5*time.Millisecond {
			period = 5 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.flushAged()
			}
		}
	}()

	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		renewDeadline()
		if op != wsproto.OpBinary {
			continue
		}
		frames, err := trunk.DecodeBatch(msg)
		if err != nil {
			r.log.Warn(r.role.name+": malformed trunk reply",
				"shard", t.p.id, "trunk", t.idx, "err", err)
			return
		}
		for _, f := range frames {
			switch f.Type {
			case trunk.Ack:
				t.p.ackStream(f.Stream)
			case trunk.Reject:
				t.p.rejectStream(f.Stream, f.Reason)
			}
		}
	}
}

// enqueue buffers one encoded frame onto the trunk's pending batch,
// flushing when the size threshold is reached. Reports false when the
// trunk is down (the caller re-homes within the pool or drops).
func (t *trunkConn) enqueue(frame []byte) bool {
	t.mu.Lock()
	if !t.healthy || t.conn == nil {
		t.mu.Unlock()
		return false
	}
	if len(t.buf) == 0 {
		t.firstAppend = time.Now()
	}
	t.buf = append(t.buf, frame...)
	var out []byte
	var conn *wsproto.Conn
	if len(t.buf) >= t.p.r.cfg.BatchBytes {
		out, t.buf = t.buf, nil
		conn = t.conn
	}
	t.mu.Unlock()
	if out != nil {
		t.write(conn, out)
	}
	return true
}

// flush forces the pending batch out now.
func (t *trunkConn) flush() {
	t.mu.Lock()
	out := t.buf
	conn := t.conn
	t.buf = nil
	t.mu.Unlock()
	if len(out) > 0 && conn != nil {
		t.write(conn, out)
	}
}

// flushAged flushes the batch when its oldest frame has waited past
// BatchAge.
func (t *trunkConn) flushAged() {
	t.mu.Lock()
	var out []byte
	var conn *wsproto.Conn
	if len(t.buf) > 0 && time.Since(t.firstAppend) >= t.p.r.cfg.BatchAge {
		out, t.buf = t.buf, nil
		conn = t.conn
	}
	t.mu.Unlock()
	if len(out) > 0 && conn != nil {
		t.write(conn, out)
	}
}

// write sends one batch message. On failure the transport is closed so
// the reader notices and the slot recycles; the frames in the batch are
// either advisory (droppable) or commits the pool's replay loop will
// re-send.
func (t *trunkConn) write(conn *wsproto.Conn, batch []byte) {
	t.p.tel.trunkBatches.Add(1)
	t.p.tel.batchBytes.Observe(float64(len(batch)))
	if err := conn.WriteMessage(wsproto.OpBinary, batch); err != nil {
		_ = conn.NetConn().Close()
	}
}

// closeConn tears down the live connection (shutdown path).
func (t *trunkConn) closeConn() {
	t.mu.Lock()
	conn := t.conn
	t.mu.Unlock()
	if conn != nil {
		_ = conn.NetConn().Close()
	}
}

// sessionQueue is a bounded frame queue between one session's read loop
// and its forwarder, with watermark hysteresis: pushes stall at the
// high watermark and resume only once the forwarder has drained the
// queue to the low watermark, so a slow trunk throttles the client's
// TCP window instead of growing memory.
type sessionQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	frames  [][]byte
	high    int
	low     int
	stalled bool
	closed  bool
}

func newSessionQueue(high, low int) *sessionQueue {
	q := &sessionQueue{high: high, low: low}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a frame, blocking while the queue is over its high
// watermark. Reports false when the queue closed while waiting.
func (q *sessionQueue) push(frame []byte) bool {
	q.mu.Lock()
	if len(q.frames) >= q.high {
		q.stalled = true
	}
	for q.stalled && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.frames = append(q.frames, frame)
	q.mu.Unlock()
	q.cond.Broadcast()
	return true
}

// pop removes the oldest frame, blocking until one is available or the
// queue is closed and empty (ok == false). A closed queue still drains:
// the forwarder finishes in-flight advisory frames before the session
// builds its commit.
func (q *sessionQueue) pop() ([]byte, bool) {
	q.mu.Lock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.frames) == 0 {
		q.mu.Unlock()
		return nil, false
	}
	f := q.frames[0]
	q.frames = q.frames[1:]
	if q.stalled && len(q.frames) <= q.low {
		q.stalled = false
	}
	q.mu.Unlock()
	q.cond.Broadcast()
	return f, true
}

// close wakes every waiter; pending frames remain poppable.
func (q *sessionQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
