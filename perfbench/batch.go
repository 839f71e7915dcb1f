package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"adaudit"
	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/campaign"
	"adaudit/internal/collector"
	"adaudit/internal/report"
	"adaudit/internal/stats"
	"adaudit/internal/store"
)

// runPaperBatch repeats the reproduction users run as adsim: a fresh
// Workspace (set-up), then Workspace.Run over the paper's eight
// campaigns (adnet delivery, direct Collector.Ingest, store), Run.Audit
// and report.Full. The first iteration warms up and is not timed.
func runPaperBatch(cfg config, r *results) error {
	if cfg.trace {
		return tracePaperBatch(cfg, r)
	}
	var e endToEndSamples
	var firstDigest [32]byte
	var load time.Duration
	mismatched := 0
	for it := 0; it < setups || load < cfg.seconds; it++ {
		res, err := batchIteration(cfg.seed)
		r.attempted++
		if err != nil {
			r.failed++
			r.check("paper-batch.iteration", false, err.Error())
			break
		}
		e.setup = append(e.setup, res.setup.Seconds())
		if it == 0 {
			firstDigest = res.digest
		} else if res.digest != firstDigest {
			r.failed++
			mismatched++
		}
		r.attempted += len(res.reads)
		if it == 0 {
			continue
		}
		e.addReads(res.reads)
		load += res.batch
		e.addRound(res.batch, float64(res.impressions)/res.ingest.Seconds(), res.retained, res.visible)
	}
	r.check("paper-batch.report_identical", mismatched == 0,
		fmt.Sprintf("%d of %d iterations differ from the first, sha256 %x", mismatched, len(e.setup), firstDigest[:6]))
	e.record(r)
	return nil
}

// iteration is one paper-batch pass.
type iteration struct {
	setup, ingest, batch time.Duration
	impressions          int
	visible              series
	retained             float64
	digest               [32]byte
	reads                []reportRead
	// store is the iteration's dataset.
	store *store.Store
}

// lenPoller samples a store's length every period until stopped, so
// the moment the k-th impression became visible can be read off the
// curve.
type lenPoller struct {
	stop  chan struct{}
	done  chan struct{}
	curve []point
}

func pollLen(st *store.Store, start time.Time, period time.Duration) *lenPoller {
	p := &lenPoller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			if n := int64(st.Len()); len(p.curve) == 0 || n > p.curve[len(p.curve)-1].n {
				p.curve = append(p.curve, point{t: int64(time.Since(start)), n: n})
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops the poller and takes a last sample.
func (p *lenPoller) finish(st *store.Store, start time.Time) []point {
	close(p.stop)
	<-p.done
	if n := int64(st.Len()); len(p.curve) == 0 || n > p.curve[len(p.curve)-1].n {
		p.curve = append(p.curve, point{t: int64(time.Since(start)), n: n})
	}
	return p.curve
}

// batchReads is how many times an iteration re-reads the full report
// after rendering it, for report_ms and the allocation metrics; a read
// takes about as long as a fifth of the iteration.
const batchReads = 2

func batchIteration(seed int64) (*iteration, error) {
	it := &iteration{}
	start := time.Now()
	ws, err := adaudit.NewWorkspace(adaudit.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	it.setup = time.Since(start)
	base := liveHeap()

	h := sha256.New()
	start = time.Now()
	poll := pollLen(ws.Store, start, time.Millisecond)
	run, err := ws.Run(adnet.PaperCampaigns())
	curve := poll.finish(ws.Store, start)
	if err != nil {
		return nil, err
	}
	it.ingest = time.Since(start)
	rep, err := run.Audit()
	if err != nil {
		return nil, err
	}
	if err := run.WriteReport(h, rep); err != nil {
		return nil, err
	}
	it.batch = time.Since(start)
	copy(it.digest[:], h.Sum(nil))
	it.impressions = ws.Store.Len()
	for _, t := range curveTimes(curve, it.impressions) {
		it.visible = append(it.visible, ms(it.batch-time.Duration(t)))
	}
	it.retained = liveHeap() - base

	aud, err := ws.Auditor()
	if err != nil {
		return nil, err
	}
	inputs := paperInputs(run.Campaigns, run.Outcome.Reports())
	for i := 0; i < batchReads; i++ {
		rd, err := timedRead(func() error {
			_, err := aud.FullAudit(inputs)
			return err
		})
		if err != nil {
			return nil, err
		}
		it.reads = append(it.reads, rd)
	}
	runtime.KeepAlive(run)
	it.store = ws.Store
	return it, nil
}

// paperInputs builds FullAudit's inputs the way Run.Audit does.
func paperInputs(cs []adnet.Campaign, reports map[string]*adnet.VendorReport) []audit.CampaignInput {
	inputs := make([]audit.CampaignInput, 0, len(cs))
	for _, c := range cs {
		inputs = append(inputs, audit.CampaignInput{ID: c.ID, Keywords: c.Keywords, Report: reports[c.ID]})
	}
	return inputs
}

// tracePaperBatch is paper-batch's traced run: one pass of the
// driver's steps replayed with every layer call timed, then the audit
// dimension by dimension and the rendering. Untraced iterations around
// the traced pass are the overhead reference: a warm-up, whose dataset
// and report the traced pass must reproduce, then one before the pass
// and one after it.
func tracePaperBatch(cfg config, r *results) error {
	var warm *iteration
	var untraced series
	iterate := func() error {
		it, err := batchIteration(cfg.seed)
		r.attempted++
		if err != nil {
			r.failed++
			return err
		}
		if warm == nil {
			warm = it
		} else {
			untraced = append(untraced, it.batch.Seconds())
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := iterate(); err != nil {
			return err
		}
	}

	ws, err := adaudit.NewWorkspace(adaudit.Options{Seed: cfg.seed})
	if err != nil {
		return err
	}
	// The traced pass is timed as one span, the steps an untraced
	// iteration times as batch_s: delivery and ingest, FullAudit and the
	// rendering.
	start := time.Now()
	reports, err := traceReplay(ws, r)
	if err != nil {
		return err
	}
	aud, err := ws.Auditor()
	if err != nil {
		return err
	}
	inputs := paperInputs(adnet.PaperCampaigns(), reports)
	full, err := aud.FullAudit(inputs)
	if err != nil {
		return err
	}
	h := sha256.New()
	if err := report.Full(h, adnet.PaperCampaigns(), full); err != nil {
		return err
	}
	traced := time.Since(start)
	var digest [32]byte
	copy(digest[:], h.Sum(nil))

	if err := iterate(); err != nil {
		return err
	}
	// Traced time over the mean of the untraced iterations around it.
	r.set("trace.overhead_ratio", traced.Seconds()/untraced.mean(), len(untraced)+1)
	r.attempted += 2
	same := reflect.DeepEqual(impressions(ws.Store), impressions(warm.store)) &&
		reflect.DeepEqual(ws.Store.Conversions(""), warm.store.Conversions(""))
	if !same {
		r.failed++
	}
	r.check("dataset.replay_equals_workspace_run", same, fmt.Sprintf("%d impressions", ws.Store.Len()))
	if digest != warm.digest {
		r.failed++
	}
	r.check("paper-batch.report_identical", digest == warm.digest, "traced pass renders the untraced report")
	warm = nil // frees the warm-up's dataset before the audit passes

	if err := traceInsert(ws.Store, r); err != nil {
		return err
	}
	return traceAudit(ws.Store, audit.UniverseMetadata{Universe: ws.Publishers}, inputs, r)
}

// traceReplay replays campaign.Driver's steps into ws — Network.Run,
// the loss draws, campaign.ObservationFor, Collector.Ingest and the
// conversion pixel — timing each layer call. It returns the vendor
// reports.
func traceReplay(ws *adaudit.Workspace, r *results) (map[string]*adnet.VendorReport, error) {
	reports := map[string]*adnet.VendorReport{}
	var runTime time.Duration
	var ingest series
	d := ws.Driver
	for _, c := range adnet.PaperCampaigns() {
		t := time.Now()
		res, err := ws.Network.Run(c)
		runTime += time.Since(t)
		if err != nil {
			return nil, err
		}
		reports[c.ID] = &res.Report
		rng := stats.NewRNG(d.Seed).Fork("loss/" + c.ID)
		for i := range res.Deliveries {
			del := &res.Deliveries[i]
			if del.Publisher.BeaconHostile || del.Device.BeaconBlocked || rng.Bool(d.Loss.ConnectionFailure) {
				continue
			}
			obs := campaign.ObservationFor(&res.Campaign, del)
			t := time.Now()
			_, err := ws.Collector.Ingest(obs)
			ingest = append(ingest, us(time.Since(t)))
			if err != nil {
				return nil, err
			}
			if del.Converted && !rng.Bool(d.Loss.ConnectionFailure) {
				if _, err := ws.Collector.IngestConversion(collector.ConversionObservation{
					Conversion: beacon.Conversion{CampaignID: c.ID, Action: "purchase", ValueCents: del.ConversionValueCents},
					RemoteIP:   del.Device.Addr,
					UserAgent:  del.Device.UserAgent,
					At:         del.ConvertedAt,
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	r.set("adnet.run_ms", ms(runTime), len(adnet.PaperCampaigns()))
	r.quantile("collector.ingest_us_p50", ingest, 0.5)
	r.quantile("collector.ingest_us_p99", ingest, 0.99)
	r.set("collector.ingest_calls", float64(len(ingest)), len(ingest))
	return reports, nil
}

// traceInsert times Store.Insert of every impression of st into a
// fresh store.
func traceInsert(st *store.Store, r *results) error {
	fresh := store.New()
	var insert series
	for _, im := range impressions(st) {
		t := time.Now()
		_, err := fresh.Insert(im)
		insert = append(insert, us(time.Since(t)))
		if err != nil {
			return err
		}
	}
	r.quantile("store.insert_us_p50", insert, 0.5)
	return nil
}

func impressions(st *store.Store) []store.Impression {
	out := make([]store.Impression, 0, st.Len())
	st.ForEach(func(im store.Impression) bool {
		out = append(out, im)
		return true
	})
	return out
}

// auditPasses bounds how many times the traced run repeats each audit
// measurement; it reports the median. A small store gets more timing
// passes, so the accounting compares times of comparable precision.
const (
	minAuditPasses = 5
	minTimedPasses = 9
	maxAuditPasses = 40
	// timingRounds is how many sets of timing passes the traced run
	// takes at most while the time accounting does not hold.
	timingRounds = 3
)

// traceAudit times FullAuditSerial and FullAudit, then each audit
// dimension on its own, and checks that the dimensions account for the
// whole report's time and allocations.
func traceAudit(st *store.Store, meta audit.MetadataSource, inputs []audit.CampaignInput, r *results) error {
	aud, err := audit.New(st, meta)
	if err != nil {
		return err
	}
	warm := time.Now()
	full, err := aud.FullAudit(inputs) // warms the auditor's lazy state
	if err != nil {
		return err
	}
	passes := min(max(minTimedPasses, int(3*time.Second/max(time.Since(warm), time.Millisecond))), maxAuditPasses)

	reports := map[string]*adnet.VendorReport{}
	for _, in := range inputs {
		reports[in.ID] = in.Report
	}
	// The dimensions FullAuditSerial runs per campaign, in its order,
	// then its two cross-campaign steps, then the two dimensions it
	// does not run. Timing them in that order keeps the access pattern
	// of the whole report, caches included.
	type dimCall struct {
		name string
		fn   func(in audit.CampaignInput) error
	}
	perCampaign := []dimCall{
		{"brandsafety", func(in audit.CampaignInput) error { aud.BrandSafety(in.ID, in.Report); return nil }},
		{"context", func(in audit.CampaignInput) error { _, err := aud.Context(in.ID, in.Keywords, in.Report); return err }},
		{"popularity", func(in audit.CampaignInput) error { _, err := aud.Popularity(in.ID, 10, 10_000_000); return err }},
		{"viewability", func(in audit.CampaignInput) error { aud.Viewability(in.ID); return nil }},
		{"fraud", func(in audit.CampaignInput) error { aud.Fraud(in.ID); return nil }},
		{"sellers", func(in audit.CampaignInput) error { aud.SellerAudit(in.ID, in.Report); return nil }},
		{"pooling", func(in audit.CampaignInput) error { aud.Pooling(in.ID, in.Report); return nil }},
		{"behavior", func(in audit.CampaignInput) error { aud.Behavior(in.ID); return nil }},
	}
	global := []dimCall{
		{"aggregate", func(audit.CampaignInput) error { aud.BrandSafetyAggregate(reports); return nil }},
		{"frequency", func(audit.CampaignInput) error { aud.Frequency(); return nil }},
	}
	outside := []dimCall{
		{"interactions", func(in audit.CampaignInput) error { aud.Interactions(in.ID); return nil }},
		{"conversions", func(in audit.CampaignInput) error { aud.Conversions(in.ID); return nil }},
	}

	// A pass measures either time or allocations: reading MemStats
	// between calls stops the world and costs the next call time, so
	// timing passes read only the clock.
	type pass struct {
		serial, parallel float64 // ms, or allocations
		dims             map[string]float64
		// The CPU time, in ms, the serial report and the FullAudit
		// dimensions took on this goroutine's thread; timing passes
		// only. Both run inline, on no other goroutine.
		serialCPU, dimsCPU float64
	}
	var serialRep *audit.FullReport
	measureWith := func(allocs bool, fn func() error) (v, cpu float64, err error) {
		if !allocs {
			c, start := threadCPUTime(), time.Now()
			err := fn()
			return ms(time.Since(start)), ms(threadCPUTime() - c), err
		}
		rd, err := measure(fn)
		return float64(rd.mallocs), 0, err
	}
	whole := func(p *pass, allocs bool) (err error) {
		if p.serial, p.serialCPU, err = measureWith(allocs, func() (err error) {
			serialRep, err = aud.FullAuditSerial(inputs)
			return err
		}); err != nil {
			return err
		}
		runtime.GC()
		p.parallel, _, err = measureWith(allocs, func() (err error) {
			full, err = aud.FullAudit(inputs)
			return err
		})
		return err
	}
	byDim := func(p *pass, allocs bool) error {
		call := func(d dimCall, in audit.CampaignInput) error {
			v, cpu, err := measureWith(allocs, func() error { return d.fn(in) })
			if err != nil {
				return fmt.Errorf("audit %s: %w", d.name, err)
			}
			p.dims[d.name] += v
			if inFullAudit(d.name) {
				p.dimsCPU += cpu
			}
			return nil
		}
		for _, in := range inputs {
			for _, d := range perCampaign {
				if err := call(d, in); err != nil {
					return err
				}
			}
		}
		for _, d := range global {
			if err := call(d, audit.CampaignInput{}); err != nil {
				return err
			}
		}
		for _, d := range outside {
			for _, in := range inputs {
				if err := call(d, in); err != nil {
					return err
				}
			}
		}
		return nil
	}
	run := func(n int, allocs bool) ([]pass, error) {
		out := make([]pass, n)
		for i := range out {
			// The serial report, the parallel one and the dimensions
			// each start from a collected heap, so a collection of
			// another's garbage never lands in their time, and the
			// halves alternate in order.
			p := &out[i]
			p.dims = map[string]float64{}
			first, second := whole, byDim
			if i%2 == 1 {
				first, second = byDim, whole
			}
			runtime.GC()
			if err := first(p, allocs); err != nil {
				return nil, err
			}
			runtime.GC()
			if err := second(p, allocs); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// The time accounting is weighed in thread CPU time, the least over
	// the passes: on a shared host the wall clock also counts what other
	// processes take, and a process on a sibling hardware thread or
	// sharing the caches slows the audit's own CPU time too, by a
	// different amount in each half of a pass. The least time is the
	// pass that was disturbed least. While the dimensions and the
	// serial report disagree, more passes are added, up to
	// timingRounds sets.
	var timed []pass
	var dimCPU, serCPU float64
	runtime.LockOSThread()
	for round := 0; round < timingRounds; round++ {
		more, err := run(passes, false)
		if err != nil {
			runtime.UnlockOSThread()
			return err
		}
		timed = append(timed, more...)
		var dims, ser series
		for _, p := range timed {
			dims = append(dims, p.dimsCPU)
			ser = append(ser, p.serialCPU)
		}
		if dimCPU, serCPU = dims.min(), ser.min(); within(dimCPU, serCPU, 0.1) {
			break
		}
	}
	runtime.UnlockOSThread()
	counted, err := run(minAuditPasses, true)
	if err != nil {
		return err
	}

	r.attempted++
	same := reflect.DeepEqual(full, serialRep)
	if !same {
		r.failed++
	}
	r.check("audit.parallel_equals_serial", same, "FullAudit deep-equals FullAuditSerial")

	// account records each dimension's median and returns the median
	// sum of the FullAudit dimensions and the medians of the serial and
	// parallel reports. Ratios of medians: a single pass's timings
	// scatter too widely on a shared machine.
	account := func(ps []pass, suffix string) (sum, serial, parallel float64) {
		var sums, ser, par series
		dims := map[string]series{}
		for _, p := range ps {
			var sum float64
			for _, dim := range auditDims {
				dims[dim] = append(dims[dim], p.dims[dim])
				if inFullAudit(dim) {
					sum += p.dims[dim]
				}
			}
			sums = append(sums, sum)
			ser = append(ser, p.serial)
			par = append(par, p.parallel)
		}
		for _, dim := range auditDims {
			v, _ := dims[dim].quantile(0.5)
			r.set("audit."+dim+suffix, v, len(ps))
		}
		sum, _ = sums.quantile(0.5)
		serial, _ = ser.quantile(0.5)
		parallel, _ = par.quantile(0.5)
		return sum, serial, parallel
	}
	dimMs, serialMs, parallelMs := account(timed, "_ms")
	dimAllocs, _, reportAllocs := account(counted, "_allocs")
	r.set("audit.serial_ms", serialMs, len(timed))
	r.set("audit.parallel_speedup", serialMs/parallelMs, len(timed))
	// The allocations are weighed against FullAudit's, the call
	// report_allocs counts; the time against FullAuditSerial's, since
	// the dimensions are timed one at a time.
	r.check("accounting.audit_allocs", within(dimAllocs, reportAllocs, 0.1),
		fmt.Sprintf("dimensions sum to %.3f of FullAudit's allocations", dimAllocs/reportAllocs))
	r.check("accounting.audit_ms", within(dimCPU, serCPU, 0.1),
		fmt.Sprintf("dimensions sum to %.3f of FullAuditSerial's least CPU time over %d passes (%.3f of its median wall time)",
			dimCPU/serCPU, len(timed), dimMs/serialMs))

	var render series
	for i := 0; i < minAuditPasses; i++ {
		rd, err := timedRead(func() error { return report.Full(io.Discard, adnet.PaperCampaigns(), full) })
		if err != nil {
			return err
		}
		render = append(render, ms(rd.d))
	}
	r.quantile("report.render_ms", render, 0.5)
	return nil
}

// within reports whether got lies within frac of want.
func within(got, want, frac float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= frac*want
}
