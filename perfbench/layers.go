package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/shardmerge"
	"adaudit/internal/streamaudit"
)

// layerSamples gathers the per-layer samples of a beacon workload's
// traced rounds.
type layerSamples struct {
	impressions                                 int
	sessions, open, closeCall, dials            series
	commit, apply, visible                      series
	collectorLife, gatewayLife, routerLife      series
	clientBytes, clientWrites, collectorBytesIn int64
	gwTrunkBytes, gwTrunkWrites                 int64
	shardTrunkBytes, shardTrunkWrites           int64
	backlog                                     int64
	gwSpill, rtSpill                            int
	skew                                        series
	resyncs, drops                              int64
	liveReport, fetch, merge, static            series
}

// add takes a traced round's samples. It runs before the topology
// closes, so only per-session connections have lifetimes yet; the
// persistent trunks are still open.
func (l *layerSamples) add(t *topology, rd *round, pr *probes) {
	l.impressions += len(rd.acked)
	l.sessions = append(l.sessions, rd.sessions...)
	l.open = append(l.open, rd.open...)
	l.closeCall = append(l.closeCall, rd.closeCall...)
	pr.mu.Lock()
	l.dials = append(l.dials, pr.dials...)
	pr.mu.Unlock()
	l.commit = append(l.commit, countLags(rd.closes, asCurve(rd.published))...)
	l.apply = append(l.apply, countLags(rd.published, rd.applied)...)
	l.visible = append(l.visible, countLags(rd.closes, rd.applied)...)
	l.collectorLife = append(l.collectorLife, pr.collector.closed()...)
	l.gatewayLife = append(l.gatewayLife, pr.gateway.closed()...)
	l.routerLife = append(l.routerLife, pr.router.closed()...)
	l.clientBytes += pr.client.bytesOut.Load()
	l.clientWrites += pr.client.writes.Load()
	l.collectorBytesIn += pr.collector.bytesIn.Load()
	l.gwTrunkBytes += pr.gwTrunk.bytesOut.Load()
	l.gwTrunkWrites += pr.gwTrunk.writes.Load()
	l.shardTrunkBytes += pr.shardTrunk.bytesOut.Load()
	l.shardTrunkWrites += pr.shardTrunk.writes.Load()
	l.backlog = max(l.backlog, rd.backlog)
	l.gwSpill = max(l.gwSpill, rd.gwSpill)
	l.rtSpill = max(l.rtSpill, rd.rtSpill)
	var lens series
	for _, s := range t.stores {
		lens = append(lens, float64(s.Len()))
	}
	l.skew = append(l.skew, lens.max()/lens.mean())
}

// addReports times the report path's layers: each shard's live
// Engine.Report and, on a chain, the shard-merge fetch, the merge and
// the static engine's report.
func (l *layerSamples) addReports(t *topology, meta audit.MetadataSource, inputs []audit.CampaignInput) error {
	for i := 0; i < reportReads; i++ {
		start := time.Now()
		for _, e := range t.engines {
			if _, err := e.Report(inputs); err != nil {
				return err
			}
		}
		l.liveReport = append(l.liveReport, ms(time.Since(start)))
		if t.merge == nil {
			continue
		}
		start = time.Now()
		exports, err := t.merge.FetchExports(context.Background())
		if err != nil {
			return err
		}
		l.fetch = append(l.fetch, ms(time.Since(start)))
		start = time.Now()
		merged := shardmerge.Merge(exports)
		l.merge = append(l.merge, ms(time.Since(start)))
		start = time.Now()
		eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: meta}, merged)
		if err == nil {
			_, err = eng.Report(inputs)
		}
		if err != nil {
			return err
		}
		l.static = append(l.static, ms(time.Since(start)))
	}
	return nil
}

// record stores the per-layer metrics and the lag accounting check.
func (l *layerSamples) record(r *results, chain bool) {
	n := float64(l.impressions)
	r.quantile("beacon.session_ms_p50", l.sessions, 0.5)
	r.quantile("beacon.session_ms_p99", l.sessions, 0.99)
	r.quantile("wsproto.dial_us_p50", l.dials, 0.5)
	r.quantile("wsproto.dial_us_p99", l.dials, 0.99)
	r.quantile("beacon.open_us_p50", l.open, 0.5)
	r.quantile("beacon.open_us_p99", l.open, 0.99)
	r.quantile("beacon.close_us_p50", l.closeCall, 0.5)
	r.set("wsproto.client_bytes_per_session", float64(l.clientBytes)/n, l.impressions)
	r.set("wsproto.client_writes_per_session", float64(l.clientWrites)/n, l.impressions)
	r.set("collector.bytes_in_per_session", float64(l.collectorBytesIn)/n, l.impressions)
	r.quantile("store.commit_lag_p50_ms", l.commit, 0.5)
	r.quantile("store.commit_lag_p99_ms", l.commit, 0.99)
	r.quantile("streamaudit.apply_lag_p50_ms", l.apply, 0.5)
	r.quantile("streamaudit.apply_lag_p99_ms", l.apply, 0.99)
	r.set("streamaudit.backlog_max", float64(l.backlog), l.impressions)
	r.set("streamaudit.resyncs", float64(l.resyncs), l.impressions)
	r.set("store.feed_drops", float64(l.drops), l.impressions)
	r.quantile("streamaudit.report_ms", l.liveReport, 0.5)

	// The k-th close becomes visible once committed and then applied:
	// the mean lags must add up, within a tenth or 10us.
	sum, vis := l.commit.mean()+l.apply.mean(), l.visible.mean()
	tol := math.Max(0.1*vis, 0.01)
	r.check("accounting.lag", math.Abs(sum-vis) <= tol && len(l.visible) > 0,
		fmt.Sprintf("mean commit %.3f + apply %.3f ms vs visible %.3f ms", l.commit.mean(), l.apply.mean(), vis))

	const trunkOnly = "reached only through persistent trunks, so no per-session connection closes"
	lifetimes := func(name string, s series) {
		if len(s) == 0 {
			r.miss(name+"_p50", trunkOnly)
			r.miss(name+"_p99", trunkOnly)
			return
		}
		r.quantile(name+"_p50", s, 0.5)
		r.quantile(name+"_p99", s, 0.99)
	}
	lifetimes("collector.conn_ms", l.collectorLife)
	if !chain {
		return
	}
	lifetimes("gateway.conn_ms", l.gatewayLife)
	lifetimes("router.conn_ms", l.routerLife)
	r.set("trunk.gw_bytes_per_impression", float64(l.gwTrunkBytes)/n, l.impressions)
	r.set("trunk.gw_writes_per_impression", float64(l.gwTrunkWrites)/n, l.impressions)
	r.set("trunk.shard_bytes_per_impression", float64(l.shardTrunkBytes)/n, l.impressions)
	r.set("trunk.shard_writes_per_impression", float64(l.shardTrunkWrites)/n, l.impressions)
	r.set("gateway.spill_max", float64(l.gwSpill), l.impressions)
	r.set("router.spill_max", float64(l.rtSpill), l.impressions)
	r.set("shardmerge.skew", l.skew.max(), len(l.skew))
	r.quantile("shardmerge.fetch_ms", l.fetch, 0.5)
	r.quantile("shardmerge.merge_ms", l.merge, 0.5)
	r.quantile("streamaudit.static_report_ms", l.static, 0.5)
}
