package router

import (
	"strconv"

	"adaudit/internal/telemetry"
)

// engineTelemetry bundles the engine-level instruments (no shard
// dimension). All fields are nil-safe. Families are named
// adaudit_<role>_*.
type engineTelemetry struct {
	connections    *telemetry.Counter
	sessionsActive *telemetry.Gauge
	sheds          *telemetry.CounterVec
	events         *telemetry.Counter
	commits        *telemetry.Counter
	relayTrunks    *telemetry.Gauge
	relayFrames    *telemetry.CounterVec
	relayDrops     *telemetry.Counter
}

func newEngineTelemetry(r *Router) engineTelemetry {
	reg, pre := r.reg, "adaudit_"+r.role.name+"_"
	tel := engineTelemetry{
		connections: reg.Counter(pre+"connections_total",
			"Beacon WebSocket connections accepted.", nil),
		sessionsActive: reg.Gauge(pre+"sessions_active",
			"Beacon sessions and gateway trunks currently open.", nil),
		sheds: reg.CounterVec(pre+"sheds_total",
			"Beacon requests refused at admission, by reason.", "reason"),
		events: reg.Counter(pre+"events_total",
			"Interaction updates received from beacon sessions.", nil),
		commits: reg.Counter(pre+"commits_total",
			"Session commits handed to the spill/forward pipeline.", nil),
	}
	reg.GaugeFunc(pre+"spill_pending",
		"Commits awaiting collector acknowledgement, summed over all shards.", nil,
		func() float64 { return float64(r.spillPending()) })
	if !r.role.sharded {
		reg.GaugeFunc(pre+"trunks_total",
			"Configured trunk pool size.", nil,
			func() float64 { return float64(r.cfg.TrunksPerShard) })
		return tel
	}
	tel.relayTrunks = reg.Gauge(pre+"relay_trunks_active",
		"Gateway trunk connections currently terminated on this router.", nil)
	tel.relayFrames = reg.CounterVec(pre+"relay_frames_total",
		"Trunk frames relayed from gateways onto shards, by frame type.", "type")
	tel.relayDrops = reg.Counter(pre+"relay_drops_total",
		"Relayed advisory frames dropped for an unknown or shardless stream.", nil)
	reg.GaugeFunc(pre+"shards_total",
		"Configured collector shard count.", nil,
		func() float64 { return float64(len(r.cfg.Shards)) })
	return tel
}

// poolTelemetry bundles one shard pool's instruments. A router names
// them adaudit_router_shard_* with a shard_id label, so the same metric
// fans out into one series per shard and a dashboard can spot a hot or
// dead shard without per-shard scrape targets. A gateway's one pool
// uses its unlabelled adaudit_gateway_* names instead.
type poolTelemetry struct {
	commits       *telemetry.Counter
	acks          *telemetry.Counter
	rejects       *telemetry.Counter
	replays       *telemetry.Counter
	queueDrops    *telemetry.Counter
	breakerOpens  *telemetry.Counter
	trunkBatches  *telemetry.Counter
	trunksHealthy *telemetry.Gauge
	forward       *telemetry.Histogram
	batchBytes    *telemetry.Histogram
}

func newPoolTelemetry(r *Router, p *shardPool) poolTelemetry {
	reg, pre := r.reg, "adaudit_"+r.role.name+"_"
	var lbl map[string]string
	if r.role.sharded {
		pre += "shard_"
		lbl = map[string]string{"shard_id": strconv.Itoa(p.id)}
	}
	tel := poolTelemetry{
		acks: reg.Counter(pre+"acks_total",
			"Commits acknowledged by the collector.", lbl),
		rejects: reg.Counter(pre+"rejected_total",
			"Commits the collector rejected permanently.", lbl),
		replays: reg.Counter(pre+"replays_total",
			"Commit retransmissions after a trunk change or ack timeout.", lbl),
		queueDrops: reg.Counter(pre+"queue_drops_total",
			"Advisory frames dropped with no healthy trunk available.", lbl),
		breakerOpens: reg.Counter(pre+"breaker_opens_total",
			"Trunk circuit-breaker openings.", lbl),
		trunkBatches: reg.Counter(pre+"trunk_batches_total",
			"Batch messages written to trunks.", lbl),
		trunksHealthy: reg.Gauge(pre+"trunks_healthy",
			"Trunk connections currently established.", lbl),
		forward: reg.Histogram(pre+"forward_seconds",
			"Commit-to-collector-ack latency, spill time included.",
			telemetry.LatencyBuckets(), lbl),
		batchBytes: reg.Histogram(pre+"batch_bytes",
			"Trunk batch sizes at flush.",
			[]float64{256, 1024, 4096, 16384, 65536, 262144}, lbl),
	}
	// Per-shard breakdowns of the engine's commit and spill totals. A
	// gateway's one unlabelled pool would share the engine's series and
	// count every commit twice.
	if r.role.sharded {
		tel.commits = reg.Counter(pre+"commits_total",
			"Commits routed onto this shard.", lbl)
		reg.GaugeFunc(pre+"spill_pending",
			"Commits awaiting this shard's acknowledgement.", lbl,
			func() float64 { return float64(p.spillPending()) })
	}
	return tel
}
