// Package gateway is the edge ingest tier: a trusted bridge that
// terminates beacon WebSockets close to the users emitting them and
// forwards the measurements to the central collector over a small pool
// of persistent trunk connections. It is internal/router's forwarding
// engine with one upstream (the collector) and no relay endpoint; this
// package keeps the gateway's configuration vocabulary and maps it onto
// router.NewGateway, which fixes the adaudit_gateway_* metric names,
// the gw- ID prefix and the gateway /healthz body.
package gateway

import (
	"log/slog"
	"net"
	"time"

	"adaudit/internal/router"
	"adaudit/internal/telemetry"
	"adaudit/internal/wsproto"
)

// The gateway is the engine in its gateway role; these are its types.
type (
	Gateway      = router.Router
	Server       = router.Server
	ServerOption = router.ServerOption
	HealthStatus = router.HealthStatus
)

// Shed reasons used for adaudit_gateway_sheds_total{reason=...}.
const (
	ShedDraining = router.ShedDraining
	ShedCapacity = router.ShedCapacity
	ShedSpill    = router.ShedSpill
	ShedOrigin   = router.ShedOrigin
)

// Config assembles a Gateway. Fields without a comment here mean what
// the router.Config field of the same name means.
type Config struct {
	// CollectorURL is the collector's trunk endpoint
	// (ws://host:port/trunk). Required.
	CollectorURL string
	TrunkToken   string
	// GatewayID names this gateway on the wire; commits are deduped per
	// (gateway, stream), so each instance needs a distinct ID. Defaults
	// to a random gw- token.
	GatewayID string
	// Trunks is the size of the persistent trunk pool (default 2).
	Trunks int
	Dialer wsproto.Dialer

	AllowedOrigins    []string
	MaxSessions       int
	MaxMessageSize    int64
	HandshakeTimeout  time.Duration
	KeepAliveInterval time.Duration
	MaxExposure       time.Duration
	BatchBytes        int
	BatchAge          time.Duration
	QueueHigh         int
	QueueLow          int
	SpillLimit        int
	AckTimeout        time.Duration
	ReplayInterval    time.Duration
	BreakerThreshold  int
	BreakerCooldown   time.Duration
	RetryAfterHint    time.Duration
	Logger            *slog.Logger
	Telemetry         *telemetry.Registry
}

// New validates cfg and returns a started Gateway: trunk runners and
// the replay loop are live. Callers own serving HTTP (see NewServer)
// and must Close the gateway when done.
func New(cfg Config) (*Gateway, error) {
	return router.NewGateway(router.Config{
		Shards:            []string{cfg.CollectorURL},
		TrunkToken:        cfg.TrunkToken,
		RouterID:          cfg.GatewayID,
		TrunksPerShard:    cfg.Trunks,
		Dialer:            cfg.Dialer,
		AllowedOrigins:    cfg.AllowedOrigins,
		MaxSessions:       cfg.MaxSessions,
		MaxMessageSize:    cfg.MaxMessageSize,
		HandshakeTimeout:  cfg.HandshakeTimeout,
		KeepAliveInterval: cfg.KeepAliveInterval,
		MaxExposure:       cfg.MaxExposure,
		BatchBytes:        cfg.BatchBytes,
		BatchAge:          cfg.BatchAge,
		QueueHigh:         cfg.QueueHigh,
		QueueLow:          cfg.QueueLow,
		SpillLimit:        cfg.SpillLimit,
		AckTimeout:        cfg.AckTimeout,
		ReplayInterval:    cfg.ReplayInterval,
		BreakerThreshold:  cfg.BreakerThreshold,
		BreakerCooldown:   cfg.BreakerCooldown,
		RetryAfterHint:    cfg.RetryAfterHint,
		Logger:            cfg.Logger,
		Telemetry:         cfg.Telemetry,
	})
}

// NewServer wraps g in a Server listening on addr (host:port; port 0
// picks a free port): /beacon, /healthz, /metrics and /api/metrics.
func NewServer(g *Gateway, addr string, opts ...ServerOption) (*Server, error) {
	return router.NewServer(g, addr, opts...)
}

// WithDrainGrace bounds how long Serve waits on shutdown for in-flight
// beacon sessions to commit and the spill buffer to empty into the
// collector (default 5 s).
func WithDrainGrace(d time.Duration) ServerOption { return router.WithDrainGrace(d) }

// WithListener serves on ln instead of opening a fresh TCP listener
// (addr is then ignored).
func WithListener(ln net.Listener) ServerOption { return router.WithListener(ln) }
