package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"adaudit/internal/shardmerge"
	"adaudit/internal/streamaudit"
)

// serverOptions collects the tunables NewServer accepts as options.
type serverOptions struct {
	drainGrace time.Duration
	listener   net.Listener
	merge      *shardmerge.Client
	staticCfg  streamaudit.StaticConfig
}

// ServerOption customises a Server.
type ServerOption func(*serverOptions)

// WithDrainGrace bounds how long Serve waits on shutdown for in-flight
// sessions to commit and for every spill buffer to empty (default 5 s).
func WithDrainGrace(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.drainGrace = d }
}

// WithListener serves on ln instead of opening a fresh TCP listener
// (addr is then ignored) — the hook the chaos tests use to put a
// fault-injected accept path under the client leg.
func WithListener(ln net.Listener) ServerOption {
	return func(o *serverOptions) { o.listener = ln }
}

// WithLiveMerge adds the merged live-audit API: GET /api/live/export
// serves the shard-merged streamaudit export, and /api/live/summary +
// /api/live/audit/{campaign} answer from a query engine built over that
// merged state — the same endpoints a single collector serves, now
// spanning the whole sharded dataset. Each request fetches every
// shard's export fresh (client's Shards must list the shard HTTP bases
// in shard order); cfg supplies the metadata the static engine folds
// against, which must agree with the shards' own.
func WithLiveMerge(client *shardmerge.Client, cfg streamaudit.StaticConfig) ServerOption {
	return func(o *serverOptions) {
		o.merge = client
		o.staticCfg = cfg
	}
}

// Server runs the engine behind an HTTP listener with the standard
// operational sidecar: the beacon endpoint, GET /healthz (trunk health,
// ok → degraded → unhealthy), GET /metrics (Prometheus text) and
// GET /api/metrics (JSON). A router adds the gateway trunk relay
// endpoint and optionally the merged /api/live/* views. The Server owns
// listener lifecycle and graceful drain, so cmd/adrouter, cmd/adgateway
// and the tests share one serving path.
type Server struct {
	rt      *Router
	httpSrv *http.Server
	ln      net.Listener
	opts    serverOptions
	start   time.Time
}

// NewServer wraps r in a Server listening on addr (host:port; port 0
// picks a free port).
func NewServer(r *Router, addr string, opts ...ServerOption) (*Server, error) {
	o := serverOptions{drainGrace: 5 * time.Second}
	for _, opt := range opts {
		opt(&o)
	}
	ln := o.listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("%s: listening on %s: %w", r.role.name, addr, err)
		}
	}
	s := &Server{rt: r, ln: ln, opts: o, start: time.Now()}
	mux := http.NewServeMux()
	mux.Handle("/beacon", r)
	if r.role.sharded {
		mux.HandleFunc("/trunk", r.ServeTrunk)
	}
	mux.HandleFunc("/healthz", s.serveHealthz)
	if reg := r.Telemetry(); reg != nil {
		reg.GaugeFunc("adaudit_"+r.role.name+"_uptime_seconds",
			"Time since the server started.", nil,
			func() float64 { return time.Since(s.start).Seconds() })
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/api/metrics", reg.JSONHandler())
	}
	if o.merge != nil {
		mux.HandleFunc("/api/live/export", s.serveMergedExport)
		mux.HandleFunc("/api/live/summary", s.serveMergedSummary)
		mux.HandleFunc("/api/live/audit/", s.serveMergedAudit)
	}
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// serveHealthz reports the degradation ladder: "ok" with every trunk
// of every upstream up, "degraded" while every upstream is still
// reachable on at least one trunk, "unhealthy" (503) when some upstream
// has no healthy trunk and its slice of the keyspace is spilling.
// Degraded stays 200: the engine is still doing its job, and flapping a
// load balancer off a functioning node would convert a partial trunk
// outage into real client loss.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st := s.rt.Health()
	w.Header().Set("Content-Type", "application/json")
	if st.Status == "unhealthy" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// serveMergedExport serves the union of every shard's streamaudit
// export, merged in shard order.
func (s *Server) serveMergedExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	exp, err := s.opts.merge.FetchMerged(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, exp)
}

// mergedEngine fetches every shard and builds a query engine over the
// merged state.
func (s *Server) mergedEngine(ctx context.Context) (*streamaudit.Engine, error) {
	exp, err := s.opts.merge.FetchMerged(ctx)
	if err != nil {
		return nil, err
	}
	return streamaudit.NewStatic(s.opts.staticCfg, exp)
}

func (s *Server) serveMergedSummary(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	eng, err := s.mergedEngine(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, eng.Summaries())
}

func (s *Server) serveMergedAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/api/live/audit/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "missing campaign id", http.StatusBadRequest)
		return
	}
	eng, err := s.mergedEngine(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	la, ok, err := eng.Audit(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	writeJSON(w, la)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// BeaconURL returns the ws:// URL beacon clients should dial.
func (s *Server) BeaconURL() string {
	return fmt.Sprintf("ws://%s/beacon", s.ln.Addr().String())
}

// TrunkURL returns the ws:// URL gateways should trunk into (router
// role only).
func (s *Server) TrunkURL() string {
	return fmt.Sprintf("ws://%s/trunk", s.ln.Addr().String())
}

// Serve blocks serving requests until ctx is cancelled, then drains:
// admission flips to shedding, open sessions are closed with the
// resumable 1012 close code and a Retry-After hint, and every spill
// buffer is given until the drain grace to flush acked commits into its
// collector before the trunk pools are torn down.
func (s *Server) Serve(ctx context.Context) error {
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.httpSrv.Serve(s.ln)
	}()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.httpSrv.Shutdown(shutdownCtx)
		left := s.rt.Drain(s.opts.drainGrace)
		if left > 0 {
			s.rt.log.Warn(s.rt.role.name+": drain deadline hit with unflushed commits", "pending", left)
		}
		_ = s.httpSrv.Close()
		<-errCh
		s.rt.Close()
		return nil
	case err := <-errCh:
		s.rt.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("%s: serving: %w", s.rt.role.name, err)
	}
}

// Close tears the server down immediately.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	s.rt.Close()
	return err
}
