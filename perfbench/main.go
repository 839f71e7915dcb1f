// Command perfbench is adaudit's end-to-end benchmark. It drives the
// real packages in process on one of three workloads and prints every
// metric by name and unit, then one JSON result line:
//
//	perfbench --workload paper-batch|beacon-direct|beacon-chain \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics a user of the
// system sees; with --trace 1 it times calls into each layer from the
// benchmark's own code and reports the per-layer metrics. Every run
// checks that the program's outputs are correct; a failed check makes
// the result incorrect. The inputs are generated from --seed only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric, its unit and, for per-layer metrics, the
// end-to-end metrics it should move.
type metricDef struct {
	name, unit string
	moves      string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them: each workload takes in a fixed set of
// impressions per round and produces the full audit report over them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "batch_s", unit: "s"},
	{name: "impressions_per_s", unit: "1/s"},
	{name: "visible_p50_ms", unit: "ms"},
	{name: "visible_p99_ms", unit: "ms"},
	{name: "report_ms", unit: "ms"},
	{name: "report_allocs", unit: "count"},
	{name: "report_alloc_mb", unit: "MB"},
	{name: "retained_heap_mb", unit: "MB"},
}

// auditDims are the Auditor methods timed one by one in the traced
// run. All but interactions and conversions are steps of FullAudit;
// aggregate is its cross-campaign BrandSafetyAggregate step.
var auditDims = []string{
	"brandsafety", "context", "popularity", "viewability", "frequency", "fraud",
	"interactions", "conversions", "sellers", "pooling", "behavior", "aggregate",
}

// inFullAudit reports whether FullAudit runs the dimension, so its
// cost belongs in the accounting against the whole report.
func inFullAudit(dim string) bool { return dim != "interactions" && dim != "conversions" }

// perLayer are the traced run's metrics. A workload that does not run
// a layer reports it as missing.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"adnet.run_ms", "ms", "batch_s"},
		{"collector.ingest_us_p50", "us", "batch_s"},
		{"collector.ingest_us_p99", "us", "batch_s"},
		{"collector.ingest_calls", "count", "batch_s"},
		{"store.insert_us_p50", "us", "batch_s"},
		{"audit.serial_ms", "ms", "report_ms"},
		{"audit.parallel_speedup", "ratio", "report_ms"},
	}
	for _, d := range auditDims {
		defs = append(defs,
			metricDef{"audit." + d + "_ms", "ms", "report_ms"},
			metricDef{"audit." + d + "_allocs", "count", "report_allocs report_alloc_mb"})
	}
	return append(defs,
		metricDef{"report.render_ms", "ms", "batch_s"},
		metricDef{"beacon.session_ms_p50", "ms", "impressions_per_s"},
		metricDef{"beacon.session_ms_p99", "ms", "impressions_per_s"},
		metricDef{"wsproto.dial_us_p50", "us", "impressions_per_s"},
		metricDef{"wsproto.dial_us_p99", "us", "impressions_per_s"},
		metricDef{"beacon.open_us_p50", "us", "impressions_per_s"},
		metricDef{"beacon.open_us_p99", "us", "impressions_per_s"},
		metricDef{"beacon.close_us_p50", "us", "impressions_per_s"},
		metricDef{"wsproto.client_bytes_per_session", "B", "impressions_per_s"},
		metricDef{"wsproto.client_writes_per_session", "count", "impressions_per_s"},
		metricDef{"collector.conn_ms_p50", "ms", "impressions_per_s visible_p50_ms"},
		metricDef{"collector.conn_ms_p99", "ms", "impressions_per_s visible_p99_ms"},
		metricDef{"collector.bytes_in_per_session", "B", "impressions_per_s"},
		metricDef{"store.commit_lag_p50_ms", "ms", "visible_p50_ms"},
		metricDef{"store.commit_lag_p99_ms", "ms", "visible_p99_ms"},
		metricDef{"streamaudit.apply_lag_p50_ms", "ms", "visible_p50_ms"},
		metricDef{"streamaudit.apply_lag_p99_ms", "ms", "visible_p99_ms"},
		metricDef{"streamaudit.backlog_max", "count", "visible_p99_ms"},
		metricDef{"streamaudit.resyncs", "count", "visible_p99_ms"},
		metricDef{"store.feed_drops", "count", "visible_p99_ms"},
		metricDef{"streamaudit.report_ms", "ms", "report_ms"},
		metricDef{"gateway.conn_ms_p50", "ms", "impressions_per_s visible_p50_ms"},
		metricDef{"gateway.conn_ms_p99", "ms", "impressions_per_s visible_p99_ms"},
		metricDef{"router.conn_ms_p50", "ms", "impressions_per_s visible_p50_ms"},
		metricDef{"router.conn_ms_p99", "ms", "impressions_per_s visible_p99_ms"},
		metricDef{"trunk.gw_bytes_per_impression", "B", "impressions_per_s"},
		metricDef{"trunk.gw_writes_per_impression", "count", "impressions_per_s"},
		metricDef{"trunk.shard_bytes_per_impression", "B", "impressions_per_s"},
		metricDef{"trunk.shard_writes_per_impression", "count", "impressions_per_s"},
		metricDef{"gateway.spill_max", "count", "visible_p99_ms"},
		metricDef{"router.spill_max", "count", "visible_p99_ms"},
		metricDef{"shardmerge.skew", "ratio", "visible_p99_ms"},
		metricDef{"shardmerge.fetch_ms", "ms", "report_ms"},
		metricDef{"shardmerge.merge_ms", "ms", "report_ms"},
		metricDef{"streamaudit.static_report_ms", "ms", "report_ms"},
		metricDef{"trace.overhead_ratio", "ratio", "batch_s impressions_per_s"},
	)
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config, r *results) error{
	"paper-batch":   runPaperBatch,
	"beacon-direct": func(cfg config, r *results) error { return runBeacon(cfg, r, false) },
	"beacon-chain":  func(cfg config, r *results) error { return runBeacon(cfg, r, true) },
}

// setups is how many times an untraced run builds its universes,
// dataset and servers; setup_s is their median.
const setups = 3

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir holds the run's write-ahead logs; it lies inside the
	// working directory and is removed at exit.
	dir string
}

// results gathers one run's metrics, sample counts and checks.
type results struct {
	values    map[string]float64
	counts    map[string]int
	missing   map[string]string
	checks    []checkResult
	attempted int
	failed    int
}

// checkResult is a check made once per round or iteration: it passes
// when every run passed, and keeps the detail of the first failure or
// else of the last run.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Runs   int    `json:"runs"`
	Detail string `json:"detail,omitempty"`
}

func newResults() *results {
	return &results{values: map[string]float64{}, counts: map[string]int{}, missing: map[string]string{}}
}

// set records a metric measured from n samples.
func (r *results) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
	delete(r.missing, name)
}

// quantile records the p-quantile of s, or marks it missing when s has
// too few samples beyond it.
func (r *results) quantile(name string, s series, p float64) {
	v, ok := s.quantile(p)
	if !ok {
		r.miss(name, fmt.Sprintf("%d samples, fewer than %d beyond p%g", len(s), minBeyond, p*100))
		return
	}
	r.set(name, v, len(s))
}

func (r *results) miss(name, why string) {
	if _, ok := r.values[name]; !ok {
		r.missing[name] = why
	}
}

// check records a correctness check; a failed check fails the run.
func (r *results) check(name string, ok bool, detail string) {
	for i := range r.checks {
		if c := &r.checks[i]; c.Name == name {
			c.Runs++
			if c.OK {
				c.OK, c.Detail = ok, detail
			}
			return
		}
	}
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Runs: 1, Detail: detail})
}

func (r *results) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0 && len(r.checks) > 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the human-readable table, the run metadata line and,
// last, the JSON result line. A missing metric is printed as 0 and
// named in the metadata's "missing" map; a traced run's "moves" map
// covers only the metrics it measured.
func (r *results) print(w io.Writer, cfg config, defs []metricDef) error {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	missing := map[string]string{}
	moves := map[string]string{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			why := r.missing[d.name]
			if why == "" {
				why = "layer not run by " + cfg.workload
			}
			missing[d.name] = why
			fmt.Fprintf(w, "%-36s %14s %-6s (%s)\n", d.name, "missing", d.unit, why)
		} else {
			fmt.Fprintf(w, "%-36s %14.4f %-6s n=%d\n", d.name, v, d.unit, r.counts[d.name])
			if d.moves != "" {
				moves[d.name] = d.moves
			}
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	sort.Slice(r.checks, func(i, j int) bool { return r.checks[i].Name < r.checks[j].Name })
	for _, c := range r.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-36s %-6s runs=%d %s\n", c.Name, status, c.Runs, c.Detail)
	}
	samples := map[string]int{}
	for _, d := range defs {
		if _, ok := r.values[d.name]; ok {
			samples[d.name] = r.counts[d.name]
		}
	}
	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"seconds":    cfg.seconds.Seconds(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"samples":    samples,
		"missing":    missing,
		"checks":     r.checks,
	}
	if cfg.trace {
		meta["moves"] = moves
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return enc.Encode(out)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The programs under test log operational events; the benchmark's
	// standard output carries only its own report.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := execute(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var secs, trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "paper-batch, beacon-direct or beacon-chain")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&secs, "seconds", 10, "length of the measured load")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok || secs < 1 || (trace != 0 && trace != 1) {
		return cfg, fmt.Errorf("usage: --workload paper-batch|beacon-direct|beacon-chain --seed N --seconds S --trace 0|1")
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	return cfg, nil
}

// execute runs one workload and prints its report to w.
func execute(cfg config, w io.Writer) error {
	dir, err := os.MkdirTemp(".", ".perfbench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	r := newResults()
	if err := workloads[cfg.workload](cfg, r); err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	// A failed check is also written to standard error, where a
	// harness that keeps only the result line still sees why.
	for _, c := range r.checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", r.failed, r.attempted)
	}
	return r.print(w, cfg, defs)
}
