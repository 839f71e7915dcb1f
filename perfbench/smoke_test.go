package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that the output names exactly the metrics BENCHMARK.json
// declares, with their units, and that every correctness and
// accounting check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the paper's datasets; skipped with -short")
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				cfg, err := parseFlags([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace})
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := execute(cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				var meta struct {
					Meta struct {
						Missing map[string]string `json:"missing"`
						Checks  []checkResult     `json:"checks"`
					} `json:"meta"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &meta); err != nil {
					t.Fatal(err)
				}
				want := bench.EndToEnd
				if cfg.trace {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing from the result", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
					case !cfg.trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if !cfg.trace && len(meta.Meta.Missing) > 0 {
					t.Errorf("end-to-end metrics missing: %v", meta.Meta.Missing)
				}
				if cfg.trace && w.Name != "paper-batch" {
					for _, name := range []string{"adnet.run_ms", "collector.ingest_calls", "audit.serial_ms", "report.render_ms"} {
						if _, ok := meta.Meta.Missing[name]; !ok {
							t.Errorf("%s reports %s, a layer only paper-batch runs", w.Name, name)
						}
					}
				}
				for _, c := range meta.Meta.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
			})
		}
	}
}
