package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// smokeConfig is a run small enough for the race detector: one set-up,
// a handful of ops, no time floor.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{
		seed:      defaultSeed,
		minOps:    24,
		setups:    1,
		sliceOps:  24,
		warmupOps: 4,
		trace:     true,
		traceOut:  filepath.Join(t.TempDir(), "spans.tsv"),
	}
}

// TestSmokeAllWorkloads runs every workload end to end, traced, on a
// tiny op count: every op must pass its checks, and every metric named
// in BENCHMARK.json must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			rep, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			if got := missingEndToEnd(rep); got != "p99_ms" {
				t.Errorf("a 24-op run should lack only the p99, lacks %q", got)
			}
			have := map[string]string{}
			for _, m := range append(rep.endToEnd, rep.layers...) {
				have[m.name] = m.unit
			}
			have["p99_ms"] = "ms"
			for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
				if unit, ok := have[m.Name]; !ok || unit != m.Unit {
					t.Errorf("metric %s: reported unit %q (present %v), BENCHMARK.json says %q", m.Name, unit, ok, m.Unit)
				}
			}
			if len(have) != len(doc.EndToEnd)+len(doc.PerLayer) {
				t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(have), len(doc.EndToEnd)+len(doc.PerLayer))
			}
			if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestResultLine pins the shape of the last output line.
func TestResultLine(t *testing.T) {
	rep := &report{attempted: 3, timedOps: 1000}
	for _, name := range endToEnd {
		rep.add(name, "u", 1)
	}
	rep.layers = []metric{{name: "core.iterations", unit: "count", value: 2}}
	for _, traced := range []bool{false, true} {
		line, err := resultLine(rep, traced)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(out))
		for k := range out {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := keys; len(got) != 4 || got[0] != "attempted" || got[1] != "correct" || got[2] != "failed" || got[3] != "metrics" {
			t.Errorf("keys = %v", got)
		}
		var metrics map[string]struct{ Value float64 }
		if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if traced {
			want = 1
		}
		if len(metrics) != want {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), want)
		}
	}
	rep.endToEnd = rep.endToEnd[:2]
	if _, err := resultLine(rep, false); err == nil {
		t.Error("a run without a p99 produced a result line")
	}
}
