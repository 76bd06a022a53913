package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ooc/internal/sim"
)

// TestParallelOutputByteIdentical: `oocbench -csv` must print the same
// bytes whether the grid is evaluated serially or on the pool — the
// determinism guarantee the evaluation pipeline advertises. The paper
// grid (216 instances) keeps the test fast while still exercising
// every use case.
func TestParallelOutputByteIdentical(t *testing.T) {
	render := func(workers int) (string, string) {
		var out, errOut bytes.Buffer
		cfg := config{paperGrid: true, csv: true, workers: workers}
		if err := run(context.Background(), cfg, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String(), errOut.String()
	}
	serialOut, serialErr := render(1)
	if serialErr != "" {
		t.Fatalf("unexpected warnings on the serial run:\n%s", serialErr)
	}
	if !strings.Contains(serialOut, "Table I") {
		t.Fatal("serial run did not render Table I")
	}
	for _, workers := range []int{0, 4} {
		parOut, parErr := render(workers)
		if parErr != "" {
			t.Fatalf("unexpected warnings with %d workers:\n%s", workers, parErr)
		}
		if parOut != serialOut {
			t.Fatalf("output with workers=%d differs from the serial run", workers)
		}
	}
}

// TestCSVAndTableShareAggregation: the -csv switch must change only
// the rendering, not the evaluated data.
func TestCSVAndTableShareAggregation(t *testing.T) {
	var csvOut, tblOut, errOut bytes.Buffer
	if err := run(context.Background(), config{paperGrid: true, csv: true, workers: 0}, &csvOut, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), config{paperGrid: true, workers: 0}, &tblOut, &errOut); err != nil {
		t.Fatal(err)
	}
	// Both outputs carry every use-case name.
	for _, name := range []string{"male_simple", "female_simple", "male_gi_tract", "male_kidney", "generic1", "generic4"} {
		if !strings.Contains(csvOut.String(), name) {
			t.Errorf("CSV output lacks %s", name)
		}
		if !strings.Contains(tblOut.String(), name) {
			t.Errorf("table output lacks %s", name)
		}
	}
}

// TestFig4Only: -fig4 must stop before the grid evaluation.
func TestFig4Only(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(context.Background(), config{fig4Only: true}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Table I") {
		t.Fatal("-fig4 must not evaluate the grid")
	}
}

// TestExpiredDeadlineFailsFastWithDeadlineError: an already-expired
// budget (the `-timeout 1ms` smoke in scripts/check.sh) must return
// promptly with an error that wraps context.DeadlineExceeded and
// mentions the deadline, not hang or report a generic solver failure.
func TestExpiredDeadlineFailsFastWithDeadlineError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()

	var out, errOut bytes.Buffer
	start := time.Now()
	err := run(ctx, config{paperGrid: true}, &out, &errOut)
	if err == nil {
		t.Fatal("expired deadline must fail the run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error %q does not mention the deadline", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired-deadline run took %v, want < 1s", elapsed)
	}
}

// TestCancelledGridFlushesPartialTable: cancellation mid-run must
// still flush the (possibly empty) Table I scaffold rendered so far
// and report how many instances finished — the partial-results
// contract of the CLI.
func TestCancelledGridFlushesPartialTable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// The fig4 section validates with a live context; cancel right
	// after it by racing a short timer against the (much longer) grid.
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	var out, errOut bytes.Buffer
	err := run(ctx, config{paperGrid: true}, &out, &errOut)
	if err == nil {
		t.Skip("run finished before the cancel landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if strings.Contains(out.String(), "Table I") && !strings.Contains(err.Error(), "partial results") {
		t.Fatalf("grid abort error %q does not flag partial results", err)
	}
}

// TestStatsReportsTelemetryAndCacheHits: -stats must print the
// telemetry summary, select the numeric model under -model auto, and
// observe a positive cross-section cache hit rate (same-aspect
// channels share one normalized solve).
func TestStatsReportsTelemetryAndCacheHits(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(context.Background(), config{fig4Only: true, stats: true}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "solver telemetry") {
		t.Fatal("-stats output lacks the telemetry summary")
	}
	if !strings.Contains(s, "sor:") {
		t.Fatal("-stats under -model auto must run the numeric (SOR) model")
	}
	if !strings.Contains(s, "cross-section cache:") || strings.Contains(s, "no lookups") {
		t.Fatalf("-stats output lacks cache traffic:\n%s", s)
	}
	if strings.Contains(s, "hit rate 0.0%") {
		t.Fatalf("expected a positive cache hit rate:\n%s", s)
	}
}

// TestModelFlagRejectsUnknown: the -model flag validates its value.
func TestModelFlagRejectsUnknown(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), config{model: "spectral"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "-model") {
		t.Fatalf("unknown model must fail with a -model error, got %v", err)
	}
}

// TestModelFlagValidation: table over every -model spelling, including
// the oocbench-specific "auto" (numeric under -stats, exact otherwise)
// and the shared spellings from sim.ParseModel. Unknown values must
// error with a message listing the valid models.
func TestModelFlagValidation(t *testing.T) {
	cases := []struct {
		model   string
		stats   bool
		want    sim.Model
		wantErr bool
	}{
		{model: "", want: sim.ModelExact},
		{model: "auto", want: sim.ModelExact},
		{model: "auto", stats: true, want: sim.ModelNumeric},
		{model: "exact", want: sim.ModelExact},
		{model: "exact", stats: true, want: sim.ModelExact}, // explicit model beats -stats
		{model: "approx", want: sim.ModelApprox},
		{model: "numeric", want: sim.ModelNumeric},
		{model: "dynamic", want: sim.ModelDynamic},
		{model: "bogus", wantErr: true},
		{model: "Numeric", wantErr: true},
	}
	for _, tc := range cases {
		opt, _, err := config{model: tc.model, stats: tc.stats}.simOptions()
		if tc.wantErr {
			if err == nil {
				t.Errorf("model %q: expected an error", tc.model)
				continue
			}
			if !strings.Contains(err.Error(), sim.ModelNames) {
				t.Errorf("model %q: error does not list valid models: %v", tc.model, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("model %q stats=%v: %v", tc.model, tc.stats, err)
			continue
		}
		if opt.Model != tc.want {
			t.Errorf("model %q stats=%v: got %v want %v", tc.model, tc.stats, opt.Model, tc.want)
		}
		if tc.want == sim.ModelDynamic {
			if err := opt.Dynamic.Validate(); err != nil {
				t.Errorf("model %q: dynamic options not populated: %v", tc.model, err)
			}
		}
	}
}

// TestJSONRoundTripAndDiff: a -json run must emit a parseable benchDoc,
// a -diff against that very document must pass, and a tampered
// baseline must fail with a nonzero (error) outcome naming the drifted
// cell. Uses the paper grid under the exact model to stay fast.
func TestJSONRoundTripAndDiff(t *testing.T) {
	ctx := context.Background()
	base := config{paperGrid: true, jsonOut: true}
	var out, errOut bytes.Buffer
	if err := run(ctx, base, &out, &errOut); err != nil {
		t.Fatalf("json run: %v (stderr: %s)", err, errOut.String())
	}
	var doc benchDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not a benchDoc: %v", err)
	}
	if doc.Schema != benchSchema || doc.Grid != "paper" || len(doc.Rows) == 0 {
		t.Fatalf("document malformed: %+v", doc)
	}
	if doc.Instances != 216 {
		t.Fatalf("paper grid is 216 instances, document says %d", doc.Instances)
	}

	baseline := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(baseline, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	diffCfg := base
	diffCfg.diffPath = baseline
	diffCfg.diffAccTol = 0.01
	diffCfg.diffWallTol = 100 // the two runs race on a loaded test machine
	diffCfg.diffIterTol = 1.25
	var diffOut, diffErr bytes.Buffer
	if err := run(ctx, diffCfg, &diffOut, &diffErr); err != nil {
		t.Fatalf("self-diff must pass: %v (stderr: %s)", err, diffErr.String())
	}
	if !strings.Contains(diffOut.String(), "benchdiff: OK") {
		t.Fatalf("self-diff did not report OK: %s", diffOut.String())
	}

	// Tamper with one deviation cell beyond the tolerance: regression.
	doc.Rows[0].FlowMaxPct += 1.0
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	diffOut.Reset()
	diffErr.Reset()
	err = run(ctx, diffCfg, &diffOut, &diffErr)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("tampered baseline must fail with a regression error, got %v", err)
	}
	if !strings.Contains(diffErr.String(), "flow max") {
		t.Fatalf("regression report does not name the drifted cell: %s", diffErr.String())
	}

	// A baseline from a different grid or model is not comparable.
	mismatch := diffCfg
	mismatch.paperGrid = false
	if err := run(ctx, mismatch, &diffOut, &diffErr); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("grid mismatch must fail as not comparable, got %v", err)
	}
}

// TestPaperGridMatchesBench5: the committed BENCH_5.json is a hard
// check, not only a CI warning. The paper grid under the numeric model
// must reproduce its deviation cells within the default ±0.01 pct band
// and its solver iteration counts within the default 1.25× band; both
// are deterministic. Wall clock depends on the host, so its band is
// off.
func TestPaperGridMatchesBench5(t *testing.T) {
	cfg := config{
		paperGrid: true, jsonOut: true, model: "numeric",
		diffPath:   filepath.Join("..", "..", "BENCH_5.json"),
		diffAccTol: 0.01, diffWallTol: math.Inf(1), diffIterTol: 1.25,
	}
	var out, errOut bytes.Buffer
	if err := run(context.Background(), cfg, &out, &errOut); err != nil {
		t.Fatalf("paper grid drifted from BENCH_5.json: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "benchdiff: OK") {
		t.Fatalf("diff did not report OK: %s", out.String())
	}
}
