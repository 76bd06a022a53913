// Command perfbench is the repository's benchmark: it drives the real
// oocd handler in-process through one of four seeded workloads and
// prints the end-to-end metrics, or with -trace 1 the per-layer ones,
// as the last line of its output:
//
//	go run . -workload serve_cold -seed 1 -seconds 15 -trace 0
//
// README.md explains the workloads, the metrics and the noise rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Fixed load shape: two closed-loop clients on two procs, the host's
// CPU count. They are constants, not flags, so every run of every
// commit measures the same thing; the output records both.
const (
	clients    = 2
	gomaxprocs = 2
)

// defaultSeed is the seed changes are developed against; heldOutSeed
// is kept back so a claimed gain can be confirmed on inputs nobody
// tuned for.
const (
	defaultSeed uint64 = 1
	heldOutSeed uint64 = 20240325
)

// Run shape: every run sets up nine times and reports the median; a
// timed phase covers at least 1 000 ops so its p99 has ten samples
// beyond it; search clients poll their job every 500 µs.
const (
	setups    = 9
	minOps    = 1000
	pollEvery = 500 * time.Microsecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 10, "timed seconds per phase")
	trace := fs.Int("trace", 0, "1 adds the traced per-layer run and reports its metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		say(stderr, "perfbench: want -workload one of %s, -trace 0|1, -seconds >= 0\n", strings.Join(names, ", "))
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	cfg := runConfig{
		seed:    *seed,
		seconds: *seconds,
		minOps:  minOps,
		setups:  setups,
		trace:   *trace == 1,
	}
	say(stdout, "%s\n", environment(w.name, cfg))
	rep, err := runWorkload(w, cfg)
	if err != nil {
		say(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range rep.failures {
		say(stderr, "perfbench: failed: %s\n", f)
	}
	say(stdout, "%s\n", joinNotes(rep))
	line, err := resultLine(rep, cfg.trace)
	if err != nil {
		say(stderr, "perfbench: %v\n", err)
		return 1
	}
	say(stdout, "%s\n", line)
	return 0
}

// environment is the run's provenance line.
func environment(workload string, cfg runConfig) string {
	env, err := json.Marshal(map[string]any{
		"go":         runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"clients":    clients,
		"cpu":        cpuModel(),
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	})
	if err != nil {
		return fmt.Sprintf("env: %v", err)
	}
	return "env " + string(env)
}

// cpuModel reads the CPU model name where the OS exposes it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resultLine is the final output line. Without tracing it carries the
// end-to-end metrics; with tracing, the per-layer ones.
func resultLine(rep *report, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if missing := missingEndToEnd(rep); missing != "" {
		return "", fmt.Errorf("no %s: %d timed ops leave fewer than %d samples beyond it", missing, rep.timedOps, minBeyond)
	}
	list := rep.endToEnd
	if traced {
		list = rep.layers
	}
	metrics := map[string]value{}
	for _, m := range list {
		metrics[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return "", fmt.Errorf("result line: %w", err)
	}
	return string(out), nil
}

// endToEnd names the end-to-end metrics every run must report.
var endToEnd = []string{"ops_per_s", "p50_ms", "p99_ms", "alloc_kb_per_op", "live_heap_mb", "setup_s"}

// missingEndToEnd names the first end-to-end metric the run could not
// report, or "".
func missingEndToEnd(rep *report) string {
	for _, name := range endToEnd {
		if _, ok := rep.value(name); !ok {
			return name
		}
	}
	return ""
}

// say prints to w; a failed write of the benchmark's own output leaves
// nothing to report it to.
func say(w io.Writer, format string, a ...any) {
	_, _ = fmt.Fprintf(w, format, a...)
}
