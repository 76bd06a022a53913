package server

import (
	"fmt"
	"strings"
	"time"

	"ooc/internal/obs"
)

// renderMetrics renders the /metrics text exposition from a collector
// snapshot plus the live admission gauges. The format is the
// conventional one-metric-per-line exposition (Prometheus-style names
// and labels) so standard scrapers and plain grep both work. Ordering
// is deterministic: gauges first, then counters and histograms, each
// sorted by the Summary's own ordering. The Summary's solver,
// cross-section cache and degradation aggregates are not rendered: no
// served request runs the FDM, the only path that records them.
func renderMetrics(s obs.Summary, inflight, queued, jobsRunning, jobsQueued int64, uptime time.Duration) string {
	var b strings.Builder
	b.WriteString("# oocd metrics\n")
	fmt.Fprintf(&b, "ooc_uptime_seconds %.3f\n", uptime.Seconds())
	fmt.Fprintf(&b, "ooc_inflight %d\n", inflight)
	fmt.Fprintf(&b, "ooc_queued %d\n", queued)
	fmt.Fprintf(&b, "ooc_jobs_running %d\n", jobsRunning)
	fmt.Fprintf(&b, "ooc_jobs_queued %d\n", jobsQueued)

	for _, c := range s.Counters {
		switch parts := strings.Split(c.Name, "."); {
		case len(parts) == 3 && parts[0] == "requests":
			fmt.Fprintf(&b, "ooc_requests_total{endpoint=%q,status=%q} %d\n", parts[1], parts[2], c.Value)
		case c.Name == "server.cache.hits":
			fmt.Fprintf(&b, "ooc_response_cache_hits_total %d\n", c.Value)
		case c.Name == "server.cache.misses":
			fmt.Fprintf(&b, "ooc_response_cache_misses_total %d\n", c.Value)
		case c.Name == "server.cache.join_aborts":
			fmt.Fprintf(&b, "ooc_response_cache_join_aborts_total %d\n", c.Value)
		case c.Name == "server.cache.snapshot.exports":
			fmt.Fprintf(&b, "ooc_cache_snapshot_exports_total %d\n", c.Value)
		case c.Name == "server.cache.snapshot.imports":
			fmt.Fprintf(&b, "ooc_cache_snapshot_imports_total %d\n", c.Value)
		case c.Name == "server.cache.import.responses":
			fmt.Fprintf(&b, "ooc_cache_imported_entries_total{cache=\"response\"} %d\n", c.Value)
		case c.Name == "jobs.submitted":
			fmt.Fprintf(&b, "ooc_jobs_submitted_total %d\n", c.Value)
		case c.Name == "jobs.rejected":
			fmt.Fprintf(&b, "ooc_jobs_rejected_total %d\n", c.Value)
		case len(parts) == 3 && parts[0] == "jobs" && parts[1] == "completed":
			fmt.Fprintf(&b, "ooc_jobs_completed_total{state=%q} %d\n", parts[2], c.Value)
		case len(parts) == 3 && parts[0] == "modelsel" && parts[1] == "selected":
			// modelsel.selected.<rung> — rung names ("approx",
			// "exact") contain no dot, so the split is exact.
			fmt.Fprintf(&b, "ooc_model_selected_total{rung=%q} %d\n", parts[2], c.Value)
		case c.Name == "modelsel.explicit_override":
			fmt.Fprintf(&b, "ooc_model_selection_overridden_total %d\n", c.Value)
		case c.Name == "modelsel.unmeetable":
			fmt.Fprintf(&b, "ooc_model_selection_unmeetable_total %d\n", c.Value)
		case len(parts) == 4 && parts[0] == "optimize" && parts[1] == "halving":
			// optimize.halving.rung<N>.evaluated|kept
			fmt.Fprintf(&b, "ooc_halving_rung_%s_total{rung=%q} %d\n",
				parts[3], strings.TrimPrefix(parts[2], "rung"), c.Value)
		default:
			fmt.Fprintf(&b, "ooc_counter{name=%q} %d\n", c.Name, c.Value)
		}
	}

	for _, t := range s.Timings {
		// request.<endpoint> are the HTTP latencies; job.wall is the
		// search-job wall-clock histogram.
		family := "ooc_request_duration_micros"
		endpoint := strings.TrimPrefix(t.Name, "request.")
		if strings.HasPrefix(t.Name, "job.") {
			family = "ooc_job_duration_micros"
			endpoint = strings.TrimPrefix(t.Name, "job.")
		}
		if t.Name == "modelsel.select" {
			family = "ooc_model_selection_duration_micros"
			endpoint = "select"
		}
		var cum int64
		for _, bk := range t.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{endpoint=%q,le=\"%d\"} %d\n",
				family, endpoint, bk.HiMicros, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", family, endpoint, t.Count)
		fmt.Fprintf(&b, "%s_sum{endpoint=%q} %d\n", family, endpoint, t.Total.Microseconds())
		fmt.Fprintf(&b, "%s_count{endpoint=%q} %d\n", family, endpoint, t.Count)
	}
	return b.String()
}
