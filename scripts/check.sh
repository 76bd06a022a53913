#!/bin/sh
# Extended verification: formatting/tidy hygiene, build, vet,
# race-enabled tests, the repo's own domain-aware static analysis
# (ooclint), and vet + tests of the benchmark module (perfbench/). CI
# and local pre-merge runs should both go through this script.
#
# Every artifact (smoke binaries, daemon logs) lives in a private
# mktemp directory, so concurrent runs — two CI jobs on one runner, a
# local run racing CI — never collide; the daemon smoke binds an
# ephemeral port for the same reason. Each step is timed and a summary
# is printed at the end, so slow steps are visible at a glance.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ooc-check.XXXXXX")
TIMINGS="$WORK/timings"
trap 'rm -rf "$WORK"' EXIT INT TERM

step() {
    _name=$1
    shift
    echo "==> $_name"
    _t0=$(date +%s)
    "$@"
    _t1=$(date +%s)
    printf '  %-22s %4ds\n' "$_name" "$((_t1 - _t0))" >> "$TIMINGS"
}

# Hygiene: the tree must be gofmt-clean (testdata is excluded — the
# analyzer fixtures pin exact source positions) and go.mod/go.sum must
# already be tidy. Both checks print the offending files/diff, so a
# failure is immediately actionable.
hygiene() {
    _unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
    if [ -n "$_unformatted" ]; then
        echo "gofmt: the following files need formatting (gofmt -w):" >&2
        echo "$_unformatted" >&2
        return 1
    fi
    go mod tidy -diff || {
        echo "go.mod/go.sum are not tidy — run: go mod tidy" >&2
        return 1
    }
}
step hygiene hygiene

step build go build ./...
step vet go vet ./...
step test go test -race ./...
step ooclint go run ./cmd/ooclint ./...

# The benchmark is a module of its own (perfbench/go.mod, replace ooc
# => ../), so the root `go build ./...` and `go test ./...` never
# compile it. It imports internal packages, so vet and test it here:
# an internal API change must not break the benchmark unnoticed.
perfbench_tests() {
    go -C perfbench vet ./...
    go -C perfbench test ./...
}
step perfbench-tests perfbench_tests

# Fuzz smoke: every native fuzz target runs for a short fixed budget
# instead of only replaying its seeds. A failing input is written under
# the package's testdata/fuzz directory, ready to commit as a seed.
fuzz_smoke() {
    for _target in \
        ./internal/specio:FuzzCanonicalRoundTrip \
        ./internal/cachesnap:FuzzRead \
        ./internal/analysis:FuzzBaselineRoundTrip \
        ./internal/server:FuzzParseDynamicQuery; do
        go test -run '^$' -fuzz "^${_target#*:}\$" -fuzztime=5s "${_target%%:*}" || return 1
    done
}
step fuzz-smoke fuzz_smoke

# Examples smoke: `go build ./...` compiles examples/ but nothing runs
# them, so a runtime break in a public API would ship unnoticed. Build
# and run all seven; they run inside $WORK because male_simple and
# patient_specific write .svg, .json and .png files into the current
# directory.
examples_smoke() {
    mkdir -p "$WORK/examples"
    go build -o "$WORK/examples/" ./examples/...
    _ran=0
    for _bin in "$WORK"/examples/*; do
        _ex=$(basename "$_bin")
        (cd "$WORK" && "$_bin") > "$WORK/example-$_ex.out" 2>&1 || {
            echo "example $_ex failed:" >&2
            cat "$WORK/example-$_ex.out" >&2
            return 1
        }
        _ran=$((_ran + 1))
    done
    [ "$_ran" -eq 7 ] || {
        echo "examples smoke ran $_ran examples, want 7" >&2
        return 1
    }
}
step examples-smoke examples_smoke

# Smoke-run the headline benchmarks once (-benchtime=1x): catches
# bit-rot in the parallel evaluation path and the cross-section cache
# without paying for a full measurement run.
bench_smoke() {
    go test -run '^$' -bench 'BenchmarkTableIParallel|BenchmarkCrossSectionCached' -benchtime=1x .
}
step bench-smoke bench_smoke

# Cancellation smoke: an already-expired deadline must abort the grid
# evaluation promptly (cooperative ctx checks in every solver loop),
# exit nonzero, and say why. GOTRACEBACK=all would dump goroutines on
# a deadlock; `timeout` turns a hang (leaked worker blocking exit)
# into a failure.
cancel_smoke() {
    go build -o "$WORK/oocbench" ./cmd/oocbench
    if out=$(timeout 30 env GOTRACEBACK=all "$WORK/oocbench" -timeout 1ms 2>&1); then
        echo "oocbench -timeout 1ms should have exited nonzero" >&2
        return 1
    fi
    echo "$out" | grep -q "deadline" || {
        echo "oocbench -timeout 1ms did not mention the deadline:" >&2
        echo "$out" >&2
        return 1
    }
}
step cancel-smoke cancel_smoke

# Telemetry smoke: -stats on the Fig. 4 instance must report cache
# traffic with a positive hit rate (same-aspect channels share one
# normalized cross-section solve). The pattern requires at least one
# hit, so "cross-section cache: no lookups" fails it.
stats_smoke() {
    "$WORK/oocbench" -fig4 -stats | grep -qE "cross-section cache: [1-9][0-9]* hits" || {
        echo "oocbench -stats did not report a cross-section cache hit" >&2
        return 1
    }
}
step stats-smoke stats_smoke

# start_oocd <logfile> [oocd flags...]: boot the daemon, wait for its
# listen line, and export OOCD_PID/ADDR. stop_oocd drains it with
# SIGTERM and fails if it has not exited within 2s.
start_oocd() {
    _log=$1
    shift
    "$WORK/oocd" "$@" > "$_log" 2>&1 &
    OOCD_PID=$!
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR=$(sed -n 's/^oocd: listening on //p' "$_log")
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    [ -n "$ADDR" ] || {
        echo "oocd never reported its listen address" >&2
        cat "$_log" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
}

stop_oocd() {
    kill -TERM "$OOCD_PID"
    ( sleep 2; kill -KILL "$OOCD_PID" 2>/dev/null ) &
    KILLER_PID=$!
    wait "$OOCD_PID" || {
        echo "oocd did not exit cleanly within 2s of SIGTERM" >&2
        return 1
    }
    kill "$KILLER_PID" 2>/dev/null || true
}

# Daemon smoke: oocd on an ephemeral port must answer /healthz, solve
# one /v1/design, show the request in /metrics (all probed by
# oocload -smoke, no curl needed), and drain cleanly within 2s of
# SIGTERM. `timeout` turns a wedged drain into a failure.
oocd_smoke() {
    go build -o "$WORK/oocd" ./cmd/oocd
    go build -o "$WORK/oocload" ./cmd/oocload
    start_oocd "$WORK/oocd.out" -addr 127.0.0.1:0 || return 1
    "$WORK/oocload" -url "http://$ADDR" -smoke || {
        echo "oocd smoke probe failed" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    # Jobs smoke: submit a successive-halving search job against the
    # same daemon, poll it to completion, and assert it found a
    # feasible best with fewer full-fidelity evaluations than the
    # exhaustive grid pays.
    timeout 120 "$WORK/oocload" -url "http://$ADDR" -jobs || {
        echo "oocd jobs probe failed" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    stop_oocd
}
step oocd-smoke oocd_smoke

# Budget smoke: accuracy-budgeted model auto-selection end to end. An
# ?error_budget= request must select a non-numeric rung from the
# embedded calibration table (1% comfortably admits the approx rung),
# echo it in X-OOC-Model-Selected and the report body, and an
# identical repeat must be a response-cache hit carrying the same
# header. An unmeetable budget must be a 400 naming the tightest
# achievable rung, and an explicit ?model= must win over the budget.
# All probed by oocload -budget-probe, no curl needed.
budget_smoke() {
    start_oocd "$WORK/budget-oocd.out" -addr 127.0.0.1:0 || return 1
    timeout 60 "$WORK/oocload" -url "http://$ADDR" -budget-probe || {
        echo "oocd budget probe failed" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    stop_oocd
}
step budget-smoke budget_smoke

# Dynamic smoke: the transient tier end to end. A pulsatile dosed
# oocsim run on the Fig. 4 chip must saturate every organ at the dose
# (pinned final concentrations — the t→∞ steady state), and the daemon
# must reject a simulated span that cannot fit the request's deadline
# budget with a clean 400 before burning any solve time.
dynamic_smoke() {
    go build -o "$WORK/oocgen" ./cmd/oocgen
    go build -o "$WORK/oocsim" ./cmd/oocsim
    "$WORK/oocgen" -usecase male_simple -json "$WORK/chip.json" -validate=false || return 1
    "$WORK/oocsim" -model dynamic -duration 4s -pump-profile pulse:0.5@500ms -dose 1 \
        "$WORK/chip.json" > "$WORK/dynamic.out" || {
        echo "oocsim -model dynamic failed" >&2
        cat "$WORK/dynamic.out" >&2
        return 1
    }
    grep -q "final concentrations: lung=1.000 liver=1.000 brain=1.000" "$WORK/dynamic.out" || {
        echo "dynamic run did not saturate the organ chain at the dose:" >&2
        cat "$WORK/dynamic.out" >&2
        return 1
    }
    grep -q "arrivals: lung=" "$WORK/dynamic.out" || {
        echo "dynamic run reported no arrival times" >&2
        return 1
    }
    # The over-budget rejection (and one good transient request) over
    # HTTP, via the oocload probe against a fresh daemon.
    start_oocd "$WORK/dyn-oocd.out" -addr 127.0.0.1:0 || return 1
    timeout 60 "$WORK/oocload" -url "http://$ADDR" -dynamic || {
        echo "oocd dynamic probe failed" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    stop_oocd
}
step dynamic-smoke dynamic_smoke

# Warm-boot smoke: a daemon killed and restarted with -cache-snapshot
# must serve a previously-seen spec straight from the restored cache —
# the first request after restart is a response-cache hit with zero
# misses, pinned through /metrics. A corrupt snapshot must be rejected
# with a clear message while the daemon still starts (cold) and
# serves.
snapshot_smoke() {
    SNAP="$WORK/cache.oocsnap"

    # Populate: one exact validate, drain on SIGTERM persists the
    # snapshot.
    start_oocd "$WORK/snap1.out" -addr 127.0.0.1:0 -cache-snapshot "$SNAP" || return 1
    "$WORK/oocload" -url "http://$ADDR" -n 1 -c 1 -endpoint validate -model exact || {
        echo "populate request failed" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    stop_oocd || return 1
    [ -f "$SNAP" ] || {
        echo "oocd drain did not persist $SNAP" >&2
        cat "$WORK/snap1.out" >&2
        return 1
    }

    # Warm restart: the same request must be a hit without solving.
    start_oocd "$WORK/snap2.out" -addr 127.0.0.1:0 -cache-snapshot "$SNAP" || return 1
    grep -q "restored" "$WORK/snap2.out" || {
        echo "warm boot did not report a restored snapshot:" >&2
        cat "$WORK/snap2.out" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    "$WORK/oocload" -url "http://$ADDR" -n 1 -c 1 -endpoint validate -model exact || {
        echo "warm request failed" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    "$WORK/oocload" -url "http://$ADDR" -metrics > "$WORK/snap-metrics.txt" || {
        echo "metrics fetch failed" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    # Counters materialize on first increment, so a warm daemon that
    # never missed must show hits == 1 and *no* misses line at all.
    if ! grep -q "^ooc_response_cache_hits_total 1$" "$WORK/snap-metrics.txt" \
        || grep -q "^ooc_response_cache_misses_total" "$WORK/snap-metrics.txt"; then
        echo "warm boot did not serve the request from the restored cache:" >&2
        grep "cache" "$WORK/snap-metrics.txt" >&2 || true
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    fi
    stop_oocd || return 1

    # A corrupt snapshot is rejected loudly and the daemon starts cold.
    printf 'definitely not a snapshot' > "$SNAP"
    start_oocd "$WORK/snap3.out" -addr 127.0.0.1:0 -cache-snapshot "$SNAP" -snapshot-interval 0 || return 1
    grep -q "rejected" "$WORK/snap3.out" && grep -q "starting cold" "$WORK/snap3.out" || {
        echo "corrupt snapshot was not rejected with a clear message:" >&2
        cat "$WORK/snap3.out" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    "$WORK/oocload" -url "http://$ADDR" -smoke || {
        echo "daemon with rejected snapshot did not serve" >&2
        kill "$OOCD_PID" 2>/dev/null || true
        return 1
    }
    stop_oocd
}
step snapshot-smoke snapshot_smoke

echo "== check.sh step timings =="
cat "$TIMINGS"
echo "check.sh: all steps passed"
