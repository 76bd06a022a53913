#!/bin/sh
# Benchmark-regression gate: evaluate the paper grid under the numeric
# model and compare accuracy, wall clock, and solver iteration counts
# against the committed baseline document (BENCH_5.json by default,
# override with $1). Exits nonzero and lists every violation when the
# fresh run regresses. Tolerances live in cmd/oocbench
# (-diff-acc-tol, -diff-wall-tol, -diff-iter-tol); accuracy cells are
# bit-deterministic for a fixed model and grid, so the default band
# only absorbs cross-platform floating point.
set -eu

cd "$(dirname "$0")/.."

BASELINE="${1:-BENCH_5.json}"
if ! go run ./cmd/oocbench -json -paper-grid -model numeric -diff "$BASELINE"; then
    # Name the baseline that was actually compared, not a hardcoded
    # default — a caller diffing against an alternate document must
    # regenerate that document, not BENCH_5.json.
    echo "benchdiff.sh: regenerate deliberately with:" >&2
    echo "    go run ./cmd/oocbench -json -paper-grid -model numeric > $BASELINE" >&2
    exit 1
fi
