#!/usr/bin/env bash
# bench.sh — run the hot-path benchmarks with -benchmem and archive the
# output as BENCH_<sha>.json (a JSON envelope wrapping the raw
# `go test -bench` text, so results stay machine-readable and diffable
# across commits).
#
# Usage:
#   scripts/bench.sh [outdir]          # default outdir: the repo root
#   BENCH_FULL=1 scripts/bench.sh      # also run the repo-root experiment
#                                      # benches (150-day corpus, slow) and
#                                      # the full-scale 2001-day
#                                      # BenchmarkGenerate (3 iterations)
#
# The default outdir is the repository root so that results are committed
# alongside the change they measure: every perf PR runs this script and
# checks in its BENCH_<sha>.json (sha = HEAD at measurement time), giving
# the repo a benchmark trajectory reviewers can diff. CI validates the
# committed envelopes with `scripts/benchjson -validate`.
#
# The default set is the cheap paired benchmarks: the codec allocation
# comparisons in internal/raslog (alloc_reduction metric), the
# filter-sweep speedup comparison in internal/core (speedup metric), the
# LoadCSV/LoadPack corpus-load comparison in internal/pack (speedup
# metric), the FitLegacy/FitSample model-selection comparison in
# internal/dist (speedup metric) with the ≈300k-observation censored
# Weibull fit BenchmarkFitCensoredWeibull, the aggregate-layer comparison
# Benchmark_Aggregates_{Oracle,Fused} at the repo root (speedup metric,
# measured against a median pass of the internal/oracle reference walks —
# DESIGN.md §13), the cohort-query pushdown comparison
# Benchmark_CohortSweep_{Materialize,Where} (speedup metric, measured
# against a median materialize reference pass — DESIGN.md §14), and the
# serving-layer cache comparison Benchmark_CohortServe_{Cold,Warm}
# (speedup metric, measured against a median cold reference pass —
# DESIGN.md §15; the warm floor is 20×), and BenchmarkReportPath (the
# E1–E23 suite plus takeaways over a cold 150-day Dataset, with a
# takeaways_ms metric — DESIGN.md §17).
set -euo pipefail

cd "$(dirname "$0")/.."
outdir="${1:-.}"
mkdir -p "$outdir"

sha="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
out="$outdir/BENCH_${sha}.json"

pkgs=(./internal/raslog/ ./internal/core/ ./internal/pack/ ./internal/dist/)
if [[ "${BENCH_FULL:-0}" == "1" ]]; then
  pkgs+=(.)
fi

raw="$(go test -bench=. -benchmem -count=1 -run '^$' -skip '^BenchmarkGenerate$' "${pkgs[@]}")"
if [[ "${BENCH_FULL:-0}" == "1" ]]; then
  # Full-scale generation takes seconds per iteration: a fixed count keeps
  # the run bounded while giving more than one sample.
  raw+=$'\n'"$(go test -bench '^BenchmarkGenerate$' -benchmem -benchtime=3x -count=1 -run '^$' .)"
else
  # The full run covers the repo root already; otherwise run just the
  # paired aggregate and cohort comparisons and the report path with a
  # bounded iteration count.
  raw+=$'\n'"$(go test -bench 'Benchmark(_(Aggregates_(Oracle|Fused)|CohortSweep_(Materialize|Where)|CohortServe_(Cold|Warm))|ReportPath)$' -benchmem -benchtime=10x -count=1 -run '^$' .)"
fi
echo "$raw"
go run ./scripts/benchjson -out "$out" -sha "$sha" <<<"$raw"
echo "wrote $out"
