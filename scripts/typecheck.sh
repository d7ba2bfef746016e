#!/usr/bin/env bash
# Strict type checking, scoped to the typed API surface (ISSUE 3) plus
# the cache-tier backend layer (ISSUE 4), the staged query pipeline
# (ISSUE 5), the succinct rank bitvector (ISSUE 6), and the vectorized
# scan/probe stage (ISSUE 7), the HTTP serving tier (ISSUE 8), the
# shard lifecycle layer (ISSUE 9), and the histogram algebra:
# src/repro/api (TripRequest / EngineConfig / TravelTimeDB), the error
# hierarchy, service/cache.py + service/cachetier.py (SubQueryCache —
# binding, invalidation, promotion — and CacheBackend / SqliteCacheStore
# / SharedCacheTier),
# core/plan.py + core/exec.py (the planner, the trip machine, and the
# deduplicating batch executor), fmindex/bitvector.py (the word-packed
# rank directory under every wavelet tree), sntindex/procedures.py (the
# retrieval procedures and their _many loops), temporal/forest.py
# (the per-edge temporal trees and sort permutations), src/repro/
# server (ServerConfig / collector / HTTP framing / client),
# sntindex/store.py + sntindex/compaction.py (the ShardStore protocol,
# its local-directory backend, and the sealed-shard compactor), and
# histogram/histogram.py (Histogram: bucketing, convolution, merge).  These
# call into the not-yet-annotated core/sntindex modules, so untyped
# *calls* are allowed and imports are followed silently; everything
# the checked files themselves define is held to --strict.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! python -m mypy --version >/dev/null 2>&1; then
  echo "mypy is not installed; skipping type check (CI installs it)" >&2
  exit 0
fi
exec python -m mypy --strict \
  --follow-imports=silent \
  --allow-untyped-calls \
  --allow-subclassing-any \
  --no-warn-return-any \
  src/repro/api src/repro/errors.py \
  src/repro/service/cache.py src/repro/service/cachetier.py \
  src/repro/core/plan.py src/repro/core/exec.py \
  src/repro/fmindex/bitvector.py \
  src/repro/sntindex/procedures.py src/repro/temporal/forest.py \
  src/repro/sntindex/store.py src/repro/sntindex/compaction.py \
  src/repro/histogram/histogram.py \
  src/repro/server
