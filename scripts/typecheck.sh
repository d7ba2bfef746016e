#!/usr/bin/env bash
# Strict type checking, scoped to the typed layers:
#   src/repro/api              TripRequest / EngineConfig / TravelTimeDB
#   errors.py                  the error hierarchy
#   service/cache.py           SubQueryCache (binding, epoch invalidation,
#                              the bounded LRU sections)
#   core/plan.py, core/exec.py the planner, the trip machine and the
#                              deduplicating batch executor
#   core/intervals.py          fixed and periodic time predicates
#   fmindex/bitvector.py       the word-packed rank directory under every
#                              wavelet tree
#   fmindex/fm.py              backward search (Procedure 2)
#   fmindex/suffix_array.py    prefix doubling over the tied groups only
#   sntindex/partition.py      one temporal partition's FM-index and rows
#   sntindex/reader.py         the IndexReader protocol both readers answer
#   sntindex/procedures.py     Procedures 3-5 and the ladder walk over a
#                              reader's per-shard chunks
#   temporal/forest.py         the per-edge temporal trees and permutations
#   sntindex/store.py,         the ShardStore protocol, its local-directory
#   sntindex/compaction.py     backend, and the sealed-shard compactor
#   histogram/histogram.py     Histogram: bucketing, convolution, merge
#   src/repro/server           ServerConfig, collector, HTTP framing, client
# These call into the not-yet-annotated core/sntindex modules, so untyped
# *calls* are allowed and imports are followed silently; everything the
# checked files themselves define is held to --strict.
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
  src/repro/service/cache.py \
  src/repro/core/plan.py src/repro/core/exec.py \
  src/repro/core/intervals.py \
  src/repro/fmindex/bitvector.py src/repro/fmindex/fm.py \
  src/repro/fmindex/suffix_array.py \
  src/repro/sntindex/partition.py src/repro/sntindex/reader.py \
  src/repro/sntindex/procedures.py src/repro/temporal/forest.py \
  src/repro/sntindex/store.py src/repro/sntindex/compaction.py \
  src/repro/histogram/histogram.py \
  src/repro/server
