#!/bin/sh
# bench_compare.sh — compare a fresh ledger against a reference ledger with
# the project's kernel speedup gates. Usage:
#
#   ./scripts/bench_compare.sh OLD.json NEW.json THRESHOLD
#
# THRESHOLD is the ns/op regression factor passed to `benchjson compare
# -threshold` (1.25 for same-machine ledgers, 1.8 against the committed
# ledger recorded on other hardware). The -min-speedup pairs are gated
# within NEW alone, so they hold on any machine: the result-cache hit batch
# ≥5x cheaper than the all-miss batch, word-parallel erasure masks ≥3x over
# the retired scalar sampler, M4RI ≥1.5x over the incremental basis at
# k=445, the MABC pair decode ≥1.5x over one solve per terminal at k=1483,
# and the verified LP warm start ≥1.5x over cold solves.
set -eu

if [ "$#" -ne 3 ]; then
	echo "usage: $0 OLD.json NEW.json THRESHOLD" >&2
	exit 2
fi

exec go run ./cmd/benchjson compare "$1" "$2" -threshold "$3" \
	-min-speedup 'BenchmarkSumRateBatchCachedMiss/BenchmarkSumRateBatchCachedHit:5' \
	-min-speedup 'BenchmarkErasureMaskScalar/BenchmarkErasureMaskWord:3' \
	-min-speedup 'BenchmarkSolveIncremental445/BenchmarkSolveM4RI445:1.5' \
	-min-speedup 'BenchmarkSolvePairSeparate1483/BenchmarkSolvePair1483:1.5' \
	-min-speedup 'BenchmarkSimplexSolveCold/BenchmarkSimplexSolveWarm:1.5'
