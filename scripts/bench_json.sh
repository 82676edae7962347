#!/bin/sh
# bench_json.sh — run the tracked benchmarks cold and emit the results as
# JSON (ns/op and allocs/op per run), suitable for recording in BENCH_<n>.json
# files to compare across PRs.
#
# Usage: scripts/bench_json.sh [count]
#   count  repetitions per benchmark (default 3)
#
# -benchtime=1x is deliberate: the run cache makes warm iterations nearly
# free, so only the first (cold) iteration measures real simulation work.
# BenchmarkMitigatedRun pre-warms the trace cache outside the timer, so its
# cold iteration isolates the mitigated simulation itself.
#
# The header records GOMAXPROCS, because it changes only wall-clock, never
# results: the worker pool that runs a figure's cells sizes itself by it.
#
# It also records the persistent-cache mode (BENCH_CACHE_MODE, default
# "cold"; set "warm" with BENCH_CACHE_DIR when timing disk-served reruns):
# warm numbers measure the cache, not the kernels, and must never be
# mistaken for simulator speedups.
#
# Sharded-campaign recordings set BENCH_SHARDS (dreamd process count, default
# 0 = in-process, no campaign API involved) and BENCH_CAMPAIGN_DIR (the
# shared lease-ledger directory). On a 1-CPU host multi-shard numbers
# measure lease/merge overhead, not scaling — the header keeps that honest.
set -eu

count=${1:-3}
cd "$(dirname "$0")/.."

gomaxprocs=${GOMAXPROCS:-$(nproc 2>/dev/null || echo unknown)}
cachemode=${BENCH_CACHE_MODE:-cold}
cachedir=${BENCH_CACHE_DIR:-}
shards=${BENCH_SHARDS:-0}
campdir=${BENCH_CAMPAIGN_DIR:-}

out=$(go test -run '^$' -bench 'BenchmarkFig10$|BenchmarkFig19$|BenchmarkMitigatedRun|BenchmarkSystemRun' \
	-benchtime=1x -benchmem -count="$count" -timeout 7200s . 2>&1) || {
	echo "$out" >&2
	exit 1
}

echo "$out" | awk -v gover="$(go version | awk '{print $3}')" \
	-v gomaxprocs="$gomaxprocs" \
	-v cachemode="$cachemode" -v cachedir="$cachedir" \
	-v shards="$shards" -v campdir="$campdir" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (!(name in ns)) order[++n] = name
	ns[name] = ns[name] nssep[name] $3
	nssep[name] = ", "
	# With -benchmem the line ends in "<B> B/op <allocs> allocs/op", but
	# b.ReportMetric entries insert extra "<v> <unit>" pairs before them, so
	# scan for the unit instead of assuming a fixed field position.
	for (f = 4; f <= NF; f++) {
		if ($f == "allocs/op") {
			al[name] = al[name] alsep[name] $(f - 1)
			alsep[name] = ", "
		}
	}
}
END {
	printf "{\n  \"schema_version\": 1,\n  \"go\": \"%s\",\n  \"gomaxprocs\": \"%s\",\n  \"cache_mode\": \"%s\",\n  \"cache_dir\": \"%s\",\n  \"shards\": %s,\n  \"campaign_dir\": \"%s\",\n  \"benchtime\": \"1x (cold, cache reset per benchmark)\",\n", gover, gomaxprocs, cachemode, cachedir, shards, campdir
	printf "  \"results\": {\n"
	for (i = 1; i <= n; i++) {
		b = order[i]
		printf "    \"%s\": {\"ns_per_op\": [%s], \"allocs_per_op\": [%s]}%s\n", \
			b, ns[b], al[b], (i < n ? "," : "")
	}
	printf "  }\n}\n"
}'
