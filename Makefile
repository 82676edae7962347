# Developer workflow for the DREAM reproduction. `make check` is the tier-1
# gate (build + vet + tests); `make race` adds the race detector over the
# concurrency-sensitive packages; `make bench-smoke` is a fast perf canary.
# The performance record is the bench module: `bash bench/run.sh` (see
# bench/README.md).

GO ?= go

.PHONY: check build vet test race bench-smoke profile clean

check: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One cold iteration of the two tracked figure benchmarks plus the scheduler
# micro-benchmark: finishes in a couple of minutes and catches gross
# regressions without the full -bench=. sweep.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig10$$|BenchmarkDRAMActivatePrecharge$$' \
		-benchtime=1x -timeout 1800s .

# CPU + allocation profiles of the mitigated-run hot path (a quick Figure-19
# reproduction, which runs every tracker against every workload). Inspect with
#   go tool pprof -top cpu.prof
#   go tool pprof -top -sample_index=alloc_objects mem.prof
profile:
	$(GO) run ./cmd/experiments -run fig19 -quick \
		-cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; see EXPERIMENTS.md for how to read them"

clean:
	rm -f repro.test *.prof
	rm -rf results/ .dreamcache/
