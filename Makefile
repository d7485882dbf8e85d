GO ?= go

.PHONY: build test race vet bench loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs every Go micro-benchmark once (a smoke pass: regressions in
# benchmark code itself surface here, numbers do not). The measured
# benchmark is `bash bench/run.sh` (see BENCHMARK.json, bench/README.md).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# loc prints the subtraction pass's size measure (ROADMAP item 3): lines of
# non-test Go outside the benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
