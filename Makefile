GO ?= go

.PHONY: build test race vet bench

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
