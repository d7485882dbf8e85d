GO ?= go

.PHONY: build test race vet bench repro loc fence

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

# repro regenerates the whole evaluation (≈25 s) and diffs it against the
# committed results_full.txt and figures/: every number EXPERIMENTS.md
# quotes comes from those two. Only wall times are masked: the
# "(… completed in …)" lines and the Scaling table's three timing columns.
REPRO_MASK = awk '/^── Scaling ──/ { scaling = 1 } /^$$/ { scaling = 0 } \
	scaling && /^[0-9]/ { print $$1, $$2, $$3, "~", "~", "~", $$NF; next } \
	scaling { gsub(/  +/, " ") } \
	{ sub(/completed in [^)]*/, "completed in ~"); print }'

repro:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/vmsim -exp all -svg "$$tmp/figures" > "$$tmp/out.txt" && \
	$(REPRO_MASK) results_full.txt > "$$tmp/want.txt" && \
	$(REPRO_MASK) "$$tmp/out.txt" > "$$tmp/got.txt" && \
	diff "$$tmp/want.txt" "$$tmp/got.txt" && diff -r figures "$$tmp/figures" && \
	echo "repro: results_full.txt and figures/ regenerate exactly"

# loc prints the subtraction pass's size measure (ROADMAP item 5): lines of
# non-test Go outside the benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

# LOC_MAX is the `make loc` figure of the last PR that moved it. PR 20
# landed 20,059 (the segment-tree profiles left). PR 21 raised it by its
# measured growth, +235: internal/api/admit_codec.go (+195, the plain-form
# codec for the admit body pair; serve-batch op_p50_ms ≈0.95 → ≈0.78 ms),
# its two call sites and the declared-length body read in api (+26), the
# span-id mint in obs (+14). ISSUE 21 refuses more than +240 for these: a
# codec that needs more has too wide a plain form.
# PR 22 raised it by +113: core +71 (a row per server in Fleet, the advance
# that keeps the rows fresh, minCostPass — MinCost's rule as one loop over
# them — less the engine's automatic pool size, FinishResult folded into Run
# and the unused ScanEngine.Workers), energy +36 (the closure-free pricing
# walk, two accessors, EvaluateObjective summing in server order),
# SegmentSet.View +5, the facade's comments +1. It bought offline-mincost
# op_p50_ms ≈140 → ≈30 ms. ISSUE 22 refuses more than +120.
# A change that grows past it fails `make fence`: delete something, or
# raise the figure here and say why.
LOC_MAX = 20407

# fence keeps the doubles PRs 12–17 removed from growing back: one
# exposition writer (internal/obs; internal/shard/metrics.go only parses),
# one JSON answer writer and one body/query reader (internal/api), one
# table per kind of name (offline allocators in internal/baseline, online
# policies in internal/online: a name spelled in a second non-test file is
# a second table), no scan worker pool in the service (PR 17: a pass over
# the row table costs less than the hand-off), one offline placement loop
# (PR 19: core.Run sorts by start and commits; an allocator is a rule), one
# answer to offline feasibility (PR 20: the claim list in core.Fleet, which
# that start order makes sufficient; no profile over the horizon), and a
# size ceiling.
fence:
	@! grep -rn '"# HELP' --include='*.go' internal cmd | grep -v _test.go | grep -v -e '^internal/obs/' -e '^internal/shard/metrics.go' \
		|| { echo 'fence: exposition grammar outside internal/obs (use obs.Counter/Gauge/Declare/Sample)'; exit 1; }
	@! grep -rn 'SetIndent(' --include='*.go' internal | grep -v _test.go | grep -v '^internal/api/' \
		|| { echo 'fence: JSON answers are written by api.WriteJSON'; exit 1; }
	@! grep -n -e 'ReadAll(.*r\.Body' -e 'strconv\.Atoi(.*\(Query\|q\.Get\)' internal/clusterhttp/*.go internal/shard/*.go | grep -v _test.go \
		|| { echo 'fence: request bodies and query integers are read by api.ReadBody/api.QueryInt'; exit 1; }
	@for name in '"firstfit-efficiency"' '"prefer-active"'; do \
		n=$$(grep -rl --include='*.go' -e "$$name" . | grep -v -e _test.go -e '^./bench/' | wc -l); \
		[ $$n -eq 1 ] || { echo "fence: $$name is spelled in $$n non-test Go files; names resolve through baseline.Lookup / online.NewPolicy"; exit 1; }; done
	@! grep -rn 'NewScanEngine' --include='*.go' internal cmd *.go | grep -v _test.go | grep -v -e '^internal/core/' -e '^internal/baseline/' \
		|| { echo 'fence: the worker pool is for the offline allocators (internal/core, internal/baseline); the service scans its row table on one goroutine'; exit 1; }
	@! grep -rn 'SortVMsByStart(' --include='*.go' . | grep -v _test.go | grep -v '^./internal/core/' \
		|| { echo 'fence: the placement loop is spelled once (core.Run); an allocator is a rule it calls'; exit 1; }
	@! grep -rn 'TreeProfile\|timeline\.Profile\|ensureProfiles' --include='*.go' . | grep -v _test.go \
		|| { echo 'fence: offline feasibility is the claim list in core.Fleet'; exit 1; }
	@n=$$($(MAKE) -s loc); [ $$n -le $(LOC_MAX) ] || { echo "fence: make loc = $$n > LOC_MAX = $(LOC_MAX)"; exit 1; }
