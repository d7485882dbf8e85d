GO ?= go

.PHONY: build test race vet bench benchledger benchgate fuzz repro loc fence

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

# benchledger appends rows to BENCH_TRAJECTORY.json, the layer ledger
# (ROADMAP item 14): the ledger benchmarks scripts/benchledger.sh lists, of
# every commit in REF and of HEAD, each built in a git worktree and run
# ROUNDS times (default five) at 500ms, the commits taking turns within each
# round. A benchmark a commit lacks is skipped by name. benchgate runs the
# working tree's ledger benchmarks three times at -cpu 1 and fails when a
# package does not build,
# a benchmark of the ledger's newest commit is missing, or the median
# allocs/op of one exceeds its last row's median by more than the widest
# max − min of its rows (CI runs it; ns/op is reported, never gated).
benchledger:
	@[ -n "$(REF)" ] || { echo 'usage: make benchledger REF="<commit> ..."'; exit 2; }
	bash scripts/benchledger.sh ledger $(REF)

benchgate:
	bash scripts/benchledger.sh gate

# fuzz runs every package:target pair in FUZZ for FUZZTIME each, and
# fails after the last one if any of them failed or names no fuzz target
# (`go test -fuzz` passes when nothing matches). Shorten a local pass with
# `make fuzz FUZZTIME=5s`.
FUZZ = internal/cluster:FuzzJournalReplay internal/cluster:FuzzBinaryJournal \
	internal/clusterhttp:FuzzHTTPDecode internal/timeline:FuzzLedgerOps \
	internal/online:FuzzMinCostPass internal/core:FuzzFleetOracle \
	internal/api:FuzzStateCodec internal/obs:FuzzExposition \
	internal/timeline:FuzzSegmentSetInsert internal/trace:FuzzReadCSV
FUZZTIME = 20s

fuzz:
	@failed=; for pt in $(FUZZ); do p=./$${pt%%:*} f=$${pt#*:}; \
		$(GO) test -list="^$$f\$$" $$p | grep -qx "$$f" && \
		$(GO) test -run='^$$' -fuzz="^$$f\$$" -fuzztime=$(FUZZTIME) $$p || failed="$$failed $$f"; \
	done; [ -z "$$failed" ] || { echo "fuzz: failed:$$failed"; exit 1; }

# repro regenerates the whole evaluation (≈25 s) and diffs it against the
# committed results_full.txt and figures/ byte for byte: every number
# EXPERIMENTS.md quotes comes from those two, and the output holds no wall
# time (allocator speed is the layer ledger's, BENCH_TRAJECTORY.json).
repro:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/vmsim -exp all -svg "$$tmp/figures" > "$$tmp/out.txt" && \
	diff results_full.txt "$$tmp/out.txt" && diff -r figures "$$tmp/figures" && \
	echo "repro: results_full.txt and figures/ regenerate exactly"

# loc prints the subtraction pass's size measure (ROADMAP item 5): lines of
# non-test Go outside the benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

# LOC_MAX is the `make loc` figure of the last change that moved it. A
# change that grows past it fails `make fence`: delete something, or raise
# the figure here and say why. Last raised by 106: fleet state is derived
# on read. A ledger compiles at its first read after a mutation, the row
# table lists its stale rows for the next scan, and the energy recorder
# builds one sample per fleet minute, at the clock move or the read that
# needs it (obs.EnergyRecorder.RecordN and SetSource). Last lowered by 267:
# every function has a non-test caller (TestEveryFunctionHasACaller).
# The 30 that only tests reached are gone, timeline.SliceProfile among
# them, with the three only they called; obs.EnergyRecorder.Samples
# returns the newest sample beside the list, so Last is gone too.
LOC_MAX = 19201

# DOC_MAX is DESIGN.md's line budget (ROADMAP item 16 (b)), kept like
# LOC_MAX: DESIGN says what is and why; per-change history belongs in
# CHANGES.md. A change that grows DESIGN.md past it fails `make fence`:
# cut something, or raise the figure here and say why.
DOC_MAX = 894

# fence keeps the doubles PRs 12–17 removed from growing back: one
# exposition writer and reader (internal/obs: no "# HELP or "# TYPE
# literal in non-test Go elsewhere),
# one JSON answer writer and one body/query reader (internal/api), one
# table per kind of name (offline allocators in internal/baseline, online
# policies in internal/online: a name spelled in a second non-test file is
# a second table), no scan worker pool, in the service (PR 17: a pass over
# the row table costs less than the hand-off) or offline (PR 23: every rule
# is O(n) per VM; what is left of core.ScanEngine is a shim bench/ compiles
# against, ROADMAP item 1 (f)), one offline placement loop
# (PR 19: core.Run sorts by start and commits; an allocator is a rule), one
# answer to offline feasibility (PR 20: the claim list in core.Fleet, which
# that start order makes sufficient; no profile over the horizon), one
# journal codec (PR 25: readBinaryRecords is the one record reader, and
# record carries no JSON tags), read as a stream (readBinaryRecords(r,
# size, visit) hands each record to a visitor through one fixed buffer, so
# non-test internal/cluster reads no journal whole: its one os.ReadFile is
# of snapshot.json), one placement reader (PR 26: an offline
# placement is grouped by model.Instance.ByServer, summed per minute by
# model.Usage and checked against Eq. 9–10 by ilp.CheckServer/ilp.Fits; no
# float difference array or tolerance compare on capacity elsewhere), one
# live capacity check (FleetView.probe answers policies, Commit, Migrate and
# Adopt; the only other capacity compare in internal/cluster is
# planDrainLocked's conservative sum of window maxima over its scratch
# ledger), a ledger that never re-sorts (timeline.Ledger keeps its
# marks in order across mutations, so non-test ledger.go names no Sort),
# one admit codec on every hop (the gate's shard calls and the load
# generator write admit requests with api.EncodeAdmitRequests and read the
# answers with api.DecodeAdmitResponses, not encoding/json), one state
# encoder (GET /v1/state bodies are written by api.EncodeState, whose
# appender and fallback are the one layout: non-test internal/clusterhttp
# and internal/shard call no json.MarshalIndent), one event
# queue in the live fleet that boxes nothing (online.eventQueue is a typed
# heap; non-test internal/online imports no container/heap), one §IV-B
# request draw (workload.DiurnalSpec.Draw; non-test internal/loadgen names
# no ExpFloat64 or math.Sin), one way to run the cluster (Admit, like
# every other mutation, runs on its caller's goroutine under c.mu, and the
# group commit's fsync runs on a committing caller's goroutine: non-test
# internal/cluster starts no goroutine and names no chan), one client
# edge (api.Call sends every outbound request and bounds and classifies
# its answer: non-test internal and cmd call .Do(req) only in
# internal/api/edge.go, and no http.Get/Head/Post/PostForm), one owner
# per HTTP edge's route metrics (clusterhttp.New and shard.NewGate build
# their own collector: non-test Go outside internal/obs,
# internal/clusterhttp and internal/shard names no obs.NewHTTPMetrics(),
# one record per shard in the gate (each shard's health rides the routing
# generation, topoState.health: non-test internal/shard names no SetShards
# or type Prober, and every topo.Store( stores a newTopo(, which hands the
# records on), a caller for every function (TestEveryFunctionHasACaller in
# callers_test.go, run by `go test`, type-checks that non-test code, bench/
# and examples/ included, uses each one), one fuzz list (every func Fuzz of a test file outside
# bench/ is a package:target pair in FUZZ, so `make fuzz` runs it), short
# CHANGES.md lines
# (ROADMAP item 16 (c): none over 2 kB after the marker; a line cites
# BENCH_TRAJECTORY.json rows instead of inlining runs), and two size
# ceilings (LOC_MAX for non-test Go, DOC_MAX for DESIGN.md).
CLUSTER_SRC = $(filter-out %_test.go,$(wildcard internal/cluster/*.go))
ADMIT_CLIENT_SRC = $(filter-out %_test.go,$(wildcard internal/shard/*.go internal/loadgen/*.go))
ONLINE_SRC = $(filter-out %_test.go,$(wildcard internal/online/*.go))
LOADGEN_SRC = $(filter-out %_test.go,$(wildcard internal/loadgen/*.go))
SHARD_SRC = $(filter-out %_test.go,$(wildcard internal/shard/*.go))

fence:
	@! grep -rn -e '"# HELP' -e '"# TYPE' --include='*.go' internal cmd | grep -v _test.go | grep -v '^internal/obs/' \
		|| { echo 'fence: exposition grammar outside internal/obs (write with obs.Declare/Sample, read with obs.ReadExposition)'; exit 1; }
	@! grep -rn 'SetIndent(' --include='*.go' internal | grep -v _test.go | grep -v '^internal/api/' \
		|| { echo 'fence: JSON answers are written by api.WriteJSON'; exit 1; }
	@! grep -n -e 'ReadAll(.*r\.Body' -e 'strconv\.Atoi(.*\(Query\|q\.Get\)' internal/clusterhttp/*.go internal/shard/*.go | grep -v _test.go \
		|| { echo 'fence: request bodies and query integers are read by api.ReadBody/api.QueryInt'; exit 1; }
	@for name in '"firstfit-efficiency"' '"prefer-active"'; do \
		n=$$(grep -rl --include='*.go' -e "$$name" . | grep -v -e _test.go -e '^./bench/' | wc -l); \
		[ $$n -eq 1 ] || { echo "fence: $$name is spelled in $$n non-test Go files; names resolve through baseline.Lookup / online.NewPolicy"; exit 1; }; done
	@! grep -rn 'WithParallelism\|\.Parallelism' --include='*.go' . | grep -v -e _test.go -e '^./bench/' \
		|| { echo 'fence: the offline scan has no worker pool to size (PR 23)'; exit 1; }
	@! grep -n 'go func\|sync\.' internal/core/*.go | grep -v _test.go \
		|| { echo 'fence: internal/core runs on the calling goroutine'; exit 1; }
	@! grep -rn 'NewScanEngine' --include='*.go' . | grep -v -e _test.go -e '^./bench/' | grep -v '^./internal/core/engine.go:[0-9]*:\(func NewScanEngine(\|//\)' \
		|| { echo 'fence: core.NewScanEngine is a shim for bench/probe_core.go (ROADMAP item 1 (f)); scan through core.Scan'; exit 1; }
	@! grep -rn 'SortVMsByStart(' --include='*.go' . | grep -v _test.go | grep -v '^./internal/core/' \
		|| { echo 'fence: the placement loop is spelled once (core.Run); an allocator is a rule it calls'; exit 1; }
	@! grep -rn 'TreeProfile\|timeline\.Profile\|ensureProfiles' --include='*.go' . | grep -v _test.go \
		|| { echo 'fence: offline feasibility is the claim list in core.Fleet'; exit 1; }
	@! grep -n 'func read[A-Za-z]*Records(' $(CLUSTER_SRC) | grep -v 'func readBinaryRecords(' \
		|| { echo 'fence: the journal has one record reader, readBinaryRecords (PR 25)'; exit 1; }
	@! awk '/^type record struct/,/^}/' $(CLUSTER_SRC) | grep 'json:"' \
		|| { echo 'fence: journal records have one codec; record carries no json tags (PR 25)'; exit 1; }
	@! grep -n 'ReadFile(' $(CLUSTER_SRC) | grep -v 'os\.ReadFile(filepath\.Join(dir, snapshotName))' \
		|| { echo 'fence: replay streams journalName through readBinaryRecords; only snapshot.json is read whole'; exit 1; }
	@! grep -rn -e '-= [vp]\.Demand\.' -e 'Capacity\.\(CPU\|Mem\)+' --include='*.go' internal cmd examples *.go | grep -v -e _test.go -e '^internal/model/' -e '^internal/ilp/' \
		|| { echo 'fence: per-minute usage is model.Usage and Eq. 9-10 is ilp.CheckServer/ilp.Fits (PR 26)'; exit 1; }
	@n=$$(grep -rn --include='*.go' 'is unplaced' . | grep -v -e _test.go -e '^./bench/' | wc -l); \
		[ $$n -eq 1 ] || { echo "fence: 'is unplaced' is spelled $$n times in non-test Go; group a placement with model.Instance.ByServer (PR 26)"; exit 1; }
	@! grep -rn --include='*.go' 'MaxUsage(' internal/online | grep -v -e _test.go -e '^internal/online/online.go:' \
		|| { echo 'fence: a live capacity question is FleetView.probe (online.go); Commit, Migrate and Adopt ask it'; exit 1; }
	@! awk '/^func / { fn = $$0 } /[<>]=? *[A-Za-z_.()]*Capacity\.(CPU|Mem)|\.Fits\(/ && fn !~ /planDrainLocked\(/ { print FILENAME ":" FNR ": " $$0 }' $(CLUSTER_SRC) | grep . \
		|| { echo 'fence: internal/cluster compares against capacity only in planDrainLocked (its scratch sum); ask FleetView.probe'; exit 1; }
	@! grep -n 'Sort' internal/timeline/ledger.go \
		|| { echo 'fence: timeline.Ledger keeps its marks in order; a mutation never re-sorts them'; exit 1; }
	@! grep -n -e '\[\[\]api\.AdmitResponse\]' -e 'json\.Marshal(\([A-Za-z.]*\(reqs\|Requests\)\|\[\]api\.AdmitRequest\)' $(ADMIT_CLIENT_SRC) \
		|| { echo 'fence: admit bodies to a shard or server go through api.EncodeAdmitRequests/api.DecodeAdmitResponses'; exit 1; }
	@! grep -n 'json\.MarshalIndent(' $(filter-out %_test.go,$(wildcard internal/clusterhttp/*.go)) $(SHARD_SRC) \
		|| { echo 'fence: state bodies are encoded by api.EncodeState (its plain appender or its MarshalIndent fallback)'; exit 1; }
	@! grep -n '"container/heap"' $(ONLINE_SRC) \
		|| { echo 'fence: the fleet event queue is the typed online.eventQueue; container/heap boxes every event'; exit 1; }
	@! grep -n -e 'ExpFloat64' -e 'math\.Sin' $(LOADGEN_SRC) \
		|| { echo 'fence: loadgen draws its requests through workload.DiurnalSpec.Draw, not an arrival loop of its own'; exit 1; }
	@! grep -nE '^\s*go |\bchan\b' $(CLUSTER_SRC) \
		|| { echo 'fence: internal/cluster runs on its callers'"'"' goroutines (mutations under c.mu, group commit under the journal'"'"'s gmu); it starts no goroutine and has no channel'; exit 1; }
	@! grep -rn -e '\.Do(req' -e 'http\.\(Get\|Head\|Post\|PostForm\)(' --include='*.go' internal cmd | grep -v -e _test.go -e '^internal/api/edge.go:' \
		|| { echo 'fence: a request is sent and its answer read by api.Call (internal/api/edge.go)'; exit 1; }
	@! grep -rn 'obs\.NewHTTPMetrics(' --include='*.go' --exclude='*_test.go' internal cmd examples *.go | grep -v -e '^internal/clusterhttp/' -e '^internal/shard/' \
		|| { echo 'fence: clusterhttp.New and shard.NewGate build their own route metrics; a caller passes none'; exit 1; }
	@! { grep -n -e 'SetShards' -e 'type Prober' $(SHARD_SRC); grep -n 'topo\.Store(' $(SHARD_SRC) | grep -v 'topo\.Store(newTopo('; } \
		|| { echo 'fence: the gate keeps one record per shard, on its routing generation; store a generation built by newTopo'; exit 1; }
	@missing=$$(grep -rHo --include='*_test.go' --exclude-dir=bench --exclude-dir=.git '^func Fuzz[A-Za-z0-9_]*' . | sed 's|^\./||; s|/[^/]*:func |:|' | \
		while read -r pt; do case " $(FUZZ) " in *" $$pt "*) ;; *) echo "$$pt";; esac; done); \
		[ -z "$$missing" ] || { echo "fence: fuzz targets missing from the Makefile's FUZZ:" $$missing; exit 1; }
	@LC_ALL=C awk 'marked && length($$0) > 2048 { print "CHANGES.md:" NR ": " length($$0) " bytes"; long = 1 } /^<!-- short lines below/ { marked = 1 } \
		END { exit long || !marked }' CHANGES.md \
		|| { echo 'fence: CHANGES.md lines after the short-lines marker are at most 2 kB; cite BENCH_TRAJECTORY.json rows'; exit 1; }
	@n=$$($(MAKE) -s loc); [ $$n -le $(LOC_MAX) ] || { echo "fence: make loc = $$n > LOC_MAX = $(LOC_MAX)"; exit 1; }
	@n=$$(wc -l < DESIGN.md); [ $$n -le $(DOC_MAX) ] || { echo "fence: DESIGN.md is $$n lines > DOC_MAX = $(DOC_MAX)"; exit 1; }
