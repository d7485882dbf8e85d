#!/usr/bin/env bash
# benchledger.sh runs the layer ledger's benchmarks (BENCH_TRAJECTORY.json,
# ROADMAP item 14). ledger_test.go turns what it prints into rows.
#
#   benchledger.sh ledger REF...  builds every REF and HEAD in a git
#       worktree, runs each commit's ledger benchmarks ROUNDS times (5), the
#       commits taking turns within each round and round r starting at
#       the r-th commit (mod their number), so drift within a round falls
#       on every side, and appends the rows to BENCH_TRAJECTORY.json
#       (make benchledger REF=...)
#   benchledger.sh gate           runs the working tree's ledger benchmarks
#       three times at -cpu 1 and fails if the median of one's allocs/op
#       exceeds what its last row allows (make benchgate)
#
# Every run is one `-test.count 1` at 500ms, -benchmem on; ROUNDS in the
# environment (make benchledger ROUNDS=10) sets a ledger session's rounds.
# In ledger mode a benchmark a commit lacks is skipped by name; in gate
# mode a package that does not build or a benchmark that is missing fails.
set -euo pipefail

# LEDGER is the one list of the ledger's benchmarks, a line each:
#   layer package Name[/sub-benchmark pattern] [cpus]
# at -cpu 1 unless cpus says more.
LEDGER=(
	'offline   .                    OfflineMinCost'
	'offline   .                    MinCostAllocate'
	'scan      internal/online      Place'
	'ledger    internal/timeline    LedgerAddRemove'
	'edge      internal/api         AdmitCodec//plain/vms=49$'
	'edge      internal/api         StateCodec'
	'edge      internal/clusterhttp AdmitHTTP'
	'gate      internal/shard       GateAdmit                    1,2,4'
	'commit    internal/cluster     AdmitDurable/callers=(1|32)$ 1,2,4'
	'restart   internal/cluster     Restore'
	'restart   internal/cluster     Replay'
	'telemetry internal/cluster     SampleEnergy'
	'telemetry internal/cluster     ReleaseSampled'
	'telemetry internal/obs         NewSpanID'
	'telemetry internal/obs         Record'
)
rounds=${ROUNDS:-5}
benchtime=500ms

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trees=()
cleanup() {
	for w in "${trees[@]}"; do git worktree remove --force "$w" || true; done
	rm -rf "$tmp"
}
trap cleanup EXIT

binary() { echo "$tmp/bin-$1/$(echo "$2" | tr / _).test"; }

# build DIR TAG [STRICT] compiles the tests of every ledger package of the
# tree at DIR; with STRICT a package that does not build fails the script.
build() {
	mkdir -p "$tmp/bin-$2"
	local entry layer pkg bin
	for entry in "${LEDGER[@]}"; do
		read -r layer pkg _ <<<"$entry"
		bin=$(binary "$2" "$pkg")
		[ -e "$bin" ] || (cd "$1" && go test -c -o "$bin" "./$pkg") || [ -z "${3:-}" ] ||
			{ echo "ledger: $pkg does not build" >&2; exit 1; }
	done
}

# run DIR TAG [CPUS [STRICT]] runs every ledger benchmark once, at CPUS if
# not empty, each after a `ledger: bench Name layer` line; with STRICT a
# benchmark the tree lacks fails the script.
run() {
	local entry layer pkg rest cpus name bin
	for entry in "${LEDGER[@]}"; do
		read -r layer pkg rest cpus <<<"$entry"
		cpus=${3:-${cpus:-1}}
		name=Benchmark${rest%%/*}
		bin=$(binary "$2" "$pkg")
		if [ ! -x "$bin" ] || ! "$bin" -test.list "^$name\$" | grep -qx "$name"; then
			[ -z "${4:-}" ] || { echo "ledger: $name is missing" >&2; exit 1; }
			echo "ledger: skip $name"
			continue
		fi
		echo "ledger: bench $name $layer"
		(cd "$1/$pkg" && "$bin" -test.run '^$' -test.bench "^$name\$${rest#"${rest%%/*}"}" \
			-test.benchmem -test.benchtime "$benchtime" -test.cpu "$cpus" -test.count 1)
	done
}

convert() { go test -count=1 -run '^TestBenchLedger$' "$@" .; }

case ${1:-} in
ledger)
	shift
	[ $# -gt 0 ] || { echo 'usage: benchledger.sh ledger REF...' >&2; exit 2; }
	shas=()
	for ref in "$@" HEAD; do
		sha=$(git rev-parse --short=7 "$ref^{commit}")
		[ -d "$tmp/tree-$sha" ] && continue
		git worktree add -q --detach "$tmp/tree-$sha" "$sha"
		trees+=("$tmp/tree-$sha")
		build "$tmp/tree-$sha" "$sha"
		shas+=("$sha")
	done
	head=${shas[${#shas[@]}-1]}
	raw=$tmp/raw.txt
	echo "ledger: session $(date -u +%Y-%m-%dT%H:%MZ) benchtime $benchtime rounds $rounds" > "$raw"
	n=${#shas[@]}
	for round in $(seq "$rounds"); do
		for i in $(seq 0 $((n - 1))); do
			sha=${shas[(round - 1 + i) % n]}
			echo "round $round: $sha" >&2
			echo "ledger: commit $sha $(git log -1 --format=%s "$sha")" >> "$raw"
			# The machine-speed reference is HEAD's, whatever the commit.
			"$(binary "$head" .)" -test.run '^$' -test.bench '^BenchmarkLedgerReference$' \
				-test.benchmem -test.benchtime "$benchtime" -test.count 1 >> "$raw"
			run "$tmp/tree-$sha" "$sha" >> "$raw"
		done
	done
	convert -ledger.append "$raw"
	;;
gate)
	build "$root" work strict
	for _ in 1 2 3; do run "$root" work 1 strict; done > "$tmp/gate.txt"
	cat "$tmp/gate.txt"
	convert -ledger.gate "$tmp/gate.txt"
	;;
*)
	echo 'usage: benchledger.sh ledger REF... | benchledger.sh gate' >&2
	exit 2
	;;
esac
