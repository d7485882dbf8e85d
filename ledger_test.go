package vmalloc_test

// The layer ledger, BENCH_TRAJECTORY.json (ROADMAP item 14): per commit,
// the in-repo benchmarks of each layer of the admission pipeline, each cell
// a median, quartiles and range over alternated runs. Its tools are tests,
// so `make loc` does not count them. scripts/benchledger.sh holds the list
// of benchmarks, runs them, and hands TestBenchLedger what they printed,
// each benchmark after a `ledger: bench Name layer` line:
// -ledger.append turns a session of runs into rows, -ledger.gate holds one
// fresh run to the last rows. With neither flag the test checks the
// committed file.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var (
	ledgerAppend = flag.String("ledger.append", "", "append the rows of this `benchledger.sh ledger` output to "+ledgerFile)
	ledgerGate   = flag.String("ledger.gate", "", "fail if a benchmark of this `benchledger.sh gate` output allocates more per op than its last row allows")
)

const ledgerFile = "BENCH_TRAJECTORY.json"

type ledger struct {
	About   []string       `json:"about"`
	Commits []ledgerCommit `json:"commits"`
	Layers  []ledgerRow    `json:"layers"`
}

// ledgerCommit is one commit in one session: the host it ran on, and the
// reference benchmark's ns/op there as the machine's speed.
type ledgerCommit struct {
	Commit      string     `json:"commit"`
	Subject     string     `json:"subject"`
	Session     string     `json:"session"`
	Benchtime   string     `json:"benchtime"`
	Host        string     `json:"host"`
	VCPUs       int        `json:"vcpus"`
	Go          string     `json:"go"`
	ReferenceNs ledgerCell `json:"reference_ns"`
	Skipped     []string   `json:"skipped,omitempty"`
}

// ledgerRow is commit × benchmark × GOMAXPROCS.
type ledgerRow struct {
	Commit    string     `json:"commit"`
	Session   string     `json:"session"`
	Layer     string     `json:"layer"`
	Benchmark string     `json:"benchmark"`
	CPU       int        `json:"cpu"`
	Runs      int        `json:"runs"`
	NsOp      ledgerCell `json:"ns_op"`
	BOp       ledgerCell `json:"b_op"`
	AllocsOp  ledgerCell `json:"allocs_op"`
}

type ledgerCell struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// newCell summarises runs; quartiles interpolate between order statistics.
func newCell(runs []float64) ledgerCell {
	x := slices.Sorted(slices.Values(runs))
	q := func(p float64) float64 {
		h := p * float64(len(x)-1)
		k := int(h)
		if k+1 >= len(x) {
			return x[k]
		}
		return x[k] + (h-float64(k))*(x[k+1]-x[k])
	}
	return ledgerCell{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Min: x[0], Max: x[len(x)-1]}
}

// benchLine is one result line of `go test -bench -benchmem`.
type benchLine struct {
	name                string // without the -GOMAXPROCS suffix
	cpu                 int
	nsOp, bOp, allocsOp float64
	hasMem              bool
}

var procsSuffix = regexp.MustCompile(`-(\d+)$`)

func parseBenchLine(line string) (benchLine, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchLine{}, false
	}
	b := benchLine{name: f[0], cpu: 1}
	if m := procsSuffix.FindStringSubmatch(f[0]); m != nil {
		b.name = strings.TrimSuffix(f[0], m[0])
		b.cpu, _ = strconv.Atoi(m[1])
	}
	for k := 2; k+1 < len(f); k += 2 {
		v, err := strconv.ParseFloat(f[k], 64)
		if err != nil {
			return benchLine{}, false
		}
		switch f[k+1] {
		case "ns/op":
			b.nsOp = v
		case "B/op":
			b.bOp, b.hasMem = v, true
		case "allocs/op":
			b.allocsOp = v
		}
	}
	return b, b.nsOp > 0
}

// topName is a (sub-)benchmark's top-level name, the one its
// `ledger: bench` line gives.
func topName(name string) string {
	top, _, _ := strings.Cut(name, "/")
	return top
}

func readLedger(t *testing.T) ledger {
	t.Helper()
	data, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("%s: %v", ledgerFile, err)
	}
	return l
}

// writeLedger writes one commit or row a line, so that a diff of the file
// shows rows.
func writeLedger(t *testing.T, l ledger) {
	t.Helper()
	var buf bytes.Buffer
	line := func(v any) string {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(b.String(), "\n")
	}
	list := func(n int, at func(int) any) string {
		items := make([]string, n)
		for i := range items {
			items[i] = "    " + line(at(i))
		}
		return "[\n" + strings.Join(items, ",\n") + "\n  ]"
	}
	fmt.Fprintf(&buf, "{\n  \"about\": %s,\n  \"commits\": %s,\n  \"layers\": %s\n}\n",
		list(len(l.About), func(i int) any { return l.About[i] }),
		list(len(l.Commits), func(i int) any { return l.Commits[i] }),
		list(len(l.Layers), func(i int) any { return l.Layers[i] }))
	if err := os.WriteFile(ledgerFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendSession turns one `benchledger.sh ledger` output into a commit
// entry per commit and a row per (commit, benchmark, GOMAXPROCS).
func appendSession(t *testing.T, l *ledger, raw []byte) {
	t.Helper()
	type key struct {
		commit, name string
		cpu          int
	}
	var session, benchtime, host, commit string
	var order []key
	var shas []string
	runs := map[key][]benchLine{}
	commits := map[string]*ledgerCommit{}
	refs := map[string][]float64{}
	layers := map[string]string{}
	for sc := bufio.NewScanner(bytes.NewReader(raw)); sc.Scan(); {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "ledger: session "):
			session, benchtime = f[2], f[4]
		case strings.HasPrefix(line, "ledger: commit "):
			commit = f[2]
			if commits[commit] == nil {
				commits[commit] = &ledgerCommit{Commit: commit, Subject: strings.Join(f[3:], " "), Session: session,
					Benchtime: benchtime, VCPUs: runtime.NumCPU(), Go: runtime.Version()}
				shas = append(shas, commit)
			}
		case strings.HasPrefix(line, "ledger: bench "):
			layers[f[2]] = f[3]
		case strings.HasPrefix(line, "ledger: skip "):
			if c := commits[commit]; !slices.Contains(c.Skipped, f[2]) {
				c.Skipped = append(c.Skipped, f[2])
			}
		case strings.HasPrefix(line, "cpu: "):
			host = strings.TrimPrefix(line, "cpu: ")
		default:
			b, ok := parseBenchLine(line)
			if !ok || commit == "" {
				continue
			}
			if b.name == "BenchmarkLedgerReference" {
				refs[commit] = append(refs[commit], b.nsOp)
				continue
			}
			if layers[topName(b.name)] == "" {
				t.Fatalf("%s: no `ledger: bench` line names its layer", b.name)
			}
			if !b.hasMem {
				t.Fatalf("%s: no B/op, run with -benchmem", b.name)
			}
			k := key{commit, b.name, b.cpu}
			if runs[k] == nil {
				order = append(order, k)
			}
			runs[k] = append(runs[k], b)
		}
	}
	if len(commits) == 0 || session == "" {
		t.Fatal("no session or commit in the raw output")
	}
	for _, sha := range shas {
		if len(refs[sha]) == 0 {
			t.Fatalf("commit %s: no reference run", sha)
		}
		c := commits[sha]
		c.Host, c.ReferenceNs = host, newCell(refs[sha])
		l.Commits = append(l.Commits, *c)
	}
	for _, k := range order {
		var ns, mem, allocs []float64
		for _, b := range runs[k] {
			ns, mem, allocs = append(ns, b.nsOp), append(mem, b.bOp), append(allocs, b.allocsOp)
		}
		l.Layers = append(l.Layers, ledgerRow{Commit: k.commit, Session: session, Layer: layers[topName(k.name)], Benchmark: k.name,
			CPU: k.cpu, Runs: len(ns), NsOp: newCell(ns), BOp: newCell(mem), AllocsOp: newCell(allocs)})
	}
}

// gate holds fresh runs at -cpu 1 to the ledger: the median allocs/op of
// a benchmark's runs may exceed its last row's median by no more than the
// widest max − min of any of its rows. allocs/op is a mean truncated to an
// integer, so a benchmark with background allocations (an HTTP server, a
// journal flush) reads a few apart from run to run; the widest spread it
// ever read allows for that, where the last row's alone may read none.
// Every benchmark the ledger's newest commit has a -cpu 1 row of must be in
// the run, so a rename or a dropped sub-benchmark does not quietly end its
// gate. ns/op is never gated: shared machines are too noisy for it. gate
// returns what fails the run.
func gate(l ledger, out []byte) (failures []string) {
	var order []string
	allocs := map[string][]float64{}
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if b, ok := parseBenchLine(sc.Text()); ok && b.cpu == 1 {
			if allocs[b.name] == nil {
				order = append(order, b.name)
			}
			allocs[b.name] = append(allocs[b.name], b.allocsOp)
		}
	}
	newest := l.Commits[len(l.Commits)-1]
	for _, r := range l.Layers {
		if r.Commit == newest.Commit && r.Session == newest.Session && r.CPU == 1 && allocs[r.Benchmark] == nil {
			failures = append(failures, fmt.Sprintf("%s -cpu 1: a row of %s, the ledger's newest commit, but not in the run", r.Benchmark, r.Commit))
		}
	}
	checked := 0
	for _, name := range order {
		last, spread := -1, 0.0
		for i, r := range l.Layers {
			if r.Benchmark == name && r.CPU == 1 {
				last, spread = i, max(spread, r.AllocsOp.Max-r.AllocsOp.Min)
			}
		}
		if last < 0 {
			continue // no row yet
		}
		checked++
		r, got := l.Layers[last], newCell(allocs[name]).Median
		if limit := r.AllocsOp.Median + spread; got > limit {
			failures = append(failures, fmt.Sprintf("%s -cpu 1: %v allocs/op, the ledger's last row (%s) allows %v: append rows with `make benchledger` if the growth is meant",
				name, got, r.Commit, limit))
		}
	}
	if checked == 0 {
		failures = append(failures, "no benchmark of the run has a ledger row: nothing was gated")
	}
	return failures
}

// TestBenchLedger appends a session (-ledger.append), gates a run
// (-ledger.gate), or, by default, checks that every row of the committed
// ledger belongs to a commit of its session, names a layer, and has its
// order statistics in order.
func TestBenchLedger(t *testing.T) {
	l := readLedger(t)
	switch {
	case *ledgerAppend != "":
		raw, err := os.ReadFile(*ledgerAppend)
		if err != nil {
			t.Fatal(err)
		}
		appendSession(t, &l, raw)
		writeLedger(t, l)
	case *ledgerGate != "":
		out, err := os.ReadFile(*ledgerGate)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range gate(l, out) {
			t.Error(f)
		}
	}
	sessions := map[[2]string]bool{}
	for _, c := range l.Commits {
		sessions[[2]string{c.Commit, c.Session}] = true
	}
	ordered := func(c ledgerCell) bool {
		return c.Min <= c.Q1 && c.Q1 <= c.Median && c.Median <= c.Q3 && c.Q3 <= c.Max
	}
	for _, r := range l.Layers {
		if r.Layer == "" {
			t.Errorf("%s at %s: no layer", r.Benchmark, r.Commit)
		}
		if !sessions[[2]string{r.Commit, r.Session}] {
			t.Errorf("%s: commit %s of session %s is not in the commits table", r.Benchmark, r.Commit, r.Session)
		}
		if r.Runs < 1 || !ordered(r.NsOp) || !ordered(r.BOp) || !ordered(r.AllocsOp) {
			t.Errorf("%s at %s: %d runs, cells out of order: %+v", r.Benchmark, r.Commit, r.Runs, r)
		}
	}
}

// TestAppendSessionRotated: the rounds of a session start at different
// commits, and every run still lands in the row of the `ledger: commit`
// line above it; the commits keep the order they first appear in.
func TestAppendSessionRotated(t *testing.T) {
	var raw string
	round := func(commits ...string) {
		for _, c := range commits {
			allocs := map[string]string{"aaa": "1", "bbb": "2"}[c]
			raw += "ledger: commit " + c + " subject\n" +
				"BenchmarkLedgerReference 10 100 ns/op 0 B/op 0 allocs/op\n" +
				"ledger: bench BenchmarkScan scan\n" +
				"BenchmarkScan 10 100 ns/op 1 B/op " + allocs + " allocs/op\n"
		}
	}
	raw = "ledger: session s benchtime 500ms rounds 3\n"
	round("aaa", "bbb")
	round("bbb", "aaa")
	round("aaa", "bbb")
	var l ledger
	appendSession(t, &l, []byte(raw))
	if len(l.Commits) != 2 || l.Commits[0].Commit != "aaa" || l.Commits[1].Commit != "bbb" {
		t.Fatalf("commits %+v, want aaa then bbb", l.Commits)
	}
	for _, r := range l.Layers {
		want := map[string]float64{"aaa": 1, "bbb": 2}[r.Commit]
		if r.Runs != 3 || r.AllocsOp.Min != want || r.AllocsOp.Max != want {
			t.Errorf("%s row: %d runs, allocs/op %+v, want 3 runs of %g", r.Commit, r.Runs, r.AllocsOp, want)
		}
	}
	if len(l.Layers) != 2 {
		t.Errorf("%d rows, want 2", len(l.Layers))
	}
}

// TestLedgerGate runs the gate on a two-commit ledger: the newest commit's
// rows must all be in the run, and a benchmark's allocs/op may exceed its
// last row's median by the widest spread of any of its rows, not more.
func TestLedgerGate(t *testing.T) {
	row := func(commit, name string, cpu int, lo, med, hi float64) ledgerRow {
		return ledgerRow{Commit: commit, Session: "s", Benchmark: name, CPU: cpu,
			AllocsOp: ledgerCell{Min: lo, Q1: med, Median: med, Q3: med, Max: hi}}
	}
	l := ledger{
		Commits: []ledgerCommit{{Commit: "old", Session: "s"}, {Commit: "new", Session: "s"}},
		Layers: []ledgerRow{
			row("old", "BenchmarkHTTP", 1, 540, 541, 541),
			row("old", "BenchmarkScan", 1, 5, 5, 5),
			row("new", "BenchmarkHTTP", 1, 541, 541, 541),
			row("new", "BenchmarkHTTP", 4, 500, 600, 700),
			row("new", "BenchmarkScan", 1, 6, 6, 6),
		},
	}
	run := func(http, scan string) []byte {
		out := "BenchmarkHTTP-4 10 100 ns/op 1 B/op 900 allocs/op\n"
		for range 3 {
			if http != "" {
				out += "BenchmarkHTTP 10 100 ns/op 1 B/op " + http + " allocs/op\n"
			}
			if scan != "" {
				out += "BenchmarkScan 10 100 ns/op 1 B/op " + scan + " allocs/op\n"
			}
		}
		return []byte(out)
	}
	for _, tc := range []struct {
		http, scan string
		fail       []string // substrings, one a failure
	}{
		{"542", "6", nil},
		{"543", "6", []string{"BenchmarkHTTP -cpu 1: 543 allocs/op, the ledger's last row (new) allows 542"}},
		{"541", "7", []string{"BenchmarkScan -cpu 1: 7 allocs/op, the ledger's last row (new) allows 6"}},
		{"541", "", []string{"BenchmarkScan -cpu 1: a row of new"}},
		{"", "", []string{"BenchmarkHTTP -cpu 1: a row of new", "BenchmarkScan -cpu 1: a row of new", "nothing was gated"}},
	} {
		got := gate(l, run(tc.http, tc.scan))
		if len(got) != len(tc.fail) {
			t.Errorf("http %q scan %q: failures %q, want %d", tc.http, tc.scan, got, len(tc.fail))
			continue
		}
		for i, want := range tc.fail {
			if !strings.Contains(got[i], want) {
				t.Errorf("http %q scan %q: failure %q, want it to say %q", tc.http, tc.scan, got[i], want)
			}
		}
	}
}

var ledgerReferenceSink [sha256.Size]byte

// BenchmarkLedgerReference is the ledger's machine speed: fixed work no
// commit changes, run beside each commit's benchmarks.
func BenchmarkLedgerReference(b *testing.B) {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		ledgerReferenceSink = sha256.Sum256(buf)
	}
}
