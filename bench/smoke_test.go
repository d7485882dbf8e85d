package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func tAt(ns int64) time.Time { return time.Unix(0, ns) }

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestListMatchesBenchmarkJSON pins what -list prints to BENCHMARK.json:
// same names in the same order, same units, directions and bounds, all
// inside the driver's limits.
func TestListMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var out bytes.Buffer
	printList(&out)
	listed := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		listed[f[0]] = append(listed[f[0]], strings.Join(f[1:], " "))
	}
	var want = map[string][]string{}
	for _, w := range b.Workloads {
		want["workload"] = append(want["workload"], w.Name)
	}
	for _, m := range b.EndToEnd {
		want["end_to_end"] = append(want["end_to_end"], strings.Join([]string{m.Name, m.Unit, m.Better, trimFloat(m.Bound)}, " "))
	}
	for _, m := range b.PerLayer {
		want["per_layer"] = append(want["per_layer"], strings.Join([]string{m.Name, m.Unit, m.Better}, " "))
	}
	for kind, w := range want {
		if got := listed[kind]; strings.Join(got, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s rows differ:\n-list prints:\n%s\nBENCHMARK.json has:\n%s", kind, strings.Join(got, "\n"), strings.Join(w, "\n"))
		}
	}

	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is outside the allowed alphabet", u, n)
		}
	}
	for i, w := range b.Workloads {
		check(w.Name, "")
		if w.Why != workloads[i].Why {
			t.Errorf("workload %s: BENCHMARK.json's why differs from spec.go's", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d differs from the program's default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

func trimFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

// TestSmokeEveryWorkload runs each workload at 1/50 scale, untraced and
// traced, through the real binaries: every check passes, every end-to-end
// metric is a positive number, and the traced run fills every per-layer
// metric that lives on that workload.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := runOne(ctx, w, time.Now(), 3, 0.05, 50, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("failed %d of %d ops: %v", res.failed, res.attempted, res.problems)
			}
			for _, m := range endToEnd {
				if v, ok := res.e2e[m.Name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive number", m.Name, v)
				}
			}
			var parsed map[string]any
			if err := json.Unmarshal([]byte(res.jsonLine()), &parsed); err != nil || len(parsed) != 4 {
				t.Errorf("result line is not the four-key object: %s", res.jsonLine())
			}
		})
	}
}

func TestSmokeTracedRun(t *testing.T) {
	ctx := context.Background()
	filled := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		res, err := runOne(ctx, w, time.Now(), 3, 0.05, 50, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.correct() {
			t.Fatalf("%s: failed %d of %d ops: %v", w.Name, res.failed, res.attempted, res.problems)
		}
		for k, v := range res.layer {
			if v != 0 {
				filled[k] = true
			}
			if strings.HasPrefix(k, "shard.") && v != 0 && w.Name != wlGateMixed {
				t.Errorf("%s reports %s = %v: shard metrics belong to %s alone", w.Name, k, v, wlGateMixed)
			}
		}
		root, _ := findRoot()
		if _, err := os.Stat(filepath.Join(root, "bench", "out", w.Name+".spans.jsonl")); err != nil {
			t.Errorf("%s: traced run wrote no span file: %v", w.Name, err)
		}
	}
	// Every per-layer metric is produced by at least one workload, except
	// the two counts that are rightly zero here: nothing goes wrong, and at
	// this scale no shard reaches the 256 mutations of a first snapshot.
	zeroHere := map[string]bool{"shard.proxy_errors": true, "cluster.snapshots": true}
	for _, m := range perLayer {
		if !filled[m.Name] && !zeroHere[m.Name] {
			t.Errorf("no workload fills %s", m.Name)
		}
	}
}

func TestFlagDefaultFromHelp(t *testing.T) {
	help := "Usage of vmserve:\n  -addr string\n    \tlisten address (default \":8080\")\n" +
		"  -batch-window duration\n    \tadmission micro-batch collection window (0 = opportunistic) (default 1ms)\n" +
		"  -journal string\n    \tjournal directory\n"
	if got := flagDefaultMS(help, "batch-window"); got != 1 {
		t.Errorf("batch-window default = %v ms, want 1", got)
	}
	if got := flagDefaultMS(help, "journal"); got != 0 {
		t.Errorf("a flag without a default reads as %v ms, want 0", got)
	}
	if !flagListed(help, "journal") || flagListed(help, "journal-format") {
		t.Error("flagListed misreads the help text")
	}
}
