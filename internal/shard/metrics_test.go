package shard

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/promlint"
)

var update = flag.Bool("update", false, "rewrite testdata/merge.golden from this build's MergeExpositions")

// TestMergeExpositions merges two vmserve scrapes taken after traffic
// and compares the result with testdata/merge.golden byte for byte:
// families shared across shards are regrouped under one declaration and
// every sample gains the shard label. Families planted beside the real
// ones: merge_a.prom ends with one carrying every label shape the merge
// rewrites (none, {}, le="+Inf", values with spaces and with braces), one
// declared by its HELP line alone, and one whose TYPE line only
// merge_b.prom has; merge_b.prom declares one family merge_a.prom lacks,
// between two both declare, which the merge writes after shard a's
// families. The merged bytes are
// vmgate's /metrics, whose shard="…" series the benchmark sums, so
// -update is for a change meant to move them.
func TestMergeExpositions(t *testing.T) {
	shards := []Shard{{Name: "a"}, {Name: "b"}}
	payloads := make([][]byte, len(shards))
	for i, s := range shards {
		data, err := os.ReadFile(filepath.Join("testdata", "merge_"+s.Name+".prom"))
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = data
	}
	var buf bytes.Buffer
	MergeExpositions(&buf, shards, payloads)
	golden := filepath.Join("testdata", "merge.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("merged line %d = %q, golden has %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("merged output has %d lines, golden %d", len(gl), len(wl))
	}
	promlint.Lint(t, buf.String())
}

// TestMergeSkipsUnreadable: a payload the exposition reader refuses is
// merged as a failed scrape's nil one is, and the error names its shard.
func TestMergeSkipsUnreadable(t *testing.T) {
	shards := []Shard{{Name: "a"}, {Name: "b"}}
	a := []byte("# HELP x_total X.\n# TYPE x_total counter\nx_total 1\n")
	var got, want bytes.Buffer
	err := MergeExpositions(&got, shards, [][]byte{a, []byte("# a note\nx_total 2\n")})
	if MergeExpositions(&want, shards, [][]byte{a, nil}) != nil || err == nil || !strings.Contains(err.Error(), "shard b") {
		t.Fatalf("err %v, want one naming shard b", err)
	}
	if got.String() != want.String() {
		t.Errorf("merged\n%s\nwant, as with shard b's scrape failed,\n%s", got.String(), want.String())
	}
}
