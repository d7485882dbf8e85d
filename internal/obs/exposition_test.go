package obs_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vmalloc/internal/obs"
	"vmalloc/internal/shard"
)

// TestReadExposition: the reader takes what the writer writes, labels
// unquoted in order, and refuses every other line with an error naming
// it.
func TestReadExposition(t *testing.T) {
	var buf bytes.Buffer
	obs.Declare(&buf, "x_state", "Per-server state.", "gauge")
	obs.Sample(&buf, "x_state", 3, "server", "7", "note", `a "b"\c {y},=`)
	obs.Sample(&buf, "x_state", 0.25)
	lines, err := obs.ReadExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []obs.Line{
		{Kind: "HELP", Name: "x_state", Text: "Per-server state."},
		{Kind: "TYPE", Name: "x_state", Text: "gauge"},
		{Name: "x_state", Text: "3", Labels: []string{"server", "7", "note", `a "b"\c {y},=`}, Value: 3},
		{Name: "x_state", Text: "0.25", Value: 0.25},
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("read %#v\nwant %#v", lines, want)
	}
	if got := lines[2].Series("server"); got != `x_state{note="a \"b\"\\c {y},="}` {
		t.Errorf("Series without server = %s", got)
	}
	for _, line := range []string{
		"# a note",
		"#HELP x help",
		"# TYPE x",
		"# HELP 1x help",
		"x",
		"x{a=\"1\"}",
		"x 1 1700000000",
		"x one",
		"x{a=\"1\" 1",
		"x{a='1'} 1",
		"x{1a=\"1\"} 1",
		"x{a=\"1\"}{b=\"2\"} 1",
		"x-y 1",
		" x 1",
	} {
		if _, err := obs.ReadExposition([]byte(line + "\n")); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", line)) {
			t.Errorf("%q: err %v, want an error naming the line", line, err)
		}
	}
}

// FuzzExposition: ReadExposition never panics, and neither does the
// gate's MergeExpositions, which reads shard bodies from outside the
// process, nor does the merge write what the reader refuses. Whatever
// reads without error reads the same again after each Line is written
// back as its String.
func FuzzExposition(f *testing.F) {
	for _, name := range []string{"merge_a.prom", "merge_b.prom"} {
		data, err := os.ReadFile(filepath.Join("..", "shard", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	var buf bytes.Buffer
	obs.Declare(&buf, "x_odd", "Label values the writer quotes.", "gauge")
	for i, v := range []string{`"`, `\`, "\n", "{", "}", ",", "=", " ", "é", "\"\\\n{},= é\x00"} {
		obs.Sample(&buf, "x_odd", i, "v", v, "le", "+Inf")
	}
	f.Add(buf.Bytes())
	shards := []shard.Shard{{Name: "a"}, {Name: "b"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var merged bytes.Buffer
		shard.MergeExpositions(&merged, shards, [][]byte{data, data})
		if _, err := obs.ReadExposition(merged.Bytes()); err != nil {
			t.Fatalf("merged output does not read: %v", err)
		}
		lines, err := obs.ReadExposition(data)
		if err != nil {
			return
		}
		var back bytes.Buffer
		for _, l := range lines {
			fmt.Fprintln(&back, l)
		}
		again, err := obs.ReadExposition(back.Bytes())
		if err != nil {
			t.Fatalf("written back, does not read: %v\n%s", err, back.Bytes())
		}
		// Value is ParseFloat of Text, which must match; NaN never equals
		// itself, so compare without it.
		for _, ls := range [][]obs.Line{lines, again} {
			for i := range ls {
				ls[i].Value = 0
			}
		}
		if !reflect.DeepEqual(again, lines) {
			t.Fatalf("written back, reads\n%#v\nwant\n%#v", again, lines)
		}
	})
}
