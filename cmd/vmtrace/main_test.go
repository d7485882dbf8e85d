package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/model"
	"vmalloc/internal/workload"
)

func writeFiles(t *testing.T) (jsonPath, csvPath string) {
	t.Helper()
	inst, err := workload.Generate(
		workload.Spec{NumVMs: 25, MeanInterArrival: 2, MeanLength: 30},
		workload.FleetSpec{NumServers: 10, TransitionTime: 1},
		1,
	)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonPath = filepath.Join(dir, "inst.json")
	data, _ := json.Marshal(inst)
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath = filepath.Join(dir, "trace.csv")
	if err := run([]string{"convert", "-in", jsonPath, "-o", csvPath}, os.Stderr); err != nil {
		t.Fatal(err)
	}
	return jsonPath, csvPath
}

func TestStatsFromBothFormats(t *testing.T) {
	jsonPath, csvPath := writeFiles(t)
	for _, path := range []string{jsonPath, csvPath} {
		var sb strings.Builder
		if err := run([]string{"stats", "-in", path}, &sb); err != nil {
			t.Fatalf("stats %s: %v", path, err)
		}
		if !strings.Contains(sb.String(), "requests:            25") {
			t.Errorf("stats output for %s:\n%s", path, sb.String())
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	_, csvPath := writeFiles(t)
	back := filepath.Join(t.TempDir(), "vms.json")
	if err := run([]string{"convert", "-in", csvPath, "-o", back}, os.Stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	var vms []model.VM
	if err := json.Unmarshal(data, &vms); err != nil {
		t.Fatal(err)
	}
	if len(vms) != 25 {
		t.Errorf("round trip lost VMs: %d", len(vms))
	}
}

func TestFitOutputsSpec(t *testing.T) {
	_, csvPath := writeFiles(t)
	var sb strings.Builder
	if err := run([]string{"fit", "-in", csvPath}, &sb); err != nil {
		t.Fatal(err)
	}
	var spec workload.Spec
	if err := json.Unmarshal([]byte(sb.String()), &spec); err != nil {
		t.Fatalf("fit output is not a spec: %v", err)
	}
	if spec.NumVMs != 25 {
		t.Errorf("fitted NumVMs = %d", spec.NumVMs)
	}
}

func TestErrors(t *testing.T) {
	if err := run(nil, os.Stderr); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}, os.Stderr); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"convert", "-in", "nope.csv", "-o", "x.csv"}, os.Stderr); err == nil {
		t.Error("missing input accepted")
	}
	jsonPath, _ := writeFiles(t)
	if err := run([]string{"convert", "-in", jsonPath}, os.Stderr); err == nil {
		t.Error("convert without -o accepted")
	}
}

// TestArgumentsBeforeInput: -h and --help answer with the usage, and an
// unknown subcommand or a convert without -o is refused, all without
// reading stdin, which here is a closed file any read would fail on.
func TestArgumentsBeforeInput(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	w.Close()
	stdin := os.Stdin
	os.Stdin = r
	t.Cleanup(func() { os.Stdin = stdin })
	for _, args := range [][]string{{"-h"}, {"--help"}, {"stats", "-h"}} {
		if err := run(args, os.Stderr); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("vmtrace %s: err = %v, want the usage", strings.Join(args, " "), err)
		}
	}
	for args, want := range map[string]string{"bogus": "unknown subcommand", "convert": "convert needs -o", "": "usage: vmtrace"} {
		if err := run(strings.Fields(args), os.Stderr); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("vmtrace %s: err = %v, want %q", args, err, want)
		}
	}
}
