package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/baseline"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
)

func writeInstance(t *testing.T) string {
	t.Helper()
	return writeGenerated(t, workload.Spec{NumVMs: 20, MeanInterArrival: 2, MeanLength: 30}, 10)
}

func writeGenerated(t *testing.T, spec workload.Spec, servers int) string {
	t.Helper()
	inst, err := workload.Generate(spec, workload.FleetSpec{NumServers: servers, TransitionTime: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllAlgorithms(t *testing.T) {
	path := writeInstance(t)
	for _, algo := range append(baseline.Names(), "firstfit") {
		t.Run(algo, func(t *testing.T) {
			var sb strings.Builder
			if err := run(context.Background(), []string{"-in", path, "-algo", algo}, &sb); err != nil {
				t.Fatalf("run: %v", err)
			}
			out := sb.String()
			if !strings.Contains(out, "energy:") || !strings.Contains(out, "VMs placed:") {
				t.Errorf("unexpected output:\n%s", out)
			}
		})
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeInstance(t)
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", path, "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Allocator string      `json:"allocator"`
		Placement map[int]int `json:"placement"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON output: %v", err)
	}
	if decoded.Allocator != "MinCost" || len(decoded.Placement) != 20 {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeInstance(t)
	t.Run("unknown algo", func(t *testing.T) {
		var sb strings.Builder
		if err := run(context.Background(), []string{"-in", path, "-algo", "nope"}, &sb); err == nil {
			t.Error("want error")
		}
	})
	// The offline scan has no worker pool, so the flag that sized one is a
	// usage error, not a silent no-op.
	t.Run("removed flag", func(t *testing.T) {
		var sb strings.Builder
		err := run(context.Background(), []string{"-in", path, "-parallel", "2"}, &sb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-parallel: error %v, want flag provided but not defined", err)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		var sb strings.Builder
		if err := run(context.Background(), []string{"-in", "/nonexistent.json"}, &sb); err == nil {
			t.Error("want error")
		}
	})
	t.Run("invalid json", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run(context.Background(), []string{"-in", bad}, &sb); err == nil {
			t.Error("want error")
		}
	})
	t.Run("invalid instance", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "empty.json")
		data, _ := json.Marshal(model.Instance{})
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run(context.Background(), []string{"-in", bad}, &sb); err == nil {
			t.Error("want error")
		}
	})
}

func TestRunWithImprove(t *testing.T) {
	path := writeInstance(t)
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", path, "-algo", "ffps", "-improve"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "+search") {
		t.Errorf("output missing search marker:\n%s", sb.String())
	}

	// The search empties servers (vmworkload's defaults at inter-arrival 4:
	// FFPS opens 42, the search leaves 21), and the count printed must be
	// of the placement printed beside it.
	path = writeGenerated(t, workload.Spec{NumVMs: 100, MeanInterArrival: 4, MeanLength: 50}, 50)
	sb.Reset()
	if err := run(context.Background(), []string{"-in", path, "-algo", "ffps", "-improve", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		ServersUsed int         `json:"serversUsed"`
		Placement   map[int]int `json:"placement"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	distinct := make(map[int]bool)
	for _, srv := range out.Placement {
		distinct[srv] = true
	}
	if out.ServersUsed != len(distinct) {
		t.Errorf("serversUsed = %d over a placement on %d distinct servers", out.ServersUsed, len(distinct))
	}
}

func TestRunOnlineMode(t *testing.T) {
	path := writeInstance(t)
	for _, algo := range online.PolicyNames() {
		var sb strings.Builder
		if err := run(context.Background(), []string{"-in", path, "-online", "-algo", algo}, &sb); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := sb.String()
		if !strings.Contains(out, "wake-ups:") || !strings.Contains(out, "start delays:") {
			t.Errorf("%s output:\n%s", algo, out)
		}
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", path, "-online", "-algo", "bestfit"}, &sb); err == nil {
		t.Error("unsupported online algo accepted")
	}
	// A run cancelled before its closing offline comparison reports it.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	sb.Reset()
	err := run(cancelled, []string{"-in", path, "-online"}, &sb)
	if !errors.Is(err, context.Canceled) || strings.Contains(sb.String(), "vs offline:") {
		t.Errorf("cancelled online run: err = %v, want context.Canceled and no offline line:\n%s", err, sb.String())
	}
}
