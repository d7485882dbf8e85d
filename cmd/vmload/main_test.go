package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/loadgen"
	"vmalloc/internal/model"
	"vmalloc/internal/shard"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	servers := make([]model.Server, 8)
	for i := range servers {
		servers[i] = model.Server{
			ID:             i + 1,
			Capacity:       model.Resources{CPU: 10, Mem: 16},
			PIdle:          100,
			PPeak:          200,
			TransitionTime: 1,
		}
	}
	c, err := cluster.Open(cluster.Config{Servers: servers, IdleTimeout: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(clusterhttp.New(c, nil))
	t.Cleanup(srv.Close)
	return srv
}

func TestRunVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Fatal("-version printed nothing")
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-profile", "bursty"}, "unknown profile"},
		{[]string{"-vms", "0"}, ""},
		// Removed with the client-side router (one -addr at the gate
		// follows its resizes): a usage error, not a silent no-op.
		{[]string{"-topology-source", "http://127.0.0.1:1"}, "flag provided but not defined"},
	} {
		err := run(context.Background(), c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}

func TestRunAgainstServer(t *testing.T) {
	srv := newServer(t)
	outPath := filepath.Join(t.TempDir(), "report.json")
	args := []string{
		"-addr", srv.URL,
		"-profile", "diurnal",
		"-vms", "80",
		"-mean-interarrival", "0.5",
		"-mean-length", "20",
		"-period", "120",
		"-release-fraction", "0.3",
		"-seed", "5",
		"-minute", "0",
		"-out", outPath,
	}
	var out bytes.Buffer
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"profile diurnal seed 5", "admissions:", "outcome digest:", "state digest:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Sent != 80 || rep.Errors != 0 || rep.Profile != "diurnal" || rep.Seed != 5 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Accepted+rep.Rejected != rep.Sent {
		t.Fatalf("accounting: %d+%d != %d", rep.Accepted, rep.Rejected, rep.Sent)
	}
}

// TestRunMultiTarget drives two shards with repeated -addr flags: the
// run completes without failed operations and the reported state digest
// is the combined per-shard digest — the same value a vmgate over these
// shards would serve.
func TestRunMultiTarget(t *testing.T) {
	srvA, srvB := newServer(t), newServer(t)
	outPath := filepath.Join(t.TempDir(), "report.json")
	args := []string{
		"-addr", "a=" + srvA.URL,
		"-addr", "b=" + srvB.URL,
		"-vms", "120",
		"-seed", "9",
		"-minute", "0",
		"-out", outPath,
	}
	var out bytes.Buffer
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 120 || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}
	digests := make(map[string]string, 2)
	for name, srv := range map[string]*httptest.Server{"a": srvA, "b": srvB} {
		_, digest, err := loadgen.NewClient(srv.URL).State(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		digests[name] = digest
	}
	if want := shard.CombineDigests(digests); rep.StateDigest != want {
		t.Fatalf("report digest %s != combined per-shard digests %s", rep.StateDigest, want)
	}
}

// TestRunDigestDeterministic is the CLI-level acceptance check: the same
// -seed against two fresh servers prints the same outcome digest.
func TestRunDigestDeterministic(t *testing.T) {
	digest := func() string {
		srv := newServer(t)
		var out bytes.Buffer
		args := []string{"-addr", srv.URL, "-vms", "60", "-seed", "11", "-minute", "0", "-digest"}
		if err := run(context.Background(), args, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(out.String())
	}
	a, b := digest(), digest()
	if len(a) != 64 || a != b {
		t.Fatalf("digests differ or malformed:\n%s\n%s", a, b)
	}
}
