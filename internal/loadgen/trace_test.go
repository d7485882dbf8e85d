package loadgen

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/trace"
)

func traceVM(id int, cpu float64, start, end int) model.VM {
	return model.VM{ID: id, Demand: model.Resources{CPU: cpu, Mem: 1}, Start: start, End: end}
}

func TestTraceSchedule(t *testing.T) {
	// Sparse IDs, out-of-order minutes, two VMs sharing a start minute.
	sched, err := TraceSchedule([]model.VM{
		traceVM(70, 1, 5, 40),
		traceVM(3, 2, 1, 10),
		traceVM(12, 1, 5, 25),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumVMs != 3 || sched.Horizon != 40 || sched.NumReleases != 0 {
		t.Fatalf("schedule summary = %+v", sched)
	}
	if len(sched.Steps) != 2 || sched.Steps[0].Minute != 1 || sched.Steps[1].Minute != 5 {
		t.Fatalf("steps = %+v", sched.Steps)
	}
	adm := sched.Steps[1].Admits
	if len(adm) != 2 || adm[0].ID != 12 || adm[1].ID != 70 {
		t.Fatalf("minute-5 admits = %+v, want IDs 12 then 70", adm)
	}
	if adm[0].Start != 5 || adm[0].DurationMinutes != traceVM(12, 1, 5, 25).Duration() {
		t.Fatalf("admit %+v does not carry the trace lifetime", adm[0])
	}

	for _, tc := range []struct {
		name string
		vms  []model.VM
		want string
	}{
		{"empty", nil, "empty trace"},
		{"zero id", []model.VM{traceVM(0, 1, 1, 5)}, "want >= 1"},
		{"duplicate id", []model.VM{traceVM(4, 1, 1, 5), traceVM(4, 1, 2, 6)}, "appears twice"},
	} {
		if _, err := TraceSchedule(tc.vms); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceReplayEndToEnd round-trips a trace through the runner: the
// CSV shape internal/trace writes replays against a live cluster, every
// VM is admitted at its start minute, and by the horizon the natural
// departures have drained the fleet.
func TestTraceReplayEndToEnd(t *testing.T) {
	vms := []model.VM{
		traceVM(10, 2, 1, 30),
		traceVM(200, 1, 1, 45),
		traceVM(35, 4, 12, 50),
		traceVM(7, 1, 20, 20),
	}
	var csv strings.Builder
	if err := trace.WriteCSV(&csv, vms); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ReadCSV(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := TraceSchedule(parsed)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := cluster.Open(cluster.Config{
		Servers:     testServers(4),
		IdleTimeout: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := httptest.NewServer(clusterhttp.New(cl, clusterhttp.Config{}))
	defer srv.Close()

	r := &Runner{Client: NewClient(srv.URL), Schedule: sched, Opts: Options{Workers: 2}}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Accepted != len(vms) || rep.Rejected != 0 {
		t.Fatalf("report: %d errors, %d accepted, %d rejected", rep.Errors, rep.Accepted, rep.Rejected)
	}
	st := cl.State()
	if st.Now != sched.Horizon+1 {
		t.Fatalf("final clock %d, want the post-horizon drain tick %d", st.Now, sched.Horizon+1)
	}
	if rep.FinalResidents != 0 {
		t.Fatalf("%d residents at the horizon, want 0 (trace ends drain the fleet)", rep.FinalResidents)
	}
	if rep.OutcomeDigest == "" || rep.StateDigest == "" {
		t.Fatal("trace replay produced no digests")
	}
}

// TestTraceReplayHugeID: the runner keeps accepted ids in a set, so a
// trace id far beyond any table size replays like a small one.
func TestTraceReplayHugeID(t *testing.T) {
	sched, err := TraceSchedule([]model.VM{traceVM(1, 1, 1, 10), traceVM(1<<62, 1, 2, 12)})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Open(cluster.Config{Servers: testServers(2), IdleTimeout: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	r := &Runner{Client: NewHandlerClient(clusterhttp.New(cl, clusterhttp.Config{})), Schedule: sched}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Accepted != 2 {
		t.Fatalf("report: %d errors, %d accepted, want 0 and 2", rep.Errors, rep.Accepted)
	}
}
