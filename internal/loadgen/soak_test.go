package loadgen

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/obs"
	"vmalloc/internal/workload"
)

// idRecorder is the soak client's transport: it remembers the request id
// of every request sent, so the flight recorder can be checked against
// what the client really issued.
type idRecorder struct {
	mu  sync.Mutex
	ids map[string]bool
}

func (r *idRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	r.ids[req.Header.Get(obs.RequestIDHeader)] = true
	r.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// copyDir copies the flat journal directory (journal.jsonl, and
// snapshot.json when present) — a poor man's crash image: the bytes a
// new process would find if this one died without closing.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSoakJournalReplay is the in-process soak harness: a real journaled
// cluster behind the real HTTP handler, hammered by the load runner with
// chunked concurrent admissions, concurrent releases and interleaved
// clock advances (run it under -race). Afterwards the journal directory
// is copied mid-flight — before Close writes its snapshot — and reopened:
// the replayed state must match the live state byte for byte. Then the
// clean shutdown path (snapshot on Close) is reopened and must match too.
//
// The run is traced end to end: a flight recorder sized to hold every
// decision is wired through cluster and handler, the client records each
// request id it issues, and afterwards the recorder must attribute every
// decision to a client-issued id — with op counts matching the report and
// stage timings present. Recorder reads happen concurrently with the load
// (verified by -race).
func TestSoakJournalReplay(t *testing.T) {
	spec := ScheduleSpec{
		Arrivals: workload.DiurnalSpec{
			NumVMs: 1300, MeanInterArrival: 0.3, MeanLength: 30, PeakToTrough: 3, Period: 360,
		},
		ReleaseFraction: 0.5,
		Seed:            20260805,
	}
	if testing.Short() {
		spec.Arrivals.NumVMs = 300
	}
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && sched.Ops() < 2000 {
		t.Fatalf("soak schedule has %d ops, want >= 2000", sched.Ops())
	}

	dir := t.TempDir()
	cfg := cluster.Config{
		Servers:       testServers(24),
		IdleTimeout:   5,
		Dir:           dir,
		SnapshotEvery: -1,   // snapshot only on Close: the copy below sees journal-only state
		DisableFsync:  true, // soak speed; logical replay guarantees are what is under test
	}
	// Big enough that no decision of this run is ever evicted, so the
	// request-id cross-check below is exhaustive.
	recorder := obs.NewFlightRecorder(1 << 14)
	cfg.Recorder = recorder
	cl, err := cluster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := httptest.NewServer(clusterhttp.New(cl, nil))
	defer srv.Close()

	client := NewClient(srv.URL)
	issued := &idRecorder{ids: map[string]bool{}}
	client.HTTP = &http.Client{Transport: issued}
	r := &Runner{
		Client:   client,
		Schedule: sched,
		// Consolidate every 60 fleet minutes: the diurnal trough leaves
		// under-utilised servers for the pay-for-itself drains, so the
		// journal gets real migrate records to replay below.
		Opts: Options{Workers: 16, Chunk: 8, ConsolidateEvery: 60},
	}

	// Read the recorder concurrently with the load — both in-process and
	// over HTTP — so -race covers the reader/writer paths.
	readCtx, stopReads := context.WithCancel(context.Background())
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		reader := NewClient(srv.URL)
		for readCtx.Err() == nil {
			recorder.Decisions(obs.Filter{Limit: 16})
			if _, err := get[api.DecisionsResponse](readCtx, reader, "/v1/debug/decisions", "limit=16"); err != nil && readCtx.Err() == nil {
				t.Errorf("concurrent decisions read: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	rep, err := r.Run(context.Background())
	stopReads()
	<-readsDone
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("soak run reported %d errors", rep.Errors)
	}
	if rep.Sent != spec.Arrivals.NumVMs {
		t.Fatalf("sent %d admissions, want %d", rep.Sent, spec.Arrivals.NumVMs)
	}
	t.Logf("soak: %d ops, %d accepted, %d rejected, %d released in %s",
		sched.Ops(), rep.Accepted, rep.Rejected, rep.Releases, rep.Wall.Round(time.Millisecond))
	if rep.Consolidations == 0 {
		t.Fatal("soak ran no consolidation passes")
	}
	if !testing.Short() && rep.Migrations == 0 {
		t.Fatal("full soak executed no migrations: the replay below would not cover migrate records")
	}
	t.Logf("consolidation: %d passes, %d migrations, %.2f Wmin saved",
		rep.Consolidations, rep.Migrations, rep.MigrationSaved)

	verifyDecisionTrace(t, issued.ids, recorder, rep)

	wantJSON, err := cl.StateJSON()
	if err != nil {
		t.Fatal(err)
	}

	// Crash image: journal only, no shutdown snapshot.
	crashDir := t.TempDir()
	copyDir(t, dir, crashDir)
	crashCfg := cfg
	crashCfg.Dir = crashDir
	replayed, err := cluster.Open(crashCfg)
	if err != nil {
		t.Fatalf("reopening journal-only crash image: %v", err)
	}
	gotJSON, err := replayed.StateJSON()
	if cerr := replayed.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("journal replay diverged from live state\nlive:     %s\nreplayed: %s",
			trimForLog(wantJSON), trimForLog(gotJSON))
	}

	// Clean shutdown: Close compacts into snapshot.json; reopening must
	// restore the same bytes.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := cluster.Open(cfg)
	if err != nil {
		t.Fatalf("reopening after clean shutdown: %v", err)
	}
	gotJSON, err = reopened.StateJSON()
	if cerr := reopened.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("snapshot restore diverged from live state")
	}
}

// verifyDecisionTrace cross-checks the flight recorder against the run:
// every decision must carry a request id the client actually issued, the
// op counts must reconcile with the report, and admit decisions must have
// batch ids and stage timings.
func verifyDecisionTrace(t *testing.T, issued map[string]bool, rec *obs.FlightRecorder, rep *Report) {
	t.Helper()
	ds := rec.Decisions(obs.Filter{})
	if len(ds) == 0 {
		t.Fatal("flight recorder is empty after the soak")
	}
	if ds[0].Seq != 1 {
		t.Fatalf("recorder evicted decisions (%d recorded, %d held): size it up", ds[len(ds)-1].Seq, len(ds))
	}
	var admits, rejects, releases, migrates int
	for _, d := range ds {
		if d.RequestID == "" || !issued[d.RequestID] {
			t.Fatalf("decision carries request id %q the client never issued: %+v", d.RequestID, d)
		}
		switch d.Op {
		case obs.OpAdmit:
			admits++
			if d.Batch == 0 {
				t.Fatalf("admit decision without a batch id: %+v", d)
			}
			if d.Stages.Scan <= 0 || d.Stages.Commit <= 0 {
				t.Fatalf("admit decision without stage timings: %+v", d)
			}
			if d.Server == 0 {
				t.Fatalf("admit decision without a server: %+v", d)
			}
		case obs.OpReject:
			rejects++
			if d.Reason == "" {
				t.Fatalf("reject decision without a reason: %+v", d)
			}
		case obs.OpRelease:
			if d.Reason == "" {
				releases++ // successful release; failed ones carry a reason
			}
		case obs.OpMigrate:
			migrates++
			if d.Server == 0 || d.From == 0 {
				t.Fatalf("migrate decision without endpoints: %+v", d)
			}
			if d.Stages.Journal <= 0 {
				t.Fatalf("migrate decision without a journal stage: %+v", d)
			}
		default:
			t.Fatalf("unknown op in decision %+v", d)
		}
	}
	if admits != rep.Accepted || rejects != rep.Rejected || releases != rep.Releases {
		t.Fatalf("recorder saw %d/%d/%d admit/reject/release, report says %d/%d/%d",
			admits, rejects, releases, rep.Accepted, rep.Rejected, rep.Releases)
	}
	if migrates != rep.Migrations {
		t.Fatalf("recorder saw %d migrate decisions, report says %d", migrates, rep.Migrations)
	}
	t.Logf("trace: %d decisions, all matched to %d issued request ids", len(ds), len(issued))
}

func trimForLog(b []byte) string {
	const max = 600
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "…"
}
