package cluster

import (
	"context"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
)

// TestFlightRecorderDecisions: the cluster stamps every admit, reject and
// release onto the configured recorder with the context's request id, the
// batch id and per-stage durations — and a nil recorder changes nothing.
func TestFlightRecorderDecisions(t *testing.T) {
	rec := obs.NewFlightRecorder(64)
	c := mustOpen(t, Config{Servers: testServers(2), IdleTimeout: 2, Recorder: rec})
	defer c.Close()

	ctx := obs.WithRequestID(context.Background(), "cluster-test-id")
	ctx = obs.WithDecodeSpan(ctx, 3*time.Millisecond)
	adms, err := c.Admit(ctx, []api.AdmitRequest{
		{ID: 1, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 30},
		{ID: 2, Demand: model.Resources{CPU: 999, Mem: 999}, DurationMinutes: 30},
		{ID: 3, DurationMinutes: 0}, // normalize reject: bad duration
	})
	if err != nil {
		t.Fatal(err)
	}
	if !adms[0].Accepted || adms[1].Accepted || adms[2].Accepted {
		t.Fatalf("admissions %+v", adms)
	}
	if _, err := c.Release(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// A release of an unknown VM is recorded too, as a failed release.
	if _, err := c.Release(ctx, 42); err == nil {
		t.Fatal("release of unknown VM succeeded")
	}

	ds := rec.Select(0, nil)
	if len(ds) != 5 {
		t.Fatalf("got %d decisions, want 5: %+v", len(ds), ds)
	}
	for i, d := range ds {
		if d.RequestID != "cluster-test-id" {
			t.Errorf("decision %d request id %q", i, d.RequestID)
		}
	}

	admit := rec.Select(0, obs.Filter{Op: obs.OpAdmit}.Match)
	if len(admit) != 1 || admit[0].VM != 1 {
		t.Fatalf("admit decisions %+v", admit)
	}
	a := admit[0]
	if a.Batch == 0 || a.Server == 0 || a.End <= a.Start {
		t.Errorf("admit decision %+v", a)
	}
	if a.Candidates == 0 {
		t.Errorf("admit evaluated no candidates: %+v", a)
	}
	if a.Stages.Decode != 3*time.Millisecond {
		t.Errorf("decode span %v, want 3ms", a.Stages.Decode)
	}
	if a.Stages.Scan <= 0 || a.Stages.Commit <= 0 || a.Stages.QueueWait < 0 {
		t.Errorf("admit stages %+v", a.Stages)
	}

	rejects := rec.Select(0, obs.Filter{Op: obs.OpReject}.Match)
	if len(rejects) != 2 {
		t.Fatalf("reject decisions %+v", rejects)
	}
	for _, d := range rejects {
		if d.Reason == "" {
			t.Errorf("reject without reason: %+v", d)
		}
	}
	// The infeasible-demand reject went through the scan; the normalize
	// reject (bad duration) never reached it and records only decode and
	// queue-wait.
	byVM := map[int]obs.Decision{}
	for _, d := range rejects {
		byVM[d.VM] = d
	}
	if d := byVM[2]; d.Stages.Scan <= 0 || d.Batch == 0 {
		t.Errorf("scanned reject %+v", d)
	}
	if d := byVM[3]; d.Stages.Scan != 0 {
		t.Errorf("normalize reject has a scan span: %+v", d)
	}

	rels := rec.Select(0, obs.Filter{Op: obs.OpRelease}.Match)
	if len(rels) != 2 {
		t.Fatalf("release decisions %+v", rels)
	}
	ok, failed := rels[0], rels[1]
	if ok.VM != 1 || ok.Server == 0 || ok.Reason != "" {
		t.Errorf("successful release %+v", ok)
	}
	if failed.VM != 42 || failed.Reason == "" {
		t.Errorf("failed release %+v", failed)
	}
}

// TestRecorderOffByDefault: without a Config.Recorder nothing panics and
// behaviour is unchanged.
func TestRecorderOffByDefault(t *testing.T) {
	c := mustOpen(t, Config{Servers: testServers(2), IdleTimeout: 2})
	defer c.Close()
	mustAdmit(t, c, api.AdmitRequest{Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 10})
	if _, err := c.Release(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}
