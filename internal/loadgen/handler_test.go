package loadgen

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/obs"
)

// TestHandlerClientRoundTrip: a handler-backed client sees what a
// network client would — the handler's status, headers and body — and
// the handler sees the client's request id, traceparent and body.
func TestHandlerClientRoundTrip(t *testing.T) {
	var gotID, gotTrace, gotBody string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/state":
			w.Header().Set(api.StateDigestHeader, "feedface")
			io.WriteString(w, `{"now": 7, "vms": [{}, {}]}`) //nolint:errcheck
		case "/v1/clock":
			gotID = r.Header.Get(obs.RequestIDHeader)
			gotTrace = r.Header.Get(obs.TraceParentHeader)
			b, _ := io.ReadAll(r.Body)
			gotBody = string(b)
			w.WriteHeader(http.StatusConflict)
			io.WriteString(w, `{"code": "stale_epoch", "message": "fenced"}`) //nolint:errcheck
		}
	})
	c := NewHandlerClient(h)
	ctx := context.Background()

	sum, err := c.StateSummary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != "feedface" || sum.Now != 7 || sum.Residents != 2 {
		t.Fatalf("summary %+v, want the handler's digest header and body", sum)
	}

	_, err = c.AdvanceClock(ctx, 9)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict || ae.Envelope.Code != api.CodeStaleEpoch {
		t.Fatalf("clock error %v, want the handler's 409 stale_epoch envelope", err)
	}
	if !obs.ValidRequestID(gotID) {
		t.Fatalf("handler saw request id %q, want one the client minted", gotID)
	}
	if _, ok := obs.ParseTraceParent(gotTrace); !ok {
		t.Fatalf("handler saw traceparent %q, want a valid one", gotTrace)
	}
	if !strings.Contains(gotBody, `"now":9`) {
		t.Fatalf("handler read body %q", gotBody)
	}
}

// TestHandlerClientContextCancel: a handler that never answers does not
// hang the caller past its context.
func TestHandlerClientContextCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	c := NewHandlerClient(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.StateSummary(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still waiting on a stuck handler 5s after its context ended")
	}
}

// TestMetricsFoldShards: a gate's merged exposition answers the
// unlabelled series names with the sum across shards, other labels
// kept, labelled series kept, shard-free series untouched.
func TestMetricsFoldShards(t *testing.T) {
	m, err := ParseMetrics([]byte(`# TYPE vmalloc_cluster_admissions_total counter
vmalloc_cluster_admissions_total{shard="a"} 3
vmalloc_cluster_admissions_total{shard="b"} 5
vmalloc_cluster_fsync_seconds_bucket{shard="a",le="0.1"} 2
vmalloc_cluster_fsync_seconds_bucket{shard="b",le="0.1"} 4
vmalloc_gate_http_requests_total{route="GET /v1/state",status="200"} 9
vmalloc_go_goroutines 11
`))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		`vmalloc_cluster_admissions_total`:                                     8,
		`vmalloc_cluster_admissions_total{shard="a"}`:                          3,
		`vmalloc_cluster_fsync_seconds_bucket{le="0.1"}`:                       6,
		`vmalloc_gate_http_requests_total{route="GET /v1/state",status="200"}`: 9,
		`vmalloc_go_goroutines`:                                                11,
	} {
		if got, ok := m[k]; !ok || got != want {
			t.Errorf("%s = %g (present %t), want %g", k, got, ok, want)
		}
	}
	if len(m) != 8 {
		t.Errorf("%d series after the fold, want 8: %v", len(m), m)
	}
}
