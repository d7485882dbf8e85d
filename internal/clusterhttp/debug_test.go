package clusterhttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/promlint"
)

// tracedCluster builds a cluster + handler with the span store and
// energy recorder wired into both layers, the way cmd/vmserve does.
func tracedCluster(t *testing.T) (*httptest.Server, *obs.SpanStore, *obs.EnergyRecorder) {
	t.Helper()
	servers := make([]model.Server, 4)
	for i := range servers {
		servers[i] = model.Server{
			ID:             i + 1,
			Capacity:       model.Resources{CPU: 10, Mem: 16},
			PIdle:          100,
			PPeak:          200,
			TransitionTime: 1,
		}
	}
	spans := obs.NewSpanStore(512)
	energy := obs.NewEnergyRecorder(128)
	c, err := cluster.Open(cluster.Config{
		Servers:     servers,
		IdleTimeout: 2,
		Spans:       spans,
		Energy:      energy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(New(c, nil))
	t.Cleanup(srv.Close)
	return srv, spans, energy
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestDebugTraces: an admission arriving with a traceparent leaves a
// stitched trace readable over GET /v1/debug/traces — edge route span
// parented on the caller, stage spans parented on the route — and the
// filter query works end to end.
func TestDebugTraces(t *testing.T) {
	srv, _, _ := tracedCluster(t)

	caller := obs.NewTraceContext()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/vms",
		strings.NewReader(`{"id":7,"demand":{"cpu":1,"mem":1},"durationMinutes":30}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceParentHeader, caller.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit status %d", resp.StatusCode)
	}
	echo, ok := obs.ParseTraceParent(resp.Header.Get(obs.TraceParentHeader))
	if !ok || echo.TraceID != caller.TraceID {
		t.Fatalf("response traceparent %+v, want trace %s", echo, caller.TraceID)
	}

	var tr api.TracesResponse
	if resp := getJSON(t, srv.URL+"/v1/debug/traces?trace="+caller.TraceID, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status %d", resp.StatusCode)
	}
	if tr.Count != 1 || len(tr.Traces) != 1 || tr.Spans != len(tr.Traces[0].Spans) {
		t.Fatalf("traces response %+v", tr)
	}
	trace := tr.Traces[0]
	if trace.TraceID != caller.TraceID {
		t.Fatalf("trace id %s", trace.TraceID)
	}
	byName := map[string]obs.Span{}
	for _, sp := range trace.Spans {
		byName[sp.Name] = sp
	}
	route, ok := byName[obs.SpanRoute]
	if !ok || route.Parent != caller.SpanID || route.SpanID != echo.SpanID {
		t.Fatalf("route span %+v (caller %+v, echo %+v)", route, caller, echo)
	}
	for _, name := range []string{obs.SpanDecode, obs.SpanQueue, obs.SpanScan, obs.SpanCommit} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("trace missing %s span: %+v", name, trace.Spans)
		}
		if sp.Parent != route.SpanID {
			t.Fatalf("%s span parent %q, want route span %q", name, sp.Parent, route.SpanID)
		}
	}
	if byName[obs.SpanCommit].VM != 7 || byName[obs.SpanCommit].Op != obs.OpAdmit {
		t.Fatalf("commit span %+v", byName[obs.SpanCommit])
	}
	// The first span is the earliest-starting one: the route span wraps
	// everything but decode (measured before the handler's span began).
	if first := trace.Spans[0].Name; first != obs.SpanDecode && first != obs.SpanRoute {
		t.Fatalf("trace starts with %q", first)
	}

	// Name filter narrows to one span; an impossible min empties it.
	var commits api.TracesResponse
	getJSON(t, srv.URL+"/v1/debug/traces?name=commit", &commits)
	if commits.Spans != 1 || commits.Traces[0].Spans[0].Name != obs.SpanCommit {
		t.Fatalf("name filter %+v", commits)
	}
	var none api.TracesResponse
	getJSON(t, srv.URL+"/v1/debug/traces?min=10h", &none)
	if none.Count != 0 || none.Traces == nil {
		t.Fatalf("min filter returned %+v (want empty, non-nil array)", none)
	}
}

// TestDebugEnergy: clock advances and admissions feed the sampled
// series; the endpoint serves it with since/limit paging (bad queries:
// shard.TestEdgeParity).
func TestDebugEnergy(t *testing.T) {
	srv, _, _ := tracedCluster(t)

	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s status %d", path, resp.StatusCode)
		}
	}
	post("/v1/vms", `{"id":1,"demand":{"cpu":1,"mem":1},"durationMinutes":120}`)
	for _, minute := range []int{15, 40, 70} {
		post("/v1/clock", fmt.Sprintf(`{"now":%d}`, minute))
	}

	var er api.EnergyResponse
	if resp := getJSON(t, srv.URL+"/v1/debug/energy", &er); resp.StatusCode != http.StatusOK {
		t.Fatalf("energy status %d", resp.StatusCode)
	}
	if er.Count != len(er.Samples) || er.Count < 3 {
		t.Fatalf("energy response %+v", er)
	}
	last := er.Samples[len(er.Samples)-1]
	if er.Now != 70 || last.Clock != 70 || er.TotalWattMinutes != last.TotalWattMinutes {
		t.Fatalf("energy header (now=%d total=%g) vs last sample %+v", er.Now, er.TotalWattMinutes, last)
	}
	for i := 1; i < len(er.Samples); i++ {
		if er.Samples[i].Clock <= er.Samples[i-1].Clock {
			t.Fatalf("non-monotone series %+v", er.Samples)
		}
	}

	// The state endpoint's energy and the newest sample agree exactly.
	var st api.StateResponse
	getJSON(t, srv.URL+"/v1/state", &st)
	if st.TotalEnergy != er.TotalWattMinutes {
		t.Fatalf("state energy %g, sampled %g", st.TotalEnergy, er.TotalWattMinutes)
	}

	var page api.EnergyResponse
	getJSON(t, srv.URL+"/v1/debug/energy?since=15&limit=1", &page)
	if page.Count != 1 || page.Samples[0].Clock != 70 {
		t.Fatalf("paged response %+v", page)
	}
}

// TestDebugEnergyUntorn interleaves clock advances with reads of
// GET /v1/debug/energy. Each read must report as now and total the newest
// sample of the list it serves: a tick landing between reading the list
// and reading the newest sample would report a minute no listed sample has.
func TestDebugEnergyUntorn(t *testing.T) {
	energy := obs.NewEnergyRecorder(8)
	c, err := cluster.Open(cluster.Config{
		Servers:     []model.Server{{ID: 1, Capacity: model.Resources{CPU: 10, Mem: 16}, PIdle: 100, PPeak: 200, TransitionTime: 1}},
		IdleTimeout: 2,
		Energy:      energy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := New(c, nil)
	const ticks = 20000
	done := make(chan error, 1)
	go func() {
		for k := 1; k <= ticks; k++ {
			if err := c.AdvanceTo(k); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for running, reads := true, 0; running; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/energy", nil))
		var er api.EnergyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if len(er.Samples) == 0 {
			continue // no tick yet
		}
		if last := er.Samples[len(er.Samples)-1]; er.Now != last.Clock || er.TotalWattMinutes != last.TotalWattMinutes {
			t.Fatalf("read %d: now %d, total %g beside a newest listed sample at minute %d, total %g",
				reads, er.Now, er.TotalWattMinutes, last.Clock, last.TotalWattMinutes)
		}
	}
}

// TestMetricsLintWithTelemetry: the exposition with the span store and
// energy recorder wired stays lint-clean and carries the new
// vmalloc_trace_* / vmalloc_energy_* families.
func TestMetricsLintWithTelemetry(t *testing.T) {
	srv, _, _ := tracedCluster(t)
	resp, err := http.Post(srv.URL+"/v1/vms", "application/json",
		strings.NewReader(`{"id":1,"demand":{"cpu":1,"mem":1},"durationMinutes":30}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(srv.URL+"/v1/clock", "application/json", strings.NewReader(`{"now":10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	promlint.Lint(t, string(data))
	out := string(data)
	for _, want := range []string{
		"vmalloc_trace_spans_total ",
		"vmalloc_trace_spans_buffered ",
		"vmalloc_trace_span_capacity 512",
		"vmalloc_energy_samples_total ",
		"vmalloc_energy_clock_minutes 10",
		`vmalloc_energy_class_utilization{class="default"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
