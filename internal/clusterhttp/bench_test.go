package clusterhttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/obs"
	"vmalloc/internal/workload"
)

// BenchmarkAdmitHTTP is one serve-batch fleet minute over loopback, the
// client included: a clock tick, then one POST /v1/vms of 49 Table I VMs
// against 512 Table II servers, with the span store and the flight
// recorder wired as vmserve wires them. VMs run 20 minutes, so the fleet
// settles at ≈1,000 residents and turns nearly nothing away.
func BenchmarkAdmitHTTP(b *testing.B) {
	const vms = 49
	inst, err := workload.Generate(
		workload.Spec{NumVMs: vms * 64, MeanInterArrival: 1, MeanLength: 30},
		workload.FleetSpec{NumServers: 512, TransitionTime: 2},
		1,
	)
	if err != nil {
		b.Fatal(err)
	}
	rec, spans := obs.NewFlightRecorder(obs.DefaultRecorderSize), obs.NewSpanStore(obs.DefaultSpanStoreSize)
	c, err := cluster.Open(cluster.Config{Servers: inst.Servers, IdleTimeout: 2, Recorder: rec, Spans: spans})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(New(c, Config{Recorder: rec, Spans: spans}))
	defer srv.Close()
	post := func(path string, body []byte) []byte {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST %s: %d %v %s", path, resp.StatusCode, err, out)
		}
		return out
	}
	reqs := make([]api.AdmitRequest, vms)
	accepted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		post("/v1/clock", []byte(fmt.Sprintf(`{"now":%d}`, n+1)))
		for i := range reqs {
			v := inst.VMs[(n*vms+i)%len(inst.VMs)]
			reqs[i] = api.AdmitRequest{ID: 1 + n*vms + i, Type: v.Type, Demand: v.Demand, Start: n + 1, DurationMinutes: 20}
		}
		body, err := json.Marshal(reqs)
		if err != nil {
			b.Fatal(err)
		}
		var adms []api.AdmitResponse
		if err := json.Unmarshal(post("/v1/vms", body), &adms); err != nil || len(adms) != vms {
			b.Fatalf("admit answer: %v, %d entries", err, len(adms))
		}
		for _, a := range adms {
			if a.Accepted {
				accepted++
			}
		}
	}
	b.ReportMetric(float64(accepted)/float64(b.N), "accepted/op")
}
