package obs

import (
	"cmp"
	"io"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// DefaultLatencyBuckets are the per-route latency histogram bounds, in
// seconds: 100µs to 5s, the span between an in-memory cache hit and a
// request stuck behind a slow journal fsync.
var DefaultLatencyBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5}

// HTTPMetrics collects per-route/status request counts and per-route
// latency histograms, written to /metrics alongside the cluster's own
// series. Safe for concurrent use.
type HTTPMetrics struct {
	mu       sync.Mutex
	requests map[routeStatus]uint64
	latency  map[string]*Histogram
}

type routeStatus struct {
	route  string
	status int
}

// NewHTTPMetrics returns an empty collector.
func NewHTTPMetrics() *HTTPMetrics {
	return &HTTPMetrics{
		requests: make(map[routeStatus]uint64),
		latency:  make(map[string]*Histogram),
	}
}

// Observe records one served request: its route pattern (e.g.
// "POST /v1/vms"), response status, and wall duration.
func (m *HTTPMetrics) Observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	m.requests[routeStatus{route, status}]++
	h := m.latency[route]
	if h == nil {
		h = NewHistogram(DefaultLatencyBuckets...)
		m.latency[route] = h
	}
	h.Observe(d.Seconds())
	m.mu.Unlock()
}

// Write emits the collected series in Prometheus text exposition
// format, deterministically ordered, as the families
// <prefix>_requests_total and <prefix>_request_seconds. vmserve's prefix
// is vmalloc_http; the vmgate router exports its own edge metrics under
// vmalloc_gate_http so they never collide with the vmalloc_http_*
// families it merges in from the shards.
func (m *HTTPMetrics) Write(w io.Writer, prefix string) {
	requestsName, latencyName := prefix+"_requests_total", prefix+"_request_seconds"
	m.mu.Lock()
	defer m.mu.Unlock()

	Declare(w, requestsName, "HTTP requests served, by route pattern and status.", "counter")
	keys := slices.SortedFunc(maps.Keys(m.requests), func(a, b routeStatus) int {
		return cmp.Or(cmp.Compare(a.route, b.route), cmp.Compare(a.status, b.status))
	})
	for _, k := range keys {
		Sample(w, requestsName, m.requests[k], "route", k.route, "status", strconv.Itoa(k.status))
	}

	Declare(w, latencyName, "HTTP request latency by route pattern, in seconds.", "histogram")
	for _, r := range slices.Sorted(maps.Keys(m.latency)) {
		m.latency[r].WriteSeries(w, latencyName, "route", r)
	}
}

// WriteRuntimeMetrics emits process-level series — goroutines, heap, GC
// — so a scrape of the allocation daemon also says how the Go runtime
// underneath it is doing.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	Gauge(w, "vmalloc_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	Gauge(w, "vmalloc_go_heap_alloc_bytes", "Heap bytes allocated and in use.", float64(ms.HeapAlloc))
	Gauge(w, "vmalloc_go_heap_sys_bytes", "Heap bytes obtained from the OS.", float64(ms.HeapSys))
	Counter(w, "vmalloc_go_gc_runs_total", "Completed GC cycles.", float64(ms.NumGC))
	Counter(w, "vmalloc_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time, in seconds.", float64(ms.PauseTotalNs)/1e9)
	var last float64
	if ms.NumGC > 0 {
		last = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	Gauge(w, "vmalloc_go_gc_last_pause_seconds", "Most recent GC stop-the-world pause, in seconds.", last)
}
