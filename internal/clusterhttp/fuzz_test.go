package clusterhttp

import (
	"strings"
	"testing"

	"vmalloc/internal/api"
)

// FuzzHTTPDecode hammers api.DecodeAdmitRequests — the admission
// endpoint's body parser, shared verbatim with the vmgate router — with
// arbitrary bytes. The invariants: it never panics, a nil error always
// comes with at least one request (the cluster validates the rest), and
// a successful decode is idempotent. The size cap is not the parser's
// job: api.ReadBody enforces it before any parse (api.TestReadLimited).
func FuzzHTTPDecode(f *testing.F) {
	f.Add(`{"demand":{"cpu":1,"mem":1},"durationMinutes":30}`)
	f.Add(`[{"id":1,"demand":{"cpu":1,"mem":1},"durationMinutes":30}]`)
	f.Add(`[{"id":1,"durationMinutes":5},{"id":1,"durationMinutes":5}]`) // duplicate ids
	f.Add(`[]`)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`  [ {"durationMinutes": 1} ] `)
	f.Add(strings.Repeat(`[`, 10000))                                         // deep nesting
	f.Add(`{"type":"` + strings.Repeat("x", 4096) + `","durationMinutes":1}`) // long field
	f.Add(`[{"durationMinutes":9e999}]`)                                      // float overflow
	f.Add("\xff\xfe\x00")                                                     // not UTF-8

	f.Fuzz(func(t *testing.T, body string) {
		reqs, err := api.DecodeAdmitRequests([]byte(body))
		if err != nil {
			return
		}
		if len(reqs) == 0 {
			t.Fatal("nil error but zero requests")
		}
		// A successful decode must be deterministic: same bytes, same
		// result shape.
		again, err2 := api.DecodeAdmitRequests([]byte(body))
		if err2 != nil || len(again) != len(reqs) {
			t.Fatalf("re-decode diverged: %v, %d vs %d requests", err2, len(again), len(reqs))
		}
	})
}
