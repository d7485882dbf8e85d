package api

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/admit_response.golden from this build's WriteJSON")

// goldenBatch is a mixed admission answer: accepted, rejected with a
// plain reason, rejected with a reason encoding/json escapes (<, ", a
// non-ASCII rune), and an accepted VM on server 0 at minute 0, whose
// zero fields omitempty drops.
var goldenBatch = []AdmitResponse{
	{ID: 1, Accepted: true, Server: 12, Start: 3, End: 42},
	{ID: 2, Reason: "no server has capacity for vm 2"},
	{ID: 3, Reason: `demand <cpu "9"> exceeds every server — refused`},
	{ID: 4, Accepted: true, End: 7},
}

// TestAdmitResponseGolden pins the bytes POST /v1/vms answers with. The
// golden was written by encoding/json alone (the commit before the plain
// codec), so it holds whatever WriteJSON does inside to that encoding.
func TestAdmitResponseGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, goldenBatch)
	got := rec.Body.Bytes()
	const path = "testdata/admit_response.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("served bytes moved:\n got: %q\nwant: %q", got, want)
	}
}
