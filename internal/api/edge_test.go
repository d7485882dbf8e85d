package api

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// answerTransport answers every request with one canned response whose
// body is r, so a test can see how much of the body Call read.
type answerTransport struct {
	status   int
	declared int64
	r        *strings.Reader
}

func (t answerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: t.status, Header: http.Header{"X-Answer": {"yes"}},
		Body: io.NopCloser(t.r), ContentLength: t.declared, Request: req,
	}, nil
}

// TestCall: a 2xx answer is its header and body; any other status is the
// *Error DecodeError makes of it, envelope or plain text; an answer over
// the limit is ErrBodyTooLarge, refused on its declared length before a
// byte is read; a transport failure comes back as it is.
func TestCall(t *testing.T) {
	for _, row := range []struct {
		name     string
		status   int
		body     string
		declared int64
		want     string // the body, or the *Error's message
		code     string // the *Error's code; "" with status 2xx
		tooLarge bool
		reads    int // bytes taken from the body
	}{
		{name: "ok", status: 200, body: "ok\n", declared: 3, want: "ok\n", reads: 3},
		{name: "envelope", status: 404, body: `{"code":"not_resident","error":"vm 9 is not resident"}`, declared: -1,
			want: "vm 9 is not resident", code: CodeNotResident, reads: 54},
		{name: "plain text", status: 502, body: "  bad gateway\n", declared: 14, want: "bad gateway", reads: 14},
		{name: "declared over limit", status: 200, body: strings.Repeat("x", 100), declared: 100, tooLarge: true},
		{name: "chunked over limit", status: 200, body: strings.Repeat("x", 100), declared: -1, tooLarge: true, reads: 65},
	} {
		t.Run(row.name, func(t *testing.T) {
			tr := answerTransport{status: row.status, declared: row.declared, r: strings.NewReader(row.body)}
			req, _ := http.NewRequest(http.MethodGet, "http://shard/healthz", nil)
			hdr, data, err := Call(&http.Client{Transport: tr}, req, 64)
			var ae *Error
			switch {
			case row.tooLarge:
				if !errors.Is(err, ErrBodyTooLarge) {
					t.Fatalf("err %v, want ErrBodyTooLarge", err)
				}
			case row.status/100 == 2:
				if err != nil || string(data) != row.want || hdr.Get("X-Answer") != "yes" {
					t.Fatalf("got %q %v %v, want %q and its header", data, hdr, err, row.want)
				}
			case !errors.As(err, &ae) || ae.Status != row.status || ae.Envelope.Code != row.code || ae.Envelope.Message != row.want:
				t.Fatalf("err %#v, want *Error %d %q %q", err, row.status, row.code, row.want)
			case hdr != nil || data != nil:
				t.Fatalf("a refusal returned %v %q", hdr, data)
			}
			if got := len(row.body) - tr.r.Len(); got != row.reads {
				t.Errorf("read %d bytes, want %d", got, row.reads)
			}
		})
	}

	t.Run("closed server", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		srv.Close()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
		_, _, err := Call(srv.Client(), req, MaxBodyBytes)
		var ae *Error
		if err == nil || errors.As(err, &ae) || errors.Is(err, ErrBodyTooLarge) {
			t.Fatalf("err %v, want a transport failure", err)
		}
	})
}
