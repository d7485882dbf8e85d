package loadgen

import (
	"bytes"
	"io"
	"net/http"
)

// NewHandlerClient returns a Client whose requests are served by h in
// this process instead of crossing a socket. vmload uses it to put a
// shard.Gate in front of several -addr targets without the extra network
// hop a vmgate daemon would add.
func NewHandlerClient(h http.Handler) *Client {
	c := NewClient("http://in-process")
	c.HTTP = &http.Client{Transport: handlerTransport{h}}
	return c
}

// handlerTransport is an http.RoundTripper that answers by calling a
// handler. Like the network transport it gives up when the request's
// context ends, even if the handler has not returned.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &responseBuffer{header: make(http.Header), status: http.StatusOK}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t.h.ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	return &http.Response{
		StatusCode:    rec.status,
		Status:        http.StatusText(rec.status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(&rec.body),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// responseBuffer is the http.ResponseWriter the handler writes into.
type responseBuffer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *responseBuffer) Header() http.Header         { return r.header }
func (r *responseBuffer) WriteHeader(status int)      { r.status = status }
func (r *responseBuffer) Write(b []byte) (int, error) { return r.body.Write(b) }
