package loadgen

import (
	"net/http"
	"net/http/httptest"
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
	rec := httptest.NewRecorder()
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
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
