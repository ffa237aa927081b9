package main

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// countingTransport is the client-side view of the HTTP layer: it
// counts round trips and response-body bytes and times each round trip
// (request sent to response headers received). With a tracing tracer
// every round trip also becomes a span under the current parent.
type countingTransport struct {
	next http.RoundTripper
	tr   *tracer

	mu    sync.Mutex
	n     int64
	bytes int64
	rtts  []time.Duration
}

func newCountingTransport(tr *tracer) *countingTransport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 8
	return &countingTransport{next: base, tr: tr}
}

// RoundTrip implements http.RoundTripper.
func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := c.next.RoundTrip(req)
	end := time.Now()
	c.tr.leaf("netgraph.roundtrip", start, end)
	c.mu.Lock()
	c.n++
	c.rtts = append(c.rtts, end.Sub(start))
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: c}
	return resp, nil
}

// counts returns the round trips and response bytes so far.
func (c *countingTransport) counts() (n, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, c.bytes
}

// roundTripTimes returns a copy of every round-trip time so far.
func (c *countingTransport) roundTripTimes() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.rtts...)
}

// closeIdle drops pooled connections (a fresh crawl client starts
// with none, as a fresh fsample process would).
func (c *countingTransport) closeIdle() {
	c.next.(*http.Transport).CloseIdleConnections()
}

type countingBody struct {
	io.ReadCloser
	t *countingTransport
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.t.mu.Lock()
		b.t.bytes += int64(n)
		b.t.mu.Unlock()
	}
	return n, err
}
