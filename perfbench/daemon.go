package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

// daemon is one fx8d served on a loopback port inside this process.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startDaemon(cfg service.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	srv := service.New(cfg)
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// stop shuts the listener down, waits briefly for in-flight requests,
// closes whatever connections remain — a client may hold a dialed
// connection it never used, which Shutdown would wait seconds for —
// and waits for the serve loop before closing the server's own
// coordinator.  Every request the benchmark makes has completed by
// the time it stops a daemon.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
	d.srv.Close()
}

// scrape reads a daemon's /v1/metrics JSON document.
func scrape(ctx context.Context, c *http.Client, base string) (service.MetricsResponse, error) {
	var m service.MetricsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return m, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("scraping %s: %w", base, err)
	}
	return m, nil
}

// endpointTotal returns an endpoint's handled and shed request counts
// and its summed handler time in milliseconds from a scrape.
func endpointTotal(m service.MetricsResponse, endpoint string) (n, shed uint64, ms float64) {
	for _, e := range m.Endpoints {
		if e.Endpoint == endpoint {
			return e.Requests, e.Shed, e.AvgMs * float64(e.Requests)
		}
	}
	return 0, 0, 0
}

// exchange is one HTTP request as a timingTransport saw it: from the
// request leaving to the response body being closed.
type exchange struct {
	host       string
	start, end time.Time
	bytes      int64 // request plus response body bytes
}

// timingTransport wraps an http.RoundTripper and records every
// exchange, plus a span per exchange when a tracer is attached.
type timingTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent span
	name   string

	mu   sync.Mutex
	seen []exchange
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	sp := t.tr.start(t.name, t.parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(sp)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.end(sp)
		t.mu.Lock()
		t.seen = append(t.seen, exchange{host: req.URL.Host, start: t0, end: time.Now(), bytes: max(req.ContentLength, 0) + n})
		t.mu.Unlock()
	}}
	return resp, nil
}

func (t *timingTransport) exchanges() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]exchange(nil), t.seen...)
}

// countingBody counts the bytes read from a response body and reports
// them once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
