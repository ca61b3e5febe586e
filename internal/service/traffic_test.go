package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// Wire-behavior tests: conditional requests (ETag/304), bounded
// backpressure (429 + Retry-After), disconnect accounting and request
// cost bounds.

// getH is get returning the response headers too.
func getH(t *testing.T, srv *Server, path string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Result().Header
}

func TestStudyETagRevalidatesWithoutComputing(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("campaign-computing ETag check in -short mode")
	}
	// Server A computes the campaign and hands out its ETag.
	a := newTestServer(t, "")
	code, _, hdr := getH(t, a, "/v1/study?scale=quick", nil)
	if code != http.StatusOK {
		t.Fatalf("study = %d", code)
	}
	etag := hdr.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted strong tag", etag)
	}

	// Server B has computed nothing.  Revalidating against it answers
	// 304 from the tag alone — before any campaign work.
	b := newTestServer(t, "")
	code, body, _ := getH(t, b, "/v1/study?scale=quick", map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", code)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}
	if st := b.cache.Stats(); st.Computes != 0 {
		t.Errorf("revalidation computed %d campaigns, want 0", st.Computes)
	}

	// A stale tag still gets the full (recomputed) response.
	code, _, hdr = getH(t, b, "/v1/study?scale=quick", map[string]string{"If-None-Match": `"stale"`})
	if code != http.StatusOK {
		t.Fatalf("stale revalidation = %d, want 200", code)
	}
	if hdr.Get("ETag") != etag {
		t.Errorf("ETag drifted between servers: %q vs %q", hdr.Get("ETag"), etag)
	}
}

func TestArtefactETagIdentity(t *testing.T) {
	t.Parallel()
	// ETags are pure functions of the request identity, so they can be
	// checked without computing anything.
	cfg := core.QuickScale()
	t1 := etagFor(artefactETagNamespace, artefactIdentity{Kind: "table", Name: "1", Config: cfg})
	t2 := etagFor(artefactETagNamespace, artefactIdentity{Kind: "table", Name: "2", Config: cfg})
	f1 := etagFor(artefactETagNamespace, artefactIdentity{Kind: "figure", Name: "1", Config: cfg})
	if t1 == "" || t1 == t2 {
		t.Errorf("table ETags not distinct per name: %q vs %q", t1, t2)
	}
	if t1 == f1 {
		t.Error("table and figure ETags collide for one name")
	}
	st := etagFor(studyETagNamespace, cfg)
	if st == "" || st == t1 {
		t.Errorf("study ETag %q not distinct from artefact ETags", st)
	}

	// Case-insensitive spellings of one artefact share one tag, which
	// the handlers guarantee by lowercasing the name.
	srv := newTestServer(t, "")
	code, _, h1 := getH(t, srv, "/v1/artefacts/figure/bogus", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown figure = %d, want 404", code)
	}
	if h1.Get("ETag") != "" {
		t.Error("404 carried an ETag")
	}
}

func TestBackpressureShedsPastQueueBound(t *testing.T) {
	t.Parallel()
	srv := New(Config{Cache: core.NewStudyCache(), MaxInFlight: 1, MaxQueue: 1})
	// Occupy the only admission slot so every request queues.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	// First request queues (within MaxQueue)...
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		req := httptest.NewRequest("GET", "/v1/study?scale=quick", nil).WithContext(queuedCtx)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// ...the second is past the bound: shed immediately with 429 and a
	// Retry-After hint.
	code, body, hdr := getH(t, srv, "/v1/study?scale=quick", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("request past queue bound = %d (%s), want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}

	// The queued client gives up: booked as canceled, not as an error.
	cancelQueued()
	<-queuedDone
	snap := srv.metricsSnapshot()
	var study EndpointMetrics
	for _, ep := range snap.Endpoints {
		if ep.Endpoint == "study" {
			study = ep
		}
	}
	if study.Shed != 1 {
		t.Errorf("shed = %d, want 1", study.Shed)
	}
	if study.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", study.Canceled)
	}
	if study.Errors != 0 {
		t.Errorf("errors = %d; sheds and disconnects are not server errors", study.Errors)
	}
	if st := srv.cache.Stats(); st.Computes != 0 {
		t.Errorf("shed/canceled requests computed %d campaigns, want 0", st.Computes)
	}
}

func TestDisconnectBeforeComputeIsNotAnError(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the handler runs
	req := httptest.NewRequest("GET", "/v1/study?scale=quick", nil).WithContext(ctx)
	srv.ServeHTTP(httptest.NewRecorder(), req)

	snap := srv.metricsSnapshot()
	for _, ep := range snap.Endpoints {
		if ep.Endpoint == "study" {
			if ep.Canceled != 1 || ep.Errors != 0 {
				t.Errorf("study metrics = %+v, want 1 canceled and 0 errors", ep)
			}
		}
	}
	if st := srv.cache.Stats(); st.Computes != 0 {
		t.Errorf("canceled request computed %d campaigns, want 0", st.Computes)
	}
}

func TestSweepSamplesBound(t *testing.T) {
	t.Parallel()
	srv := New(Config{Cache: core.NewStudyCache(), MaxSweepSamples: 1})
	if code, body := get(t, srv, "/v1/sweep?param=ce&samples=1&seed=23"); code != http.StatusOK {
		t.Errorf("samples at the bound = %d (%s), want 200", code, body)
	}
	code, body := get(t, srv, "/v1/sweep?param=ce&samples=2&seed=23")
	if code != http.StatusBadRequest {
		t.Errorf("samples past the bound = %d, want 400", code)
	}
	if !strings.Contains(string(body), "bound") {
		t.Errorf("bound rejection = %s, want the bound named", body)
	}
}
