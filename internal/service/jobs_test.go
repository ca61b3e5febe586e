package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/remote"
)

func cheapJobSpec(n int) coord.JobSpec {
	units := make([]core.StudyUnit, n)
	for i := range units {
		spec := core.SessionSpec{
			Samples:  1,
			Sampling: monitor.SampleSpec{Snapshots: 1, GapCycles: 2_000},
			Seed:     300 + uint64(i),
		}
		units[i] = core.StudyUnit{ID: i + 1, Random: &spec}
	}
	return coord.JobSpec{Kind: "sessions", Units: units}
}

func postJSON(t *testing.T, srv *Server, path string, body any) (int, http.Header, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, strings.NewReader(string(payload)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

func awaitJobDone(t *testing.T, srv *Server, id string) coord.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := get(t, srv, coord.JobsPath+"/"+id)
		if code != http.StatusOK {
			t.Fatalf("job status = %d: %s", code, body)
		}
		var st coord.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if coord.TerminalState(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return coord.JobStatus{}
}

func TestJobSubmitPollResult(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	spec := cheapJobSpec(3)

	code, hdr, body := postJSON(t, srv, coord.JobsPath, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st coord.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if want := coord.JobsPath + "/" + st.ID; hdr.Get("Location") != want {
		t.Errorf("Location = %q, want %q", hdr.Get("Location"), want)
	}
	if st.Total != 3 || st.Kind != "sessions" {
		t.Errorf("submitted status = %+v", st)
	}

	// Idempotent resubmission addresses the same job with 200.
	code, _, body = postJSON(t, srv, coord.JobsPath, spec)
	if code != http.StatusOK {
		t.Errorf("resubmit = %d: %s", code, body)
	}
	var again coord.JobStatus
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID {
		t.Errorf("resubmit ID = %s, want %s", again.ID, st.ID)
	}

	final := awaitJobDone(t, srv, st.ID)
	if final.State != coord.StateDone || final.Done != 3 {
		t.Fatalf("final status = %+v", final)
	}

	code, body = get(t, srv, coord.JobsPath+"/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, body)
	}
	var res coord.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 3 {
		t.Errorf("result sessions = %d, want 3", len(res.Sessions))
	}

	code, body = get(t, srv, coord.JobsPath)
	if code != http.StatusOK {
		t.Fatalf("list = %d: %s", code, body)
	}
	var list JobListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == st.ID
	}
	if !found {
		t.Errorf("job %s missing from list %+v", st.ID, list.Jobs)
	}
}

func TestJobEventsStream(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	quick := core.QuickScale()
	for _, tc := range []struct {
		name     string
		spec     coord.JobSpec
		total    int
		finished bool // open the stream only after the job is done
	}{
		{"finished sessions job", cheapJobSpec(2), 2, true},
		// A campaign watched while it runs: POST it as a job, then
		// stream its events.
		{"running study job", coord.JobSpec{Kind: "study", Study: &quick}, quick.TotalSessions(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, body := postJSON(t, srv, coord.JobsPath, tc.spec)
			var st coord.JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if tc.finished {
				awaitJobDone(t, srv, st.ID)
			}
			code, body := get(t, srv, coord.JobsPath+"/"+st.ID+"/events")
			if code != http.StatusOK {
				t.Fatalf("events = %d: %s", code, body)
			}
			var events []coord.JobStatus
			for _, ln := range strings.Split(string(body), "\n") {
				data, ok := strings.CutPrefix(ln, "data: ")
				if !ok {
					continue
				}
				var ev coord.JobStatus
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("decoding event %q: %v", data, err)
				}
				events = append(events, ev)
			}
			if len(events) == 0 {
				t.Fatalf("no SSE data lines in %q", body)
			}
			for i := 1; i < len(events); i++ {
				if events[i].Done < events[i-1].Done {
					t.Errorf("progress went backwards: %d after %d", events[i].Done, events[i-1].Done)
				}
			}
			if last := events[len(events)-1]; last.State != coord.StateDone || last.Done != tc.total || last.Total != tc.total {
				t.Errorf("final event = %+v, want done %d/%d", last, tc.total, tc.total)
			}
		})
	}

	code, body := get(t, srv, coord.JobsPath+"/nope/events")
	if code != http.StatusNotFound {
		t.Errorf("events for unknown job = %d: %s", code, body)
	}
}

func TestJobErrorEnvelope(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")

	// Unknown job: not_found, with the request ID echoed into the
	// envelope when the caller supplies one.
	req := httptest.NewRequest("GET", coord.JobsPath+"/deadbeef", nil)
	req.Header.Set("X-Request-Id", "trace-me-1")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d: %s", rec.Code, rec.Body)
	}
	var env remote.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != remote.CodeNotFound || env.RequestID != "trace-me-1" {
		t.Errorf("envelope = %+v", env)
	}

	// Invalid spec: invalid_config.
	code, _, body := postJSON(t, srv, coord.JobsPath, coord.JobSpec{Kind: "nope"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != remote.CodeInvalidConfig {
		t.Errorf("bad-spec envelope = %+v", env)
	}

	// Cancelling a finished job: conflict.
	_, _, body = postJSON(t, srv, coord.JobsPath, cheapJobSpec(1))
	var st coord.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	awaitJobDone(t, srv, st.ID)
	req = httptest.NewRequest("DELETE", coord.JobsPath+"/"+st.ID, nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("cancel done job = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != remote.CodeConflict {
		t.Errorf("cancel envelope = %+v", env)
	}

	// Unknown artefact kind rides the same envelope.
	code, body = get(t, srv, "/v1/artefacts/poem/1?scale=quick")
	if code != http.StatusNotFound {
		t.Fatalf("unknown kind = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != remote.CodeNotFound {
		t.Errorf("unknown-kind envelope = %+v", env)
	}
}

func TestBackendRegisterAndList(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")

	code, _, body := postJSON(t, srv, coord.BackendsRegisterPath, coord.RegisterRequest{Addr: "10.0.0.7:8080", TTLSeconds: 60})
	if code != http.StatusOK {
		t.Fatalf("register = %d: %s", code, body)
	}
	var m coord.Member
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Addr != "10.0.0.7:8080" || !m.Expires.After(time.Now()) {
		t.Errorf("registration = %+v", m)
	}

	code, body = get(t, srv, coord.BackendsPath)
	if code != http.StatusOK {
		t.Fatalf("backends = %d: %s", code, body)
	}
	var list BackendListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Backends) != 1 || list.Backends[0].Addr != "10.0.0.7:8080" {
		t.Errorf("backend list = %+v", list)
	}
	if got := srv.Coordinator().Registry().Snapshot(); len(got) != 1 {
		t.Errorf("registry snapshot = %v", got)
	}

	// Registration without an address is rejected.
	code, _, body = postJSON(t, srv, coord.BackendsRegisterPath, coord.RegisterRequest{})
	if code != http.StatusBadRequest {
		t.Errorf("empty register = %d: %s", code, body)
	}
}
