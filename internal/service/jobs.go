package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/coord"
	"repro/internal/remote"
)

// The /v1/jobs handlers: the HTTP face of internal/coord's
// job-resource API.  The coordinator owns the job state machine and
// its persistence; this file only translates between HTTP and
// coordinator calls — including coordinator errors to envelope codes
// (ErrNotFound -> not_found 404, ErrTerminal/ErrNotDone -> conflict
// 409).
//
// Jobs are cheap to submit — the campaign itself runs on coordinator
// goroutines, admitted per unit through the same /v1/run endpoints as
// any sharded client — so the jobs endpoints bypass the expensive
// admission gate: shedding a status poll would only make an anxious
// client poll harder.

// maxJobBody bounds a POST /v1/jobs body; job specs are configuration
// records plus at most a few thousand small unit specs.
const maxJobBody = 8 << 20

// coordErr translates a coordinator error into an httpError carrying
// the right status and envelope code.
func coordErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, coord.ErrNotFound):
		return notFound("%v", err)
	case errors.Is(err, coord.ErrTerminal), errors.Is(err, coord.ErrNotDone):
		return conflict("%v", err)
	default:
		return err
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) error {
	var spec coord.JobSpec
	body := http.MaxBytesReader(w, r.Body, maxJobBody)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		return badRequest("decoding job spec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		return badRequest("%v", err)
	}
	st, created, err := s.coord.Submit(spec)
	if err != nil {
		return coordErr(err)
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	w.Header().Set("Location", coord.JobsPath+"/"+st.ID)
	return writeJSON(w, status, st)
}

// JobListResponse is the GET /v1/jobs body.
type JobListResponse struct {
	Jobs []coord.JobStatus `json:"jobs"`
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) error {
	jobs := s.coord.List()
	if jobs == nil {
		jobs = []coord.JobStatus{}
	}
	return writeJSON(w, http.StatusOK, JobListResponse{Jobs: jobs})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) error {
	st, err := s.coord.Status(r.PathValue("id"))
	if err != nil {
		return coordErr(err)
	}
	return writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	res, err := s.coord.Result(r.PathValue("id"))
	if err != nil {
		return coordErr(err)
	}
	return writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) error {
	st, err := s.coord.Cancel(r.PathValue("id"))
	if err != nil {
		return coordErr(err)
	}
	return writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleBackendRegister(w http.ResponseWriter, r *http.Request) error {
	var req coord.RegisterRequest
	if err := decodeUnit(w, r, &req); err != nil {
		return err
	}
	if req.Addr == "" {
		return badRequest("backend registration without an addr")
	}
	deadline := s.coord.Registry().Register(req.Addr, time.Duration(req.TTLSeconds)*time.Second)
	return writeJSON(w, http.StatusOK, coord.Member{Addr: req.Addr, Expires: deadline})
}

// BackendListResponse is the GET /v1/backends body.
type BackendListResponse struct {
	Backends []coord.Member `json:"backends"`
}

func (s *Server) handleBackendList(w http.ResponseWriter, r *http.Request) error {
	members := s.coord.Registry().Entries()
	if members == nil {
		members = []coord.Member{}
	}
	return writeJSON(w, http.StatusOK, BackendListResponse{Backends: members})
}

// jobEventsPollInterval is how often the job SSE stream samples the
// coordinator.
const jobEventsPollInterval = 50 * time.Millisecond

// handleJobEvents streams one job's lifecycle as server-sent events:
// an event whenever the status changes (state transition or progress
// tick), ending after the job reaches a terminal state or the client
// disconnects.  It streams, so it is registered outside the
// admission gate and instruments itself.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st, err := s.coord.Status(r.PathValue("id"))
	if err != nil {
		s.metrics.record("jobs_events", time.Since(start), true)
		status, code := http.StatusInternalServerError, remote.CodeInternal
		if he, ok := coordErr(err).(httpError); ok {
			status, code = he.status, he.code
		}
		writeError(w, status, code, err.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.metrics.record("jobs_events", time.Since(start), true)
		writeError(w, http.StatusInternalServerError, remote.CodeInternal, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(st coord.JobStatus) {
		data, err := json.Marshal(st)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
	}

	ticker := time.NewTicker(jobEventsPollInterval)
	defer ticker.Stop()
	last := coord.JobStatus{}
	for {
		if st.State != last.State || st.Done != last.Done {
			emit(st)
			last = st
		}
		if coord.TerminalState(st.State) {
			s.metrics.record("jobs_events", time.Since(start), false)
			return
		}
		select {
		case <-r.Context().Done():
			s.metrics.record("jobs_events", time.Since(start), false)
			return
		case <-ticker.C:
		}
		if st, err = s.coord.Status(r.PathValue("id")); err != nil {
			// The job vanished mid-stream (memory-only coordinator
			// restarted); end the stream rather than erroring it.
			s.metrics.record("jobs_events", time.Since(start), false)
			return
		}
	}
}
