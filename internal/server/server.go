package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"autotune/internal/export"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// Server is the HTTP front-end of the tuning service.
//
// API (JSON unless noted):
//
//	POST /v1/jobs            submit a JobRequest  → 202 JobStatus
//	GET  /v1/jobs            list all jobs        → [JobStatus]
//	GET  /v1/jobs/{id}       job status           → JobStatus
//	GET  /v1/jobs/{id}/front finished Pareto front (byte-identical to
//	                         the library's export for the same seed)
//	GET  /v1/jobs/{id}/events  SSE progress stream
//	POST /v1/drain           begin graceful drain → 202
//	GET  /healthz            liveness ("ok" / "degraded" / "draining")
//	GET  /metrics            counters, Prometheus text format
//
// Degraded mode: when the tuning database turns read-only after a disk
// fault, reads (status, fronts, events, lists) keep working, new
// submissions are shed with 503 + Retry-After, and /healthz reports
// "degraded" with the underlying reason until recovery.
type Server struct {
	orch *Orchestrator
	mux  *http.ServeMux
}

// New builds the HTTP front-end over an orchestrator.
func New(orch *Orchestrator) *Server {
	s := &Server{orch: orch, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/front", s.handleFront)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/drain", s.handleDrain)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// apiError is the structured error payload of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// errStatus maps orchestration errors to HTTP statuses.
func errStatus(err error) int {
	switch {
	case isRequestError(err):
		return http.StatusBadRequest
	case errors.Is(err, errQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining), errors.Is(err, errDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, errNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// retryable reports whether the client should back off and retry the
// same request later; such responses carry a Retry-After header.
func retryable(err error) bool {
	return errors.Is(err, errQuota) || errors.Is(err, errDraining) || errors.Is(err, errDegraded)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := decodeJobRequest(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, reqErrf("request body exceeds %d bytes", MaxRequestBytes))
			return
		}
		writeError(w, errStatus(err), err)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Tenant")
	}
	if tenant == "" {
		tenant = "default"
	}
	req.Tenant = tenant
	st, err := s.orch.Submit(req, tenant)
	if err != nil {
		if retryable(err) {
			// Header before WriteHeader: backpressure-aware clients read
			// it to pace resubmission (dedup keys make retries
			// idempotent).
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		}
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.orch.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.orch.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleFront serves a finished job's Pareto front through the same
// byte-stable renderer the library and CLI use, so a service front and
// a direct same-seed library front compare equal byte for byte.
func (s *Server) handleFront(w http.ResponseWriter, r *http.Request) {
	st, err := s.orch.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	if st.Result == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; no front yet", st.ID, st.State))
		return
	}
	front := make([]pareto.Point, 0, len(st.Result.Points))
	for _, p := range st.Result.Points {
		front = append(front, pareto.Point{
			Objectives: p.Objectives,
			Payload:    skeleton.Config(p.Config),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	export.FrontJSON(w, front, st.Result.ObjectiveNames)
}

// handleEvents streams job progress as server-sent events: one
// `progress` event per state change and per evaluated batch — a
// generation, posted once the batch is journaled, with the cumulative
// evaluation count — and a final `done` event carrying the terminal
// status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, done, cancel, err := s.orch.Subscribe(id)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v interface{}) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	st, _ := s.orch.Status(id)
	emit("status", st)
	if st.State.Terminal() {
		emit("done", st)
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-events:
			emit("progress", ev)
			if ev.State.Terminal() {
				st, _ := s.orch.Status(id)
				emit("done", st)
				return
			}
		case <-done:
			st, _ := s.orch.Status(id)
			emit("done", st)
			return
		}
	}
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	// Drain blocks until running searches have checkpointed; answer
	// first, drain in the background, and let /healthz report progress.
	go s.orch.Drain()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	body := map[string]string{}
	if h := s.orch.DB().Health(); h.ReadOnly {
		status = "degraded"
		body["reason"] = h.Reason
	}
	if s.orch.Draining() {
		status = "draining"
	}
	body["status"] = status
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves the orchestrator's series in the Prometheus text
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.orch.metrics.write(w)
}

// shutdownGrace bounds how long in-flight HTTP requests may linger
// once the orchestrator has drained.
const shutdownGrace = 5 * time.Second

// Serve runs the service on l until ctx is done (SIGTERM in cmd/tuned)
// or a drain is requested over the API, then shuts down gracefully:
// running searches checkpoint at their next generation boundary,
// queued jobs stay persisted for the next start, and in-flight HTTP
// requests get a short grace period.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	// A POST /v1/drain starts a drain without cancelling ctx; either
	// shuts the listener down.
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	case <-s.orch.drainStarted:
	}
	s.orch.Drain() // idempotent; returns once the database is closed
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	return hs.Shutdown(sctx)
}
