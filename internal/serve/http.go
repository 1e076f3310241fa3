package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/obs"
)

// The HTTP surface, all stdlib:
//
//	POST   /jobs      — submit a JobSpec; 202 with the job status
//	GET    /jobs      — list all jobs
//	GET    /jobs/{id} — one job's status
//	DELETE /jobs/{id} — cancel a job
//	GET    /metrics   — the obs JSON snapshot (schema_version envelope);
//	                    ?format=prom selects the Prometheus text
//	                    exposition (version 0.0.4) instead
//	GET    /trace     — the active Chrome trace_event timeline
//	GET    /events    — live event stream (SSE, or ?poll=1 long-poll);
//	                    see http_events.go
//	GET    /jobs/{id}/events — one job's event stream
//
// Error mapping: invalid spec → 400, spec body over maxSpecBytes → 413,
// spec body slower than the server's read deadline → 408,
// unknown job → 404, queue full →
// 429 with Retry-After (the client should back off and retry — the
// job was not accepted), draining → 503, cancel of a finished job →
// 409. Handlers never read the wall clock; anything time-shaped in a
// response came from the manager's logical clock.

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// NewHandler returns the service's HTTP handler for the given manager.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(m, w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeJSON(m, w, http.StatusNotFound, errorBody{Error: err.Error()})
			return
		}
		writeJSON(m, w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleCancel(m, w, r)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Snapshots are point-in-time by construction; no-store keeps
		// intermediaries from serving a stale scrape.
		w.Header().Set("Cache-Control", "no-store")
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := obs.WriteProm(w); err != nil {
				m.logf("serve: writing prom metrics: %v", err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteJSON(w); err != nil {
			m.logf("serve: writing metrics: %v", err)
		}
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		tr := obs.ActiveTrace()
		if tr == nil {
			writeJSON(m, w, http.StatusNotFound, errorBody{Error: "serve: no active trace; start the daemon with tracing enabled"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if err := tr.WriteChromeTrace(w); err != nil {
			m.logf("serve: writing trace: %v", err)
		}
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(m, w, r, "")
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(m, w, r, r.PathValue("id"))
	})
	return mux
}

// maxSpecBytes caps a POST /jobs body. A JobSpec is a few hundred
// bytes; the cap only stops a client from making the decoder buffer an
// arbitrarily long token.
const maxSpecBytes = 1 << 20

// decodeSpec reads one JobSpec from a request body. The body must be
// exactly one JSON value: a field JobSpec does not have, or anything
// but whitespace after the value, is an error, not silently dropped.
func decodeSpec(body io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return spec, nil
	case err != nil:
		return spec, err
	default:
		return spec, errors.New("data after the job spec")
	}
}

// handleSubmit decodes, validates and enqueues a job spec.
func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			code = http.StatusRequestEntityTooLarge
		case errors.Is(err, os.ErrDeadlineExceeded):
			// The server's read deadline (set by the command, which
			// owns the wall clock) ran out mid-body.
			code = http.StatusRequestTimeout
		}
		writeJSON(m, w, code, errorBody{Error: fmt.Sprintf("serve: decoding job spec: %v", err)})
		return
	}
	st, err := m.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(m, w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(m, w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(m, w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(m, w, http.StatusAccepted, st)
	}
}

// handleCancel maps Cancel's errors onto DELETE semantics.
func handleCancel(m *Manager, w http.ResponseWriter, r *http.Request) {
	st, err := m.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeJSON(m, w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, ErrTerminal):
		writeJSON(m, w, http.StatusConflict, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(m, w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	default:
		writeJSON(m, w, http.StatusOK, st)
	}
}

// writeJSON writes v as an indented JSON response. A failed write
// means the client went away; it is logged, not surfaced — there is
// nobody left to surface it to.
func writeJSON(m *Manager, w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"serve: encoding response"}`, http.StatusInternalServerError)
		m.logf("serve: encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(data, '\n')); err != nil {
		m.logf("serve: writing response: %v", err)
	}
}
