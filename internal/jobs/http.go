package jobs

import (
	"encoding/json"
	"errors"
	"net/http"

	"focus/internal/dist"
	"focus/internal/metrics"
)

// HTTP surface of the resident master. Everything is JSON; the admission
// error classes map onto status codes a client can branch on without
// parsing text:
//
//	POST   /jobs               submit a Spec        201 | 429 queue full | 422 quota | 503 draining | 413 body over maxSpecBytes
//	GET    /jobs               list job statuses
//	GET    /jobs/{id}          one job's status     404 unknown id
//	GET    /jobs/{id}/contigs  a Done job's FASTA   404 unknown id | 409 not done
//	DELETE /jobs/{id}          kill                 409 already terminal
//	POST   /jobs/{id}/resume   resume               409 not resumable
//	GET    /jobs/{id}/events   NDJSON status stream until terminal
//	GET    /status             server + fleet health snapshot
//	GET    /metrics            metrics registry snapshot
//
// The chaos tests scrape /status and /metrics as assertions.

// maxSpecBytes caps a POST /jobs body, far above any Spec: the decoder
// buffers what it reads, so an unbounded body is unbounded memory.
const maxSpecBytes = 1 << 20

// StatusPage is the GET /status document.
type StatusPage struct {
	Draining bool                `json:"draining"`
	Queued   int                 `json:"queued"`
	Running  int                 `json:"running"`
	Jobs     []Status            `json:"jobs"`
	Fleet    dist.HealthSnapshot `json:"fleet"`
}

// StatusPage builds the GET /status document (exported so tests and
// embedding servers can render it without HTTP).
func (s *Server) StatusPage() StatusPage {
	page := StatusPage{Jobs: s.List(), Fleet: s.Health(), Draining: s.Draining()}
	for _, st := range page.Jobs {
		switch st.State {
		case Queued:
			page.Queued++
		case Running:
			page.Running++
		}
	}
	return page
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatusPage())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeErr(w, code, err)
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			writeErr(w, admissionCode(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": id})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/contigs", func(w http.ResponseWriter, r *http.Request) {
		contigs, err := s.Result(r.PathValue("id"))
		switch {
		case err == nil:
			w.Header().Set("Content-Type", "text/x-fasta")
			writeContigsFASTA(w, contigs)
		case errors.Is(err, ErrNotFound):
			writeErr(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNotDone):
			writeErr(w, http.StatusConflict, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		err := s.Kill(r.PathValue("id"))
		switch {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, ErrNotFound):
			writeErr(w, http.StatusNotFound, err)
		case errors.Is(err, ErrTerminal):
			writeErr(w, http.StatusConflict, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
	})
	mux.HandleFunc("POST /jobs/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		err := s.Resume(r.PathValue("id"))
		switch {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, ErrNotFound):
			writeErr(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNotResumable):
			writeErr(w, http.StatusConflict, err)
		case errors.Is(err, ErrAdmission):
			writeErr(w, admissionCode(err), err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		ch, err := s.Watch(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			flusher.Flush() // release the client's header wait before the first event
		}
		enc := json.NewEncoder(w)
		for {
			select {
			case st, ok := <-ch:
				if !ok {
					return // terminal: stream ends
				}
				if enc.Encode(st) != nil {
					return // client gone; channel dies with the job
				}
				if flusher != nil {
					flusher.Flush()
				}
			case <-r.Context().Done():
				return
			}
		}
	})
	return mux
}

// admissionCode maps an admission rejection onto its HTTP status.
func admissionCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, ErrQuota):
		return http.StatusUnprocessableEntity // 422
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable // 503
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// MetricsSnapshot re-exports the registry snapshot type for API users of
// the /metrics document.
type MetricsSnapshot = metrics.Snapshot
