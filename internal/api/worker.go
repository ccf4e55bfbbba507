package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"comfedsv/internal/dispatch"
)

// Worker endpoints — the coordinator half of the distributed observation
// protocol. Registered only when the manager has a Config.Dispatcher:
//
//	POST /v1/worker/register    announce a worker; returns lease/liveness windows
//	POST /v1/worker/heartbeat   refresh a worker's liveness
//	POST /v1/worker/deregister  graceful worker shutdown; revokes its leases
//	POST /v1/worker/lease       long-poll for the next shard task (204 = no work)
//	POST /v1/worker/complete    report a shard's digest-stamped cell batch
//	POST /v1/worker/fail        report a worker-side failure for a lease
//
// Error codes: 409 for an unknown or already-revoked lease (the shard was
// re-leased; the result is discarded), 422 for a digest mismatch (a
// determinism violation — loud, never retried) or for cells that are not
// exactly the lease's (the shard is re-leased or run locally), 503 when
// shutting down.

// maxLeaseWait bounds one long-poll window server-side so abandoned
// connections cannot pin handler goroutines past it.
const maxLeaseWait = 2 * time.Minute

// defaultLeaseWait applies when the worker does not ask for a window.
const defaultLeaseWait = 30 * time.Second

func (s *Server) workerRoutes(mux *http.ServeMux) {
	if s.dispatch == nil {
		return
	}
	mux.HandleFunc("POST /v1/worker/register", s.workerRegister)
	mux.HandleFunc("POST /v1/worker/heartbeat", s.workerRegister) // a heartbeat is an idempotent re-register
	mux.HandleFunc("POST /v1/worker/deregister", s.workerDeregister)
	mux.HandleFunc("POST /v1/worker/lease", s.workerLease)
	mux.HandleFunc("POST /v1/worker/complete", s.workerComplete)
	mux.HandleFunc("POST /v1/worker/fail", s.workerFail)
}

// decodeWorker decodes one worker-endpoint body strictly.
func decodeWorker(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *Server) workerRegister(w http.ResponseWriter, r *http.Request) {
	var req dispatch.RegisterRequest
	if !decodeWorker(w, r, &req) {
		return
	}
	if err := s.dispatch.Register(req.WorkerID); err != nil {
		if errors.Is(err, dispatch.ErrClosed) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, dispatch.RegisterResponse{
		LeaseTTLSeconds:  s.dispatch.LeaseTTL().Seconds(),
		WorkerTTLSeconds: s.dispatch.WorkerTTL().Seconds(),
	})
}

func (s *Server) workerDeregister(w http.ResponseWriter, r *http.Request) {
	var req dispatch.RegisterRequest
	if !decodeWorker(w, r, &req) {
		return
	}
	s.dispatch.Deregister(req.WorkerID)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) workerLease(w http.ResponseWriter, r *http.Request) {
	var req dispatch.LeaseRequest
	if !decodeWorker(w, r, &req) {
		return
	}
	wait := time.Duration(req.WaitSeconds * float64(time.Second))
	if wait <= 0 {
		wait = defaultLeaseWait
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	// The poll ends at the window, the client disconnecting, or shutdown —
	// whichever comes first.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	lease, err := s.dispatch.Lease(ctx, req.WorkerID)
	switch {
	case errors.Is(err, dispatch.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil && r.Context().Err() != nil:
		// Client went away mid-poll; the response is moot.
		writeError(w, http.StatusRequestTimeout, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	case lease == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, lease)
	}
}

func (s *Server) workerComplete(w http.ResponseWriter, r *http.Request) {
	var req dispatch.CompleteRequest
	if !decodeWorker(w, r, &req) {
		return
	}
	err := s.dispatch.Complete(req.LeaseID, req.Cells)
	var mismatch *dispatch.DigestMismatchError
	var wrongCells *dispatch.WorkerError
	switch {
	case errors.Is(err, dispatch.ErrUnknownLease):
		// The lease was revoked (deadline, dead worker) and the shard
		// re-leased; this straggler's work is discarded.
		writeError(w, http.StatusConflict, err)
	case errors.As(err, &mismatch), errors.As(err, &wrongCells):
		writeError(w, http.StatusUnprocessableEntity, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) workerFail(w http.ResponseWriter, r *http.Request) {
	var req dispatch.FailRequest
	if !decodeWorker(w, r, &req) {
		return
	}
	switch err := s.dispatch.Fail(req.LeaseID, req.Error); {
	case errors.Is(err, dispatch.ErrUnknownLease):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}
