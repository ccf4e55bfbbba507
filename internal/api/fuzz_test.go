package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"comfedsv/internal/service"
)

// decodeStrict reports whether body is exactly one JSON value that decodes
// into v with no unknown field, as the handlers decode it.
func decodeStrict(body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil && !dec.More()
}

// validJobBody reports whether body is a job submission the handler must
// accept up to Submit: one strict JSON value, exactly one of run_id and
// inline clients, and options that overlay cleanly.
func validJobBody(body []byte) bool {
	var req jobRequest
	if !decodeStrict(body, &req) {
		return false
	}
	inline := len(req.Clients) > 0 || len(req.Test.X) > 0 || len(req.Test.Y) > 0
	if req.RunID != "" && inline || req.RunID == "" && len(req.Clients) == 0 {
		return false
	}
	_, err := req.Options.overlay(req.RunID == "")
	return err == nil
}

// validRunBody reports whether body is a run registration the handler must
// accept up to CreateRun: one strict JSON value with at least one client
// and options that validate with a class count.
func validRunBody(body []byte) bool {
	var req runRequest
	if !decodeStrict(body, &req) || len(req.Clients) == 0 {
		return false
	}
	_, err := req.Options.toOptions()
	return err == nil
}

// FuzzSubmitRequest posts arbitrary bytes to POST /v1/jobs on a daemon
// whose manager is already shut down, so no job ever runs.
func FuzzSubmitRequest(f *testing.F) { fuzzPost(f, "/v1/jobs", validJobBody) }

// FuzzCreateRun posts arbitrary bytes to POST /v1/runs on a daemon whose
// manager is already shut down, so no run ever trains.
func FuzzCreateRun(f *testing.F) { fuzzPost(f, "/v1/runs", validRunBody) }

// fuzzPost posts each fuzzed body to path on a shut-down manager. The
// handler must not panic and must answer 400, 404, 413 or 503 — 503 only
// for a body valid accepts, which passed decoding and validation and
// reached the manager, and 400 only for one it rejects.
func fuzzPost(f *testing.F, path string, valid func([]byte) bool) {
	mgr, err := service.NewManager(service.Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	if err := mgr.Shutdown(context.Background()); err != nil {
		f.Fatal(err)
	}
	h := NewServer(mgr).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch code := rec.Code; code {
		case http.StatusBadRequest:
			if valid(body) {
				t.Fatalf("400 for a valid body: %s", body)
			}
		case http.StatusNotFound, http.StatusRequestEntityTooLarge:
		case http.StatusServiceUnavailable:
			if !valid(body) {
				t.Fatalf("503 for a body that fails validation: %s", body)
			}
		default:
			t.Fatalf("status %d for body %s", code, body)
		}
	})
}
