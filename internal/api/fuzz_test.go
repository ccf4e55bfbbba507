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

// validJobBody reports whether body is a job submission the handler must
// accept up to Submit: one strict JSON value, exactly one of run_id and
// inline clients, and options that overlay cleanly.
func validJobBody(body []byte) bool {
	var req jobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil || dec.More() {
		return false
	}
	inline := len(req.Clients) > 0 || len(req.Test.X) > 0 || len(req.Test.Y) > 0
	if req.RunID != "" && inline || req.RunID == "" && len(req.Clients) == 0 {
		return false
	}
	_, err := req.Options.overlay(req.RunID == "")
	return err == nil
}

// FuzzSubmitRequest posts arbitrary bytes to POST /v1/jobs on a daemon
// whose manager is already shut down, so no job ever runs. The handler
// must not panic and must answer 400, 404, 413 or 503 — 503 only for a
// body that passed decoding and validation and reached Submit, 400 only
// for one that did not.
func FuzzSubmitRequest(f *testing.F) {
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
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch code := rec.Code; code {
		case http.StatusBadRequest:
			if validJobBody(body) {
				t.Fatalf("400 for a valid body: %s", body)
			}
		case http.StatusNotFound, http.StatusRequestEntityTooLarge:
		case http.StatusServiceUnavailable:
			if !validJobBody(body) {
				t.Fatalf("503 for a body that fails validation: %s", body)
			}
		default:
			t.Fatalf("status %d for body %s", code, body)
		}
	})
}
