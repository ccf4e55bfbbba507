package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"comfedsv/internal/utility"
)

// Wire request/response bodies of the worker endpoints, shared by the
// coordinator's HTTP surface (internal/api) and the worker client so the
// two cannot drift.

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	WorkerID string `json:"worker_id"`
}

// RegisterResponse returns the coordinator's lease and liveness windows
// so the worker can pace its heartbeats and long-poll windows.
type RegisterResponse struct {
	LeaseTTLSeconds  float64 `json:"lease_ttl_seconds"`
	WorkerTTLSeconds float64 `json:"worker_ttl_seconds"`
}

// LeaseRequest long-polls for the next shard task. WaitSeconds bounds
// the poll; the coordinator responds 204 when it elapses with no work.
type LeaseRequest struct {
	WorkerID    string  `json:"worker_id"`
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
}

// CompleteRequest reports one evaluated shard: the leased cells, paid,
// as a digest-stamped batch.
type CompleteRequest struct {
	LeaseID string             `json:"lease_id"`
	Cells   *utility.CellBatch `json:"cells"`
}

// FailRequest reports a worker-side failure evaluating a lease.
type FailRequest struct {
	LeaseID string `json:"lease_id"`
	Error   string `json:"error"`
}

// Client is the worker daemon's HTTP client for the coordinator's
// /v1/worker endpoints.
type Client struct {
	base     string
	workerID string
	hc       *http.Client
}

// NewClient returns a worker client for the coordinator at baseURL
// (scheme://host:port, no trailing path). The underlying http.Client has
// no global timeout — long-polls are bounded per call via context.
func NewClient(baseURL, workerID string) *Client {
	return &Client{
		base:     strings.TrimRight(baseURL, "/"),
		workerID: workerID,
		hc:       &http.Client{},
	}
}

// WorkerID returns the identity this client registers and polls under.
func (c *Client) WorkerID() string { return c.workerID }

// httpError is a non-2xx coordinator response.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("dispatch: coordinator returned %d: %s", e.status, strings.TrimSpace(e.body))
}

// Transient reports whether the failure is worth retrying: server-side
// errors and backpressure are, client-usage errors are not.
func (e *httpError) Transient() bool {
	return e.status >= 500 || e.status == http.StatusTooManyRequests
}

// post sends one JSON request and decodes the response into out (when
// non-nil and the response is 200). A 204 returns (false, nil); a 200
// returns (true, nil).
func (c *Client) post(ctx context.Context, path string, in, out any) (bool, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return false, fmt.Errorf("dispatch: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("dispatch: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, fmt.Errorf("dispatch: %w", err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return false, nil
	case resp.StatusCode == http.StatusOK:
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return false, fmt.Errorf("dispatch: decoding response: %w", err)
			}
		}
		return true, nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return false, &httpError{status: resp.StatusCode, body: string(b)}
	}
}

// Register announces the worker and returns the coordinator's windows.
func (c *Client) Register(ctx context.Context) (*RegisterResponse, error) {
	var out RegisterResponse
	if _, err := c.post(ctx, "/v1/worker/register", RegisterRequest{WorkerID: c.workerID}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Heartbeat refreshes the worker's liveness.
func (c *Client) Heartbeat(ctx context.Context) error {
	_, err := c.post(ctx, "/v1/worker/heartbeat", RegisterRequest{WorkerID: c.workerID}, nil)
	return err
}

// Deregister removes the worker from the registry (graceful shutdown);
// its outstanding leases are revoked for immediate re-lease.
func (c *Client) Deregister(ctx context.Context) error {
	_, err := c.post(ctx, "/v1/worker/deregister", RegisterRequest{WorkerID: c.workerID}, nil)
	return err
}

// Lease long-polls for the next shard task for up to wait. A (nil, nil)
// return means the window elapsed with no work — poll again.
func (c *Client) Lease(ctx context.Context, wait time.Duration) (*Lease, error) {
	var lease Lease
	ok, err := c.post(ctx, "/v1/worker/lease", LeaseRequest{WorkerID: c.workerID, WaitSeconds: wait.Seconds()}, &lease)
	if err != nil || !ok {
		return nil, err
	}
	return &lease, nil
}

// Complete reports one evaluated shard's cell batch.
func (c *Client) Complete(ctx context.Context, leaseID string, cells *utility.CellBatch) error {
	_, err := c.post(ctx, "/v1/worker/complete", CompleteRequest{LeaseID: leaseID, Cells: cells}, nil)
	return err
}

// Fail reports a worker-side failure evaluating a lease.
func (c *Client) Fail(ctx context.Context, leaseID, msg string) error {
	_, err := c.post(ctx, "/v1/worker/fail", FailRequest{LeaseID: leaseID, Error: msg}, nil)
	return err
}
