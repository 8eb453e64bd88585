package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"syscall"
	"time"

	"reveal/internal/jobs"
	"reveal/internal/obs"
)

// Client is a thin HTTP client for the reveald API, used by
// `revealctl submit` / `revealctl status`, the fabric worker loop, and
// the end-to-end tests.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// RetryAttempts is how many times a request is re-issued after a
	// transient connection error (the coordinator restarting, the listener
	// not up yet). Only errors raised before the request reached the server
	// — dial failures, connection refused — are retried, so retried POSTs
	// cannot double-apply. 0 disables retrying.
	RetryAttempts int
	// RetryBase is the first retry delay; attempt k waits RetryBase·2^k,
	// capped at 5 s (default 200 ms).
	RetryBase time.Duration
}

// NewClient builds a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx daemon response. Callers branch on Status (e.g.
// 409 = lease lost, 429 = backpressure) via errors.As or StatusCode.
type APIError struct {
	Method  string
	Path    string
	Status  int
	Message string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("service: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// StatusCode extracts the HTTP status from an APIError chain (0 when err
// is not an API response, e.g. a transport failure).
func StatusCode(err error) int {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// isTransientConnErr reports whether err happened before the request
// reached the server — the only class of failures safe to retry for
// non-idempotent methods. url.Error/net.OpError unwrap through errors.As.
func isTransientConnErr(err error) bool {
	if err == nil {
		return false
	}
	var oe *net.OpError
	if errors.As(err, &oe) && oe.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// do issues one request (re-issuing it after transient connection errors
// when RetryAttempts is set) and decodes the JSON response into out
// (skipped when out is nil or the response has no body). Non-2xx
// responses are returned as *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return fmt.Errorf("service: marshaling request: %w", err)
		}
	}
	base := c.RetryBase
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, data, body != nil, out)
		if err == nil || attempt >= c.RetryAttempts || !isTransientConnErr(err) {
			return err
		}
		delay := base << uint(attempt)
		if delay > 5*time.Second {
			delay = 5 * time.Second
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(delay):
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, hasBody bool, out any) error {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rdata, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		apiErr := &APIError{Method: method, Path: path, Status: resp.StatusCode}
		var ae apiError
		if json.Unmarshal(rdata, &ae) == nil && ae.Error != "" {
			apiErr.Message = ae.Error
		}
		return apiErr
	}
	if out == nil || len(rdata) == 0 {
		return nil
	}
	if err := json.Unmarshal(rdata, out); err != nil {
		return fmt.Errorf("service: parsing %s response: %w", path, err)
	}
	return nil
}

// Submit posts a campaign spec and returns the accepted job.
func (c *Client) Submit(ctx context.Context, spec *CampaignSpec) (jobs.Status, error) {
	var resp submitResponse
	if err := c.do(ctx, http.MethodPost, "/api/v1/campaigns", spec, &resp); err != nil {
		return jobs.Status{}, err
	}
	return resp.Job, nil
}

// Campaign fetches one job's status.
func (c *Client) Campaign(ctx context.Context, id string) (jobs.Status, error) {
	var st jobs.Status
	err := c.do(ctx, http.MethodGet, "/api/v1/campaigns/"+id, nil, &st)
	return st, err
}

// List fetches every job.
func (c *Client) List(ctx context.Context) ([]jobs.Status, error) {
	var resp struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/api/v1/campaigns", nil, &resp)
	return resp.Jobs, err
}

// Result fetches a finished campaign's result into out (a pointer, e.g.
// *AttackCampaignResult or *json.RawMessage).
func (c *Client) Result(ctx context.Context, id string, out any) error {
	return c.do(ctx, http.MethodGet, "/api/v1/campaigns/"+id+"/result", nil, out)
}

// Stats fetches the queue/cache depth counters.
func (c *Client) Stats(ctx context.Context) (queued, running, cached int, err error) {
	resp, err := c.StatsFull(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	return resp.Queued, resp.Running, resp.CachedTemplates, nil
}

// StatsFull fetches the complete service statistics payload (worker
// utilization, per-kind throughput, latency distributions).
func (c *Client) StatsFull(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, &resp)
	return resp, err
}

// Events fetches a batch of service-journal events after the given cursor
// from the daemon's /events endpoint (served next to the API on the same
// listener). A positive wait long-polls until an event arrives or the
// duration expires.
func (c *Client) Events(ctx context.Context, since int64, max int, wait time.Duration) (obs.EventsResponse, error) {
	path := fmt.Sprintf("/events?since=%d", since)
	if max > 0 {
		path += fmt.Sprintf("&max=%d", max)
	}
	if wait > 0 {
		path += "&wait=" + wait.String()
	}
	var resp obs.EventsResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}

// History fetches one page of quality-history records. Pass the previous
// response's NextAfter as after to continue; kind/tenant filter, limit
// bounds the page (0 = server default).
func (c *Client) History(ctx context.Context, kind, tenant string, after int64, limit int) (HistoryResponse, error) {
	path := fmt.Sprintf("/api/v1/history?after=%d", after)
	if kind != "" {
		path += "&kind=" + url.QueryEscape(kind)
	}
	if tenant != "" {
		path += "&tenant=" + url.QueryEscape(tenant)
	}
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	var resp HistoryResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}

// HistoryAggregate fetches the per-kind quality rollups (count, mean,
// quantiles, EWMA per metric) plus the watchdog baselines. A positive
// window restricts the rollup to the newest window records per kind.
func (c *Client) HistoryAggregate(ctx context.Context, kind, tenant string, window int) (HistoryAggregateResponse, error) {
	path := fmt.Sprintf("/api/v1/history/aggregate?window=%d", window)
	if kind != "" {
		path += "&kind=" + url.QueryEscape(kind)
	}
	if tenant != "" {
		path += "&tenant=" + url.QueryEscape(tenant)
	}
	var resp HistoryAggregateResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}

// WaitDone polls until the job reaches a terminal state or ctx expires.
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (jobs.Status, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Campaign(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State == jobs.StateDone || st.State == jobs.StateFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("service: waiting for %s (%s): %w", id, st.State, ctx.Err())
		case <-time.After(poll):
		}
	}
}
