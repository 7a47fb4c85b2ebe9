package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the Go client of the tuning service, used by cmd/tuned's
// submit/status/front/drain modes and the end-to-end tests.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// apiStatusError is a non-2xx server answer with its decoded message.
type apiStatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's Retry-After hint (zero when absent);
	// shed submissions (429/503) carry one.
	RetryAfter time.Duration
}

func (e *apiStatusError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Code, e.Msg)
}

// StatusCode extracts the HTTP status of a server-side error (0 when
// err is not one).
func StatusCode(err error) int {
	if se, ok := err.(*apiStatusError); ok {
		return se.Code
	}
	return 0
}

// retryAfter extracts the server's Retry-After hint from a shed
// submission's error (0 when err carries none).
func retryAfter(err error) time.Duration {
	if se, ok := err.(*apiStatusError); ok {
		return se.RetryAfter
	}
	return 0
}

// do is the one request path of the client: it sends method path with
// in, when not nil, as the JSON body and decodes the answer — a 2xx body
// into out (JSON, or the raw bytes for a *[]byte; nil discards it),
// anything else into an apiStatusError carrying the server's message
// and Retry-After hint.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return err
	}
	if in != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxRequestBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var ae apiError
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		se := &apiStatusError{Code: resp.StatusCode, Msg: msg}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return se
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out = data
		return nil
	default:
		return json.Unmarshal(data, out)
	}
}

// Submit posts a job and returns its status (Deduped=true when an
// identical search already exists and was joined instead).
func (c *Client) Submit(ctx context.Context, req *JobRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// List fetches every job's status in submission order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Front fetches a finished job's Pareto front as the byte-stable JSON
// the server renders.
func (c *Client) Front(ctx context.Context, id string) ([]byte, error) {
	var front []byte
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/front", nil, &front)
	return front, err
}

// Drain asks the server to drain gracefully.
func (c *Client) Drain(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/drain", nil, nil)
}

// Healthz fetches the liveness status string ("ok", "degraded" or
// "draining").
func (c *Client) Healthz(ctx context.Context) (string, error) {
	var out map[string]string
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out["status"], err
}

// Metrics fetches the raw Prometheus-format metrics text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var text []byte
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &text)
	return string(text), err
}

// SubmitRetry's backoff: the first wait, which each retry doubles up to
// the cap.
const (
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 5 * time.Second
)

// RetryPolicy paces SubmitRetry. The zero value gets sensible
// defaults.
type RetryPolicy struct {
	// MaxAttempts bounds total submission attempts (default 5).
	MaxAttempts int

	// rand and sleep are test seams: the jitter source (default the
	// shared one) and the clock a retry waits on (default the real one).
	rand  *rand.Rand
	sleep func(context.Context, time.Duration) error
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.sleep == nil {
		p.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return p
}

// retryableSubmit reports whether a Submit failure is worth retrying:
// backpressure (429), unavailability (503) or a transport error (the
// server may be restarting). 4xx validation errors are permanent.
func retryableSubmit(err error) bool {
	switch StatusCode(err) {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	case 0:
		return true // transport error, no HTTP status
	default:
		return false
	}
}

// SubmitRetry posts a job, retrying shed submissions (429 quota, 503
// draining/degraded) and transport failures with exponential backoff
// — 100ms, doubled per retry up to 5s, jittered over [0.5x, 1.5x). A
// server Retry-After hint extends any shorter computed wait. Retries
// are idempotent: identical requests map to the same dedup key
// server-side, so a retry that crosses an accepted-but-unanswered
// submission joins the existing job instead of duplicating it.
func (c *Client) SubmitRetry(ctx context.Context, req *JobRequest, pol RetryPolicy) (JobStatus, error) {
	pol = pol.withDefaults()
	delay := retryBaseDelay
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := jitter(delay, pol.rand)
			if ra := retryAfter(lastErr); ra > wait {
				wait = ra
			}
			if err := pol.sleep(ctx, wait); err != nil {
				return JobStatus{}, lastErr
			}
			delay = min(2*delay, retryMaxDelay)
		}
		st, err := c.Submit(ctx, req)
		if err == nil {
			return st, nil
		}
		if !retryableSubmit(err) || ctx.Err() != nil {
			return JobStatus{}, err
		}
		lastErr = err
	}
	return JobStatus{}, lastErr
}

// jitter spreads d over [0.5x, 1.5x) so synchronized clients do not
// retry in lockstep.
func jitter(d time.Duration, rng *rand.Rand) time.Duration {
	var f float64
	if rng != nil {
		f = rng.Float64()
	} else {
		f = rand.Float64()
	}
	return d/2 + time.Duration(f*float64(d))
}

// Wait polls a job until it reaches a terminal state, the context
// expires, or the server stops answering. A job interrupted by a
// server drain keeps Wait polling (it resumes after a restart), so
// callers who do not want that should bound ctx.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err == nil && st.State.Terminal() {
			return st, nil
		}
		if err != nil && StatusCode(err) == 0 && ctx.Err() != nil {
			return JobStatus{}, ctx.Err()
		}
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case <-t.C:
		}
	}
}
