package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client drives a running scheduling service over HTTP. The zero value
// is not usable: construct with NewClient. cmd/schedctl and the
// end-to-end tests are its reference consumers.
//
// Schedule, Submit and SubmitBatch send the graph, system and topology
// documents verbatim, as the caller passed them, instead of re-encoding
// every byte of them per call. A document that is not valid JSON
// therefore comes back as the server's typed 400 (an *APIError with
// CodeBadRequest), not as a local encoding error.
type Client struct {
	base  string
	http  *http.Client
	retry *retrier // nil: single attempt per request (the default)
}

// NewClient returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080"). httpClient nil means http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// RetryPolicy configures the client's retry loop: exponential backoff
// with full jitter — each delay is drawn uniformly from [0, min(MaxDelay,
// BaseDelay<<attempt)] — floored at whatever Retry-After the server
// sent. Only idempotent requests retry (GETs and idempotency-keyed
// submissions), and only on transport errors and 502/503 responses:
// anything else either carries state the caller must see, or might
// repeat a non-idempotent side effect.
type RetryPolicy struct {
	// MaxAttempts caps total tries (first attempt included). Default 4.
	MaxAttempts int
	// BaseDelay is the backoff base. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff step. Default 2s.
	MaxDelay time.Duration
	// Seed drives the jitter PRNG, so tests are reproducible. 0 means 1.
	Seed int64
}

func (p *RetryPolicy) fill() {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// WithRetry returns a copy of the client that retries idempotent
// requests under the given policy. The original client is unchanged.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	p.fill()
	cc := *c
	cc.retry = &retrier{policy: p, rng: rand.New(rand.NewSource(p.Seed))}
	return &cc
}

// retrier holds the retry policy plus its (mutex-guarded) jitter PRNG.
type retrier struct {
	policy RetryPolicy
	mu     sync.Mutex
	rng    *rand.Rand
}

// delay computes the backoff before retry number attempt (1-based),
// floored at the server's Retry-After hint when one arrived.
func (r *retrier) delay(attempt int, retryAfter time.Duration) time.Duration {
	max := r.policy.BaseDelay << uint(attempt-1)
	if max > r.policy.MaxDelay {
		max = r.policy.MaxDelay
	}
	r.mu.Lock()
	d := time.Duration(r.rng.Int63n(int64(max) + 1))
	r.mu.Unlock()
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// errBadEvent marks an SSE payload the client could not decode —
// reconnecting would just replay the same bytes, so never retried.
var errBadEvent = errors.New("service: bad event payload")

// retryable reports whether err is worth another attempt, and any
// Retry-After floor the server attached. Retryable: transport-level
// failures (connect errors, resets, mid-body cuts — the request may
// never have reached the server, or the response never fully left it)
// and 502/503 (the server explicitly said "not now"). Not retryable:
// every other API error (it carries state the caller must see),
// context errors (the caller's deadline is spent), and decode errors
// (the bytes arrived; asking again yields the same bytes).
func retryable(err error) (time.Duration, bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		if apiErr.StatusCode == http.StatusBadGateway || apiErr.StatusCode == http.StatusServiceUnavailable {
			return apiErr.RetryAfter, true
		}
		return 0, false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	var syntaxErr *json.SyntaxError
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &syntaxErr) || errors.As(err, &typeErr) || errors.Is(err, errBadEvent) {
		return 0, false
	}
	return 0, true
}

// sleepCtx pauses for d, honoring ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// APIError is a non-2xx response decoded into its typed body. The
// service's error codes (CodeBadRequest, ...) are in Body.Code.
type APIError struct {
	StatusCode int
	Body       ErrorBody
	// RetryAfter is the response's Retry-After hint (integer-seconds
	// form), zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: http %d: %s: %s", e.StatusCode, e.Body.Code, e.Body.Message)
}

// apiError decodes a non-2xx response body into its typed form.
func apiError(resp *http.Response, data []byte) *APIError {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil {
		apiErr.Body = *env.Error
	} else {
		apiErr.Body = ErrorBody{Code: "http_error", Message: strings.TrimSpace(string(data))}
	}
	return apiErr
}

// do issues a request with the given JSON body (nil: none) and decodes
// the response into out (ignored when nil). Non-2xx responses come back
// as *APIError. idempotent marks the request safe to retry under the
// client's retry policy.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, idempotent bool) error {
	attempts := 1
	if c.retry != nil && idempotent {
		attempts = c.retry.policy.MaxAttempts
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		lastErr = c.doOnce(ctx, method, path, body, out)
		if lastErr == nil || attempt >= attempts {
			return lastErr
		}
		retryAfter, ok := retryable(lastErr)
		if !ok {
			return lastErr
		}
		if err := sleepCtx(ctx, c.retry.delay(attempt, retryAfter)); err != nil {
			return err
		}
	}
}

// doOnce issues exactly one attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Schedule runs one problem synchronously (POST /v1/schedule). Never
// retried: the job is anonymous, so a retry could run it twice.
func (c *Client) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	var out ScheduleResponse
	if err := c.do(ctx, http.MethodPost, "/v1/schedule", req.wireDoc(), &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Submit enqueues an asynchronous job (POST /v1/jobs) and returns its
// initial view. Retried under the retry policy only when the request
// carries an idempotency key — the key makes the resubmission safe.
func (c *Client) Submit(ctx context.Context, req ScheduleRequest) (*JobView, error) {
	var out JobView
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req.wireDoc(), &out, req.IdempotencyKey != ""); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitBatch enqueues many jobs in one round trip (POST /v1/batch).
// Each job is accepted or rejected independently: inspect every
// BatchItem's Error. Retried only when every job in the batch carries
// an idempotency key.
func (c *Client) SubmitBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	keyed := len(req.Jobs) > 0
	for i := range req.Jobs {
		if req.Jobs[i].IdempotencyKey == "" {
			keyed = false
			break
		}
	}
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req.wireDoc(), &out, keyed); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reschedule queues a quasi-dynamic delta against a finished job
// (POST /v1/jobs/{id}/reschedule) and returns the new job's initial
// view. Never retried: reschedules carry no idempotency key.
func (c *Client) Reschedule(ctx context.Context, id string, req RescheduleRequest) (*JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out JobView
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/reschedule", body, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches the current view of a job (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	var out JobView
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait polls a job every poll interval until it reaches a terminal state
// or ctx expires. poll <= 0 means 50ms. Under a retry policy, transient
// transport errors and 502/503s mid-poll are absorbed by each Job call;
// ctx remains the hard bound.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobView, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if v.Status.Terminal() {
			return v, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Watch follows a job's SSE status stream (GET /v1/jobs/{id}/events)
// until the job reaches a terminal state, returning its final view. fn
// (optional) observes every received view, the terminal one included.
// Unlike Wait it never polls: the server pushes each transition. Under
// a retry policy the stream reconnects after transport failures and
// 502/503s, resuming from the last event's ID via Last-Event-ID so no
// view is delivered twice.
func (c *Client) Watch(ctx context.Context, id string, fn func(*JobView)) (*JobView, error) {
	attempts := 1
	if c.retry != nil {
		attempts = c.retry.policy.MaxAttempts
	}
	lastID := 0
	failures := 0
	for {
		v, progressed, err := c.watchOnce(ctx, id, &lastID, fn)
		if err == nil {
			return v, nil
		}
		if progressed {
			failures = 0 // the connection worked; only count consecutive dead ones
		}
		failures++
		if failures >= attempts {
			return nil, err
		}
		retryAfter, ok := retryable(err)
		if !ok {
			return nil, err
		}
		if serr := sleepCtx(ctx, c.retry.delay(failures, retryAfter)); serr != nil {
			return nil, serr
		}
	}
}

// watchOnce runs one SSE connection, tracking event IDs into *lastID
// and dropping events a previous connection already delivered.
// progressed reports whether any new event arrived before the failure.
func (c *Client) watchOnce(ctx context.Context, id string, lastID *int, fn func(*JobView)) (final *JobView, progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return nil, false, apiError(resp, data)
	}
	// bufio.Scanner would cap data lines at 64 KiB — a schedule document
	// inside a terminal view can be far larger — so read whole lines.
	br := bufio.NewReader(resp.Body)
	var data []byte
	eventID := 0
	for {
		line, rerr := br.ReadString('\n')
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "id:"):
			if n, aerr := strconv.Atoi(strings.TrimSpace(line[len("id:"):])); aerr == nil {
				eventID = n
			}
		case strings.HasPrefix(line, "data:"):
			// Per the SSE spec, consecutive data lines of one event join
			// with a newline. The server emits compact single-line JSON
			// today (see writeSSE), but the client must not depend on it.
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case line == "" && len(data) > 0:
			payload := data
			data = nil
			eid := eventID
			eventID = 0
			if eid != 0 && eid <= *lastID {
				continue // replayed on reconnect; already delivered
			}
			var v JobView
			if jerr := json.Unmarshal(payload, &v); jerr != nil {
				return nil, progressed, fmt.Errorf("%w: %v", errBadEvent, jerr)
			}
			if eid != 0 {
				*lastID = eid
			}
			progressed = true
			if fn != nil {
				fn(&v)
			}
			if v.Status.Terminal() {
				return &v, progressed, nil
			}
		}
		if rerr != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, progressed, ctxErr
			}
			return nil, progressed, rerr
		}
	}
}

// Cluster fetches replica membership and health (GET /v1/cluster).
func (c *Client) Cluster(ctx context.Context) (*ClusterView, error) {
	var out ClusterView
	if err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Algos lists the algorithms registered in the serving binary
// (GET /v1/algos).
func (c *Client) Algos(ctx context.Context) ([]AlgoInfo, error) {
	var out []AlgoInfo
	if err := c.do(ctx, http.MethodGet, "/v1/algos", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Health probes /healthz, returning nil while the service accepts work.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, true)
}

// Metrics fetches the /metrics counter document.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	var out map[string]int64
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}
