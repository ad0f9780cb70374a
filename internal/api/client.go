package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/service"
)

// Client is the Go face of the v1 API — what beamsim/figures -submit and
// the CI smoke use to run campaigns against a daemon instead of
// in-process.
type Client struct {
	// Base is the daemon address ("http://127.0.0.1:8447"); a bare
	// host:port is promoted to http.
	Base string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Timeout bounds each individual request attempt (not the whole
	// retried call, whose budget is the caller's ctx). 0 means no
	// per-attempt deadline beyond ctx's. Event streams are exempt.
	Timeout time.Duration
	// Retries is the number of extra attempts after a transient failure —
	// a transport error, a 5xx, or a 429. 0 selects the default (3);
	// negative disables retrying. GET and DELETE retry on any transient
	// failure; POST retries only when the connection never reached the
	// server (a dial error) or when the server answered 429 — an explicit
	// rejection before any work, so a submit is never accidentally
	// doubled.
	Retries int
	// RetryBase is the first backoff delay, doubled per attempt with
	// jitter (default 200ms).
	RetryBase time.Duration
	// RetryMax caps every retry delay: the exponential backoff and any
	// server-provided Retry-After alike (default 5s). A 429 carrying a
	// Retry-After header waits the server's estimate — it knows the
	// tenant's backlog — instead of blind backoff, clamped to this cap.
	RetryMax time.Duration
	// Tenant, when set, is sent as the X-Radcrit-Tenant header on every
	// request (trusted-network tenant addressing). Ignored when Token is
	// set.
	Tenant string
	// Token, when set, authenticates every request as its registered
	// tenant via an Authorization: Bearer header.
	Token string

	// sleep overrides the retry delay (tests inject a fake clock).
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient normalises addr into a Client.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// authHeaders stamps the client's tenant identity onto a request.
func (c *Client) authHeaders(req *http.Request) {
	switch {
	case c.Token != "":
		req.Header.Set("Authorization", "Bearer "+c.Token)
	case c.Tenant != "":
		req.Header.Set(TenantHeader, c.Tenant)
	}
}

// attempt issues one request under the per-attempt timeout and returns
// the status, body and any server-provided Retry-After hint. A nil
// error with a non-2xx status is a protocol answer; an error is
// transport failure.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (int, []byte, time.Duration, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authHeaders(req)
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, nil, retryAfter, err
	}
	return resp.StatusCode, data, retryAfter, nil
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header
// (the only form the daemon emits). Malformed or absent values yield 0.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryMax is the cap on any single retry delay.
func (c *Client) retryMax() time.Duration {
	if c.RetryMax > 0 {
		return c.RetryMax
	}
	return 5 * time.Second
}

// sleepRetry waits one retry delay (or the fake clock stands in).
func (c *Client) sleepRetry(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// fetch is attempt under the client's retry policy: transient failures
// (transport errors, 5xx, 429) back off exponentially with jitter and
// retry, within the caller's ctx. POST only retries dial errors and
// explicit 429 rejections — if the request may have reached the server
// and been acted on, retrying could double it. A 429 whose Retry-After
// header names a delay waits exactly that long (clamped to RetryMax,
// no jitter — the server's backlog estimate already spreads tenants)
// instead of blind exponential backoff.
func (c *Client) fetch(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	retries := c.Retries
	switch {
	case retries == 0:
		retries = 3
	case retries < 0:
		retries = 0
	}
	base := c.RetryBase
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		status, data, retryAfter, err := c.attempt(ctx, method, path, body)
		if !retriable(method, status, err) || attempt >= retries || ctx.Err() != nil {
			return status, data, err
		}
		delay := base << attempt
		if delay > c.retryMax() {
			delay = c.retryMax()
		}
		// Jitter over [delay/2, delay) so a fleet of clients recovering
		// from the same blip does not retry in lockstep.
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		if status == http.StatusTooManyRequests && retryAfter > 0 {
			delay = retryAfter
			if delay > c.retryMax() {
				delay = c.retryMax()
			}
		}
		if c.sleepRetry(ctx, delay) != nil {
			return status, data, err
		}
	}
}

// retriable classifies one attempt's outcome under the retry policy.
func retriable(method string, status int, err error) bool {
	idempotent := method == http.MethodGet || method == http.MethodDelete
	if err != nil {
		if idempotent {
			return true
		}
		// The connection never reached the server: safe for any method.
		var opErr *net.OpError
		return errors.As(err, &opErr) && opErr.Op == "dial"
	}
	if status == http.StatusTooManyRequests {
		// Admission control rejected the request before any work — safe
		// to retry whatever the method.
		return true
	}
	return idempotent && status >= 500
}

// do issues a (retried) request and decodes the JSON response into out,
// turning non-2xx statuses into errors carrying the server's message.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	status, data, err := c.fetch(ctx, method, path, body)
	if err != nil {
		return status, fmt.Errorf("api: %w", err)
	}
	if status >= 400 {
		var ae apiError
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			return status, fmt.Errorf("api: %s %s: HTTP %d: %s", method, path, status, ae.Error)
		}
		return status, fmt.Errorf("api: %s %s: HTTP %d", method, path, status)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return status, fmt.Errorf("api: decode %s: %w", path, err)
		}
	}
	return status, nil
}

// Submit posts a plan at the given priority and returns the new job.
func (c *Client) Submit(ctx context.Context, p *campaign.Plan, priority int) (service.Snapshot, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return service.Snapshot{}, fmt.Errorf("api: %w", err)
	}
	path := "/v1/jobs"
	if priority != 0 {
		path += "?priority=" + url.QueryEscape(strconv.Itoa(priority))
	}
	var snap service.Snapshot
	_, err = c.do(ctx, http.MethodPost, path, data, &snap)
	return snap, err
}

// Result fetches a finished job's summaries. While the job is still
// queued or running it returns service.ErrNotFinished.
func (c *Client) Result(ctx context.Context, id string) (*service.JobResult, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/result"
	status, data, err := c.fetch(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	switch {
	case status == http.StatusAccepted:
		return nil, service.ErrNotFinished
	case status >= 400:
		var ae apiError
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			return nil, fmt.Errorf("api: GET %s: HTTP %d: %s", path, status, ae.Error)
		}
		return nil, fmt.Errorf("api: GET %s: HTTP %d", path, status)
	}
	var jr service.JobResult
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, fmt.Errorf("api: decode result: %w", err)
	}
	return &jr, nil
}

// Tenants fetches the daemon's per-tenant scheduling stats — the
// fairness observability radload samples mid-drain.
func (c *Client) Tenants(ctx context.Context) ([]service.TenantStat, error) {
	var stats []service.TenantStat
	_, err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &stats)
	return stats, err
}

// List fetches the jobs listing: snapshots plus per-state counts and
// per-tenant queue depths.
func (c *Client) List(ctx context.Context) (JobsList, error) {
	var jl JobsList
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &jl)
	return jl, err
}

// ClientEvent is one frame of a job's SSE event stream as the client
// surfaces it.
type ClientEvent struct {
	// Type is the SSE event name: "status" (full snapshot), "state",
	// "cell", "chunk" — or the synthetic "reconnected", emitted locally
	// after the stream is re-established following a drop.
	Type string
	// Data is the frame's JSON payload: a service.Snapshot for "status",
	// a service.Event otherwise, nil for "reconnected".
	Data json.RawMessage
}

// Events follows a job's SSE progress stream, delivering every frame to
// onEvent. A dropped connection reconnects with jittered exponential
// backoff, presenting the standard Last-Event-ID header so the server
// replays missed events from its ring; after each successful reconnect
// a synthetic "reconnected" frame is delivered first, so a consumer
// knows its view may have gapped (the ring holds a bounded backlog).
// Events returns nil once the job reaches a terminal state, ctx's error
// on cancellation, and a non-retriable server answer (404, 400) as an
// error.
func (c *Client) Events(ctx context.Context, id string, onEvent func(ClientEvent)) error {
	var lastID string
	backoff := 200 * time.Millisecond
	connected := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		terminal, established, err := c.streamEvents(ctx, id, &lastID, connected, onEvent)
		if terminal {
			return nil
		}
		if err != nil {
			var fatal *fatalStreamError
			if errors.As(err, &fatal) {
				return fatal.err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		if established {
			connected = true
			backoff = 200 * time.Millisecond
		}
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// fatalStreamError marks a server answer reconnecting cannot fix.
type fatalStreamError struct{ err error }

func (e *fatalStreamError) Error() string { return e.err.Error() }

// streamEvents runs one connection of the event stream. It reports
// whether the job reached a terminal state (the clean end) and whether
// the stream was established at all (HTTP 200).
func (c *Client) streamEvents(ctx context.Context, id string, lastID *string, reconnected bool, onEvent func(ClientEvent)) (terminal, established bool, _ error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return false, false, &fatalStreamError{err: fmt.Errorf("api: %w", err)}
	}
	req.Header.Set("Accept", "text/event-stream")
	c.authHeaders(req)
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		err := fmt.Errorf("api: events: HTTP %d", resp.StatusCode)
		var ae apiError
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			err = fmt.Errorf("api: events: HTTP %d: %s", resp.StatusCode, ae.Error)
		}
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return false, false, err // transient: reconnect
		}
		return false, false, &fatalStreamError{err: err}
	}
	if reconnected {
		onEvent(ClientEvent{Type: "reconnected"})
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data, id_ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || data != "" {
				if id_ != "" {
					*lastID = id_
				}
				ev := ClientEvent{Type: event, Data: json.RawMessage(data)}
				onEvent(ev)
				if terminalFrame(ev) {
					return true, true, nil
				}
			}
			event, data, id_ = "", "", ""
		case strings.HasPrefix(line, "id: "):
			id_ = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
	if err := sc.Err(); err != nil {
		return false, true, err
	}
	return false, true, io.ErrUnexpectedEOF // server closed without a terminal state
}

// terminalFrame reports whether a frame announces the job's terminal
// state, ending the stream cleanly.
func terminalFrame(ev ClientEvent) bool {
	switch ev.Type {
	case "status":
		var snap service.Snapshot
		return json.Unmarshal(ev.Data, &snap) == nil && snap.State.Terminal()
	case "state":
		var sev service.Event
		return json.Unmarshal(ev.Data, &sev) == nil && sev.State.Terminal()
	}
	return false
}

// Run is the whole client workflow: submit, follow the job's event
// stream to its terminal state, fetch the result.
func (c *Client) Run(ctx context.Context, p *campaign.Plan, priority int) (*service.JobResult, error) {
	snap, err := c.Submit(ctx, p, priority)
	if err != nil {
		return nil, err
	}
	if err := c.Events(ctx, snap.ID, func(ClientEvent) {}); err != nil {
		return nil, err
	}
	return c.Result(ctx, snap.ID)
}
