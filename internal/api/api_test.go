package api

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/service"
)

// goldenPlanJSON mirrors the campaign package's frozen seed-42/300-strike
// experiment matrix: the acceptance anchor for end-to-end bit-identity
// through the HTTP surface.
const goldenPlanJSON = `{
  "name": "golden",
  "seed": 42,
  "strikes": 300,
  "thresholds": [0, 1],
  "cells": [
    {"device": "k40", "kernel": "dgemm:128"},
    {"device": "k40", "kernel": "lavamd:4"},
    {"device": "k40", "kernel": "hotspot:64x80"},
    {"device": "k40", "kernel": "clamr:48x60"},
    {"device": "phi", "kernel": "dgemm:128"},
    {"device": "phi", "kernel": "lavamd:3"},
    {"device": "phi", "kernel": "hotspot:64x80"},
    {"device": "phi", "kernel": "clamr:48x60"}
  ]
}`

// testDaemon is one daemon incarnation: a manager plus its HTTP front.
type testDaemon struct {
	m   *service.Manager
	srv *httptest.Server
	c   *Client
}

func startDaemon(t *testing.T, stateDir string) *testDaemon {
	t.Helper()
	m, err := service.New(service.Options{StateDir: stateDir, Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	srv := httptest.NewServer(New(m, "test-build"))
	return &testDaemon{m: m, srv: srv, c: NewClient(srv.URL)}
}

func (d *testDaemon) stop(t *testing.T) {
	t.Helper()
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func loadGoldenPlan(t *testing.T) *campaign.Plan {
	t.Helper()
	p, err := campaign.LoadPlan(strings.NewReader(goldenPlanJSON))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// summariesJSON extracts the byte-comparison form of a result: spec,
// info and summary per cell — the payload the bit-identity contract is
// about (scheduling metadata like cached/resumed legitimately differs
// between cold and warm runs).
func summariesJSON(t *testing.T, cells []service.CellResult) string {
	t.Helper()
	type cell struct {
		Spec    campaign.CellSpec    `json:"spec"`
		Info    *campaign.StreamInfo `json:"info"`
		Summary *campaign.Summary    `json:"summary"`
	}
	out := make([]cell, 0, len(cells))
	for _, c := range cells {
		out = append(out, cell{Spec: c.Spec, Info: c.Info, Summary: c.Summary})
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEndToEndGoldenBitIdentity is the PR's acceptance criterion: the
// frozen golden plan submitted over HTTP returns per-cell summaries
// byte-identical to StreamRunner run in-process — on a cold store, on a
// warm (fully deduplicated) store, and from a fresh daemon incarnation
// reusing the first one's store across a restart.
// mustGet builds a GET request for url.
func mustGet(t *testing.T, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// doJSON sends req, requires a 200 and decodes the JSON body into v.
func doJSON(t *testing.T, req *http.Request, v any) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndGoldenBitIdentity(t *testing.T) {
	plan := loadGoldenPlan(t)
	direct, err := (&campaign.StreamRunner{}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	want := summariesJSON(t, service.ResultFromPlan("direct", direct).Cells)

	dir := t.TempDir()
	d := startDaemon(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	cold, err := d.c.Run(ctx, plan, 0)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.State != service.StateDone || len(cold.Cells) != 8 {
		t.Fatalf("cold run state %s with %d cells", cold.State, len(cold.Cells))
	}
	for i, c := range cold.Cells {
		if c.Cached {
			t.Errorf("cold cell %d claims a cache hit", i)
		}
	}
	if got := summariesJSON(t, cold.Cells); got != want {
		t.Errorf("cold-store summaries differ from in-process StreamRunner")
	}

	warm, err := d.c.Run(ctx, plan, 0)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	for i, c := range warm.Cells {
		if !c.Cached {
			t.Errorf("warm cell %d was recomputed", i)
		}
	}
	if got := summariesJSON(t, warm.Cells); got != want {
		t.Errorf("warm-store summaries differ from in-process StreamRunner")
	}
	d.stop(t)

	// Daemon restart: a fresh incarnation serves the whole plan from the
	// persisted store.
	d2 := startDaemon(t, dir)
	defer d2.stop(t)
	again, err := d2.c.Run(ctx, plan, 0)
	if err != nil {
		t.Fatalf("post-restart run: %v", err)
	}
	for i, c := range again.Cells {
		if !c.Cached {
			t.Errorf("post-restart cell %d was recomputed", i)
		}
	}
	if got := summariesJSON(t, again.Cells); got != want {
		t.Errorf("post-restart summaries differ from in-process StreamRunner")
	}
}

// TestAPIErrorsAndLifecycle exercises the non-happy paths: strict plan
// decoding, unknown jobs, result-before-finish, cancellation, registry
// and version endpoints.
func TestAPIErrorsAndLifecycle(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	defer d.stop(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	post := func(body string) *http.Response {
		resp, err := http.Post(d.srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// A typo'd field must be rejected by the strict decoder, not run as a
	// default campaign.
	resp := post(`{"seed": 1, "strike": 10, "cells": [{"device": "k40", "kernel": "dgemm:128"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("typo'd plan: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(`{"seed": 1, "strikes": 10, "cells": [{"device": "k41", "kernel": "dgemm:128"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown device: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	if resp, err := http.Get(d.srv.URL + "/v1/jobs/j-doesnotexist"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status of unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	if _, err := d.c.Result(ctx, "j-doesnotexist"); err == nil {
		t.Errorf("result of unknown job did not error")
	}

	// A long job: result while running is ErrNotFinished (202), then a
	// cancel lands it in cancelled.
	long := campaign.NewPlan(7, 500_000).
		WithCell("k40", "dgemm:128").WithWorkers(1).WithStreamChunk(64)
	snap, err := d.c.Submit(ctx, long, 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Priority != 3 || snap.State != service.StateQueued {
		t.Errorf("submitted snapshot = %+v", snap)
	}
	if _, err := d.c.Result(ctx, snap.ID); err != service.ErrNotFinished {
		t.Errorf("result of running job = %v, want ErrNotFinished", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, d.srv.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled service.Snapshot
	doJSON(t, req, &cancelled)
	if cancelled.ID != snap.ID {
		t.Errorf("cancel answered for job %q, want %q", cancelled.ID, snap.ID)
	}
	if err := d.c.Events(ctx, snap.ID, func(ClientEvent) {}); err != nil {
		t.Fatal(err)
	}
	var final service.Snapshot
	doJSON(t, mustGet(t, d.srv.URL+"/v1/jobs/"+snap.ID), &final)
	if final.State != service.StateCancelled {
		t.Errorf("cancelled job state = %s", final.State)
	}

	// Discovery endpoints.
	var reg RegistryInfo
	doJSON(t, mustGet(t, d.srv.URL+"/v1/registry"), &reg)
	if len(reg.Devices) < 2 || len(reg.Kernels) < 4 {
		t.Errorf("registry = %+v", reg)
	}
	if reg.Devices[0].Name != "k40" || reg.Devices[0].Help == "" {
		t.Errorf("device info = %+v", reg.Devices[0])
	}
	var vi VersionInfo
	doJSON(t, mustGet(t, d.srv.URL+"/v1/version"), &vi)
	if vi.Version != "test-build" || !strings.HasPrefix(vi.Go, "go") {
		t.Errorf("version = %+v", vi)
	}

	// Job listing includes what we just ran, plus the scheduling picture:
	// per-state counts and per-tenant stats (the default tenant at least).
	var listed JobsList
	lresp, err := http.Get(d.srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listed.Jobs) == 0 {
		t.Errorf("job list is empty")
	}
	if listed.States[service.StateCancelled] == 0 {
		t.Errorf("state counts missing cancelled job: %v", listed.States)
	}
	foundDefault := false
	for _, ts := range listed.Tenants {
		if ts.Tenant == "default" {
			foundDefault = true
		}
	}
	if !foundDefault {
		t.Errorf("tenant stats missing default tenant: %+v", listed.Tenants)
	}
}

// TestSSEEvents follows a short job's event stream: an initial status
// event, live chunk progress, and a terminal state event that ends the
// stream.
func TestSSEEvents(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	defer d.stop(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	plan := campaign.NewPlan(42, 200).
		WithCell("k40", "dgemm:128").WithWorkers(1).WithStreamChunk(32)
	snap, err := d.c.Submit(ctx, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		d.srv.URL+"/v1/jobs/"+snap.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var sawStatus, sawChunk, sawTerminal bool
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "status":
				sawStatus = true
			case "chunk":
				var ev service.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad chunk event %q: %v", data, err)
				}
				if ev.Done > 0 && ev.Total == 200 {
					sawChunk = true
				}
			case "state":
				var ev service.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad state event %q: %v", data, err)
				}
				if ev.State == service.StateDone {
					sawTerminal = true
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !sawStatus || !sawChunk || !sawTerminal {
		t.Errorf("stream saw status=%v chunk=%v terminal=%v; want all", sawStatus, sawChunk, sawTerminal)
	}
}
