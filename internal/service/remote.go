package service

import (
	"context"
	"errors"

	"radcrit/internal/campaign"
)

// ErrRemoteUnavailable is a RemoteRunner's signal that a cell cannot be
// executed remotely right now (no healthy workers, or the fleet gave up
// after repeated lease losses). The manager reacts by degrading to local
// in-process execution — seeded from whatever checkpoint prefix the
// remote attempt streamed back — instead of stalling the queue.
var ErrRemoteUnavailable = errors.New("service: remote execution unavailable")

// RemoteCell describes one cell the manager offers to a remote executor.
// Everything a worker needs to reproduce the cell bit-identically is
// here: the cell as a one-cell plan (its spec, engine config and summary
// thresholds) and, for a cell interrupted mid-flight, the checkpoint log
// to resume from.
type RemoteCell struct {
	JobID string
	Cell  int
	// Plan is the job's plan narrowed to this cell (campaign.Plan.CellPlan):
	// exactly one cell, under the job's configuration.
	Plan *campaign.Plan
	// Key is the cell's content address (campaign.CellKey).
	Key string
	// Tenant names the namespace the owning job was submitted under; the
	// coordinator schedules pending work weighted-fairly across tenants
	// using Weight and CostNS, exactly like the local executor queue.
	Tenant string
	Weight int
	CostNS uint64
	// PrevLog is the cell's checkpoint log so far — empty for a fresh
	// cell, a salvageable #CHK-checkpointed prefix for one a previous
	// attempt (local or remote) already progressed. The runner may keep
	// the slice, so the caller must not modify it after the call.
	PrevLog []byte

	// Progress relays the cell's flushed strike count (monotonic
	// non-decreasing across the whole remote attempt, whatever worker or
	// lease produced it). May be nil.
	Progress func(strikes int)
	// SaveLog durably persists the cell's best checkpoint log so far; the
	// manager writes it to the job's cell log file, which is what lets a
	// coordinator restart — or a degrade-to-local fallback — resume from
	// the last streamed #CHK record instead of strike zero. Calls are
	// serialised by the RemoteRunner, and log is shared with it: read it,
	// never modify it. May be nil.
	SaveLog func(log []byte)
}

// RemoteResult is a remotely executed cell's outcome. Summary floats
// survive the JSON hop bit-exactly (shortest-round-trip encoding), so a
// remote summary is byte-identical to a local run of the same cell.
type RemoteResult struct {
	Info    campaign.StreamInfo
	Summary *campaign.Summary
	// Worker names the worker that produced the result (observability
	// only; never part of any bit-identity comparison).
	Worker string
}

// RemoteRunner executes cells somewhere else — radcritd's fleet
// coordinator implements it. Contract:
//
//   - A nil error means the cell ran to completion and the result is
//     authoritative (the engine is deterministic, so worker identity is
//     irrelevant).
//   - ErrRemoteUnavailable (possibly wrapped) means the fleet cannot run
//     the cell now; the caller should run it locally. Any streamed
//     checkpoint prefix has already been handed to SaveLog.
//   - ctx errors propagate as-is (the caller distinguishes cancellation
//     from failure exactly as for local execution).
//   - Any other error is the cell's own deterministic failure, reported
//     by a worker.
type RemoteRunner interface {
	RunRemote(ctx context.Context, req RemoteCell) (*RemoteResult, error)
}
