package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// cellKeyVersion stamps the canonical cell encoding. Bump it whenever the
// encoding below changes shape *or* whenever an engine change legitimately
// alters campaign outcomes (a golden-table regeneration): persisted store
// entries keyed under the old version then become unreachable instead of
// serving stale summaries.
const cellKeyVersion = "radcrit-cell-v1"

// CellKey returns the content address of one plan cell's result: a
// sha256 over a canonical encoding of everything that determines the
// cell's Summary bit pattern — the device and kernel spec as the plan
// names them, the seed, the strike budget, the base execution time, the
// facility, and the summary thresholds.
//
// Two cells with equal keys produce byte-identical summaries (the engine
// is deterministic in exactly these inputs), so a persistent result store
// can serve one cell's summary for the other — across jobs, processes and
// daemon restarts. Config.Workers and Config.StreamChunk are deliberately
// excluded: they can never change results, only wall time and checkpoint
// granularity.
//
// The key is spelled over the *spec strings*, not the resolved kernels:
// "dgemm:128" and a hypothetical alias resolving to the same kernel hash
// differently. That is the safe direction — distinct keys only cost a
// recomputation, never a wrong answer.
func CellKey(spec CellSpec, cfg Config, thresholds []float64) string {
	sum := sha256.Sum256([]byte(cellKeyPayload(spec, cfg, thresholds)))
	return hex.EncodeToString(sum[:])
}

// cellKeyPayload is the canonical pre-hash encoding behind CellKey. It is
// injective over its inputs (length-prefixed strings, hex-formatted
// floats) — FuzzCellKey round-trips it to keep that property pinned.
func cellKeyPayload(spec CellSpec, cfg Config, thresholds []float64) string {
	var b strings.Builder
	b.WriteString(cellKeyVersion)
	b.WriteByte('\n')
	keyStr(&b, "device", spec.Device)
	keyStr(&b, "kernel", spec.Kernel)
	fmt.Fprintf(&b, "seed=%d\n", cfg.Seed)
	fmt.Fprintf(&b, "strikes=%d\n", cfg.Strikes)
	// Floats are encoded as hex to make the key a function of the exact
	// bit pattern, not of a decimal rendering.
	fmt.Fprintf(&b, "base_exec_seconds=%s\n", strconv.FormatFloat(cfg.BaseExecSeconds, 'x', -1, 64))
	keyStr(&b, "facility", cfg.Facility.Name)
	b.WriteString("thresholds=")
	for i, t := range thresholds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(t, 'x', -1, 64))
	}
	b.WriteByte('\n')
	// An adaptive spec changes where a cell stops, so it is part of the
	// result's identity. The line is appended only when a spec is present:
	// every pre-adaptive key (and its persisted store entry) is unchanged.
	// The spec is keyed in normalized form so "CheckEvery: 0" under a
	// 50-strike chunk and an explicit "CheckEvery: 50" — identical stop
	// schedules — share one key. MaxEpochs is deliberately absent: it
	// bounds AdaptiveRunner's reallocation rounds and never affects a
	// single cell's summary at a given budget.
	if cfg.Adaptive != nil {
		a := cfg.Adaptive.normalized(cfg.effectiveChunk())
		fmt.Fprintf(&b, "adaptive=%s,%d,%d,%s\n",
			strconv.FormatFloat(a.TargetHalfWidth, 'x', -1, 64),
			a.MinStrikes, a.CheckEvery,
			strconv.FormatFloat(a.Alpha, 'x', -1, 64))
	}
	return b.String()
}

// keyStr writes one length-prefixed string field, so no crafted name can
// collide with another field's encoding (a device called "x\nkernel=y"
// still hashes distinctly).
func keyStr(b *strings.Builder, field, val string) {
	fmt.Fprintf(b, "%s=%d:%s\n", field, len(val), val)
}

// CellKey returns the content address of the i-th plan cell under the
// plan's effective configuration and thresholds (the form serving layers
// use: one key per cell of a submitted plan).
func (p *Plan) CellKey(i int) string {
	return CellKey(p.Cells[i], p.Config(), p.EffectiveThresholds())
}
