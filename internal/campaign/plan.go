package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"radcrit/internal/beam"
	"radcrit/internal/metrics"
	"radcrit/internal/registry"
)

// CellSpec names one experiment cell declaratively: a registered device
// ("k40", "phi") and a kernel spec ("dgemm:1024", "lavamd:19",
// "hotspot:1024x400", "clamr:512x600"). Specs are resolved through
// internal/registry, so third-party registrations are addressable from a
// plan exactly like the built-ins.
type CellSpec struct {
	Device string `json:"device"`
	Kernel string `json:"kernel"`
}

// Plan is a declarative campaign: the full experiment matrix plus the
// statistical configuration, as a plain value that validates, serialises
// to JSON and runs on any Runner. A plan is the shareable, resumable
// artifact the paper's evaluation matrix wants to be — "run these cells
// under this seed" as data rather than as five hand-rolled flag switches.
//
// The zero value is not runnable; build plans with NewPlan or LoadPlan
// and check Validate before spending compute on them.
type Plan struct {
	// Name optionally labels the plan in logs and reports.
	Name string `json:"name,omitempty"`
	// Seed is the campaign's reproducibility root (Config.Seed).
	Seed uint64 `json:"seed"`
	// Strikes is the per-cell particle-strike budget; it must be positive.
	Strikes int `json:"strikes"`
	// Cells is the experiment matrix, evaluated in order.
	Cells []CellSpec `json:"cells"`
	// Thresholds are the relative-error filters (in percent) each cell is
	// summarised under; <= 0 keeps every mismatch. Empty selects the
	// default pair {0, 2}: unfiltered and the paper's conservative filter.
	Thresholds []float64 `json:"thresholds,omitempty"`
	// Workers sizes each cell's strike pool (0 = GOMAXPROCS). Like
	// Config.Workers it can never change results, only wall time.
	Workers int `json:"workers,omitempty"`
	// StreamChunk is the streaming engine's chunk (0 =
	// DefaultStreamChunk): its checkpoint spacing and cancellation
	// granularity.
	StreamChunk int `json:"stream_chunk,omitempty"`
	// BaseExecSeconds scales a profile's RelRuntime into wall seconds
	// (0 = the default 1.0).
	BaseExecSeconds float64 `json:"base_exec_seconds,omitempty"`
	// Facility names the neutron source ("LANSCE" or "ISIS"; empty =
	// LANSCE).
	Facility string `json:"facility,omitempty"`
	// Adaptive, when present, enables sequential early stopping: cells end
	// as soon as their SDC confidence interval reaches the target
	// half-width, and AdaptiveRunner reallocates the freed strikes. Absent
	// (nil) means every cell runs its full budget, byte-identical to plans
	// predating this field.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
}

// NewPlan starts a fluent plan under the given seed and strike budget:
//
//	p := campaign.NewPlan(42, 300).
//		WithCell("k40", "dgemm:1024").
//		WithCell("phi", "dgemm:1024").
//		WithThresholds(0, 2)
func NewPlan(seed uint64, strikes int) *Plan {
	return &Plan{Seed: seed, Strikes: strikes}
}

// Named labels the plan.
func (p *Plan) Named(name string) *Plan {
	p.Name = name
	return p
}

// WithCell appends one (device, kernel) cell.
func (p *Plan) WithCell(device, kernelSpec string) *Plan {
	p.Cells = append(p.Cells, CellSpec{Device: device, Kernel: kernelSpec})
	return p
}

// WithKernelOnDevices appends one cell per device for a single kernel
// spec — the cross-architecture comparison shape of the paper's figures.
func (p *Plan) WithKernelOnDevices(kernelSpec string, devices ...string) *Plan {
	for _, d := range devices {
		p.WithCell(d, kernelSpec)
	}
	return p
}

// WithThresholds sets the summary filter thresholds (percent).
func (p *Plan) WithThresholds(ts ...float64) *Plan {
	p.Thresholds = append([]float64(nil), ts...)
	return p
}

// WithWorkers sets the per-cell worker-pool size.
func (p *Plan) WithWorkers(n int) *Plan {
	p.Workers = n
	return p
}

// WithStreamChunk sets the streaming window (and cancellation grain).
func (p *Plan) WithStreamChunk(n int) *Plan {
	p.StreamChunk = n
	return p
}

// WithAdaptive enables sequential early stopping under the given spec.
func (p *Plan) WithAdaptive(a AdaptiveSpec) *Plan {
	p.Adaptive = &a
	return p
}

// facilities are the neutron sources addressable from a plan.
var facilities = map[string]beam.Facility{
	"":       beam.LANSCE,
	"LANSCE": beam.LANSCE,
	"ISIS":   beam.ISIS,
}

// FacilityByName resolves a plan's facility name.
func FacilityByName(name string) (beam.Facility, error) {
	f, ok := facilities[name]
	if !ok {
		return beam.Facility{}, fmt.Errorf("unknown facility %q (known: LANSCE, ISIS)", name)
	}
	return f, nil
}

// Validate checks the plan without building any kernel state: unknown
// device or kernel names, malformed or out-of-range kernel params (what
// used to surface as constructor panics deep inside a run), a
// non-positive strike budget, and malformed numeric fields all come back
// as errors naming the offending cell. A valid plan is safe to hand to
// any Runner.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("plan: nil")
	}
	if p.Strikes <= 0 {
		return fmt.Errorf("plan %q: strikes must be positive, got %d", p.Name, p.Strikes)
	}
	if len(p.Cells) == 0 {
		return fmt.Errorf("plan %q: no cells", p.Name)
	}
	if p.Workers < 0 {
		return fmt.Errorf("plan %q: negative workers %d", p.Name, p.Workers)
	}
	if p.StreamChunk < 0 {
		return fmt.Errorf("plan %q: negative stream_chunk %d", p.Name, p.StreamChunk)
	}
	if p.BaseExecSeconds < 0 || math.IsNaN(p.BaseExecSeconds) || math.IsInf(p.BaseExecSeconds, 0) {
		return fmt.Errorf("plan %q: invalid base_exec_seconds %v", p.Name, p.BaseExecSeconds)
	}
	for _, t := range p.Thresholds {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("plan %q: invalid threshold %v", p.Name, t)
		}
	}
	if _, err := FacilityByName(p.Facility); err != nil {
		return fmt.Errorf("plan %q: %v", p.Name, err)
	}
	if p.Adaptive != nil {
		if err := p.Adaptive.validate(); err != nil {
			return fmt.Errorf("plan %q: adaptive: %v", p.Name, err)
		}
	}
	for i, c := range p.Cells {
		if err := registry.ValidateDevice(c.Device); err != nil {
			return fmt.Errorf("plan %q: cell %d: %w", p.Name, i, err)
		}
		if err := registry.ValidateKernel(c.Kernel); err != nil {
			return fmt.Errorf("plan %q: cell %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// Config converts the plan's statistical fields into the engine Config.
// It assumes a validated plan (an unknown facility falls back to LANSCE).
func (p *Plan) Config() Config {
	fac, err := FacilityByName(p.Facility)
	if err != nil {
		fac = beam.LANSCE
	}
	base := p.BaseExecSeconds
	if base == 0 {
		base = 1.0
	}
	cfg := Config{
		Seed:            p.Seed,
		Strikes:         p.Strikes,
		BaseExecSeconds: base,
		Facility:        fac,
		Workers:         p.Workers,
		StreamChunk:     p.StreamChunk,
	}
	if p.Adaptive != nil {
		a := *p.Adaptive
		cfg.Adaptive = &a
	}
	return cfg
}

// EffectiveThresholds returns the thresholds a Runner summarises under:
// the plan's own, or the default {0, DefaultThresholdPct} pair.
func (p *Plan) EffectiveThresholds() []float64 {
	if len(p.Thresholds) > 0 {
		return append([]float64(nil), p.Thresholds...)
	}
	return []float64{0, metrics.DefaultThresholdPct}
}

// Build resolves every cell spec into a constructed (device, kernel)
// pair, in plan order. This is where golden state is paid for; Validate
// first to fail fast.
func (p *Plan) Build() ([]Cell, error) {
	return p.BuildCtx(context.Background())
}

// BuildCtx is Build under a context: construction — the expensive phase
// for iterative kernels, whose golden simulations run here — is abandoned
// between cells once ctx is cancelled, returning ctx.Err(). A cell whose
// device or kernel fails to construct fails the build with a *CellError
// naming the cell's specs.
func (p *Plan) BuildCtx(ctx context.Context) ([]Cell, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(p.Cells))
	for i, c := range p.Cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cell, err := BuildCell(c)
		if err != nil {
			return nil, fmt.Errorf("plan %q: cell %d: %w", p.Name, i, &CellError{Device: c.Device, Kernel: c.Kernel, Err: err})
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// BuildCell resolves one cell spec in isolation — the form serving layers
// that run a plan cell by cell use, constructing exactly the cell a work
// item names. An unregistered device or kernel, or malformed kernel
// params, come back as the registry's typed errors rather than a
// construction panic.
func BuildCell(spec CellSpec) (Cell, error) {
	dev, err := registry.NewDevice(spec.Device)
	if err != nil {
		return Cell{}, err
	}
	kern, err := registry.NewKernel(spec.Kernel)
	if err != nil {
		return Cell{}, err
	}
	return Cell{Dev: dev, Kern: kern}, nil
}

// CellPlan returns the one-cell plan of cell i: p's configuration with
// Cells holding only p.Cells[i]. It is the form a cell crosses a process
// boundary in, validated by Validate and encoded by the plan's own JSON
// codec, and its CellKey(0) equals p.CellKey(i). The cell slice is capped
// at one element, so appending to it never writes into p; the other
// fields share p's Thresholds and Adaptive, which neither plan mutates.
func (p *Plan) CellPlan(i int) *Plan {
	c := *p
	c.Cells = p.Cells[i : i+1 : i+1]
	return &c
}

// planJSON mirrors Plan for the custom (un)marshallers: the alias drops
// the methods, avoiding recursion while keeping one set of field tags.
type planJSON Plan

// MarshalJSON implements json.Marshaler.
func (p *Plan) MarshalJSON() ([]byte, error) {
	return json.Marshal((*planJSON)(p))
}

// UnmarshalJSON implements json.Unmarshaler strictly: unknown fields are
// an error, so a typo in a hand-written plan ("strike" for "strikes")
// fails loudly instead of silently running a default campaign.
func (p *Plan) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var a planJSON
	if err := dec.Decode(&a); err != nil {
		return err
	}
	if len(a.Thresholds) == 0 {
		// Normalise "thresholds": [] to absent so save/load round-trips
		// (omitempty drops the empty slice on the way out).
		a.Thresholds = nil
	}
	*p = Plan(a)
	return nil
}

// LoadPlan reads and validates a JSON plan. Trailing garbage after the
// plan object is rejected.
func LoadPlan(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("plan: trailing data after plan object")
	}
	p := &Plan{}
	if err := p.UnmarshalJSON(raw); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// SavePlan validates p and writes it as indented JSON, the on-disk form
// LoadPlan reads back. Round-tripping is lossless: LoadPlan(SavePlan(p))
// yields a plan equal to p.
func SavePlan(w io.Writer, p *Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
