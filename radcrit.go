// Package radcrit reproduces "Radiation-Induced Error Criticality in
// Modern HPC Parallel Accelerators" (Oliveira et al., HPCA 2017) as a Go
// library: behavioural models of the NVIDIA K40 and Intel Xeon Phi 3120A,
// a neutron-beam campaign simulator substituting for LANSCE/ISIS beam
// time, real implementations of the paper's four workloads (DGEMM,
// LavaMD, HotSpot, and a from-scratch CLAMR-equivalent shallow-water AMR
// solver), and the paper's error-criticality methodology: incorrect-
// element counts, relative error, mean relative error and spatial
// locality under an imprecise-computing tolerance filter.
//
// This package is the public facade, and the examples use nothing else.
// The heavy lifting lives in internal/ packages (one per subsystem, see
// DESIGN.md), which the cmd/ tools also import directly.
//
// Quick start — a campaign is a declarative Plan executed by a Runner:
//
//	plan := radcrit.NewPlan(42, 500).
//		WithKernelOnDevices("dgemm:1024", "k40", "phi").
//		WithThresholds(0, 2)
//	res, err := radcrit.NewStreamRunner().Run(ctx, plan)
//	if err != nil { ... }
//	for _, cell := range res.Cells {
//		fmt.Println(cell.Info.Device, cell.Summary.SDCFIT)
//	}
//
// Every analysis is a reducer over the one outcome stream. For a
// criticality profile, a hardening plan, ABFT coverage or a rendered
// figure, run each cell of plan.Build() through RunCampaignStreaming with
// the matching reducers (NewSummaryAccumulator, NewCriticalityReducer,
// NewHardeningReducer, NewABFTReducer); no report outlives its strike.
// The public campaign log is the streamed checkpoint log: attach
// NewCampaignLogWriter to RunCampaignStreaming, or set an
// AdaptiveRunner's Logs hook.
//
// Plans serialise to JSON (LoadPlan/SavePlan), so the same campaign is a
// shareable artifact, a CLI argument (-plan plan.json on every cmd/
// tool), and — eventually — a serving-layer request body. Devices and
// kernels are addressed by registry name ("k40", "dgemm:1024",
// "hotspot:1024x400"), built with NewDevice and NewKernel; third-party
// scenarios join via RegisterDevice / RegisterKernel.
package radcrit

import (
	"context"
	"io"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/core"
	"radcrit/internal/harden"
	"radcrit/internal/kernels"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
	"radcrit/internal/registry"
	"radcrit/internal/report"
)

// Re-exported core types. Aliases keep the public surface thin while the
// implementation stays in internal packages.
type (
	// Device is an accelerator model.
	Device = arch.Device
	// Kernel is one benchmark workload at one input configuration.
	Kernel = kernels.Kernel
	// Config controls a campaign's statistical weight.
	Config = campaign.Config
	// Report is one execution's output-mismatch report.
	Report = metrics.Report
	// Criticality is the aggregate criticality profile (the paper's §III
	// methodology applied to a set of runs).
	Criticality = core.Criticality
	// AnalysisOptions configure the threshold filter and display caps.
	AnalysisOptions = core.Options
	// Log is the CAROL-style public campaign log.
	Log = logdata.Log

	// Sink consumes strike outcomes in index order during a streaming
	// campaign (DESIGN.md §6). Outcome reports are only valid during the
	// Consume call — the engine recycles them afterwards (DESIGN.md §8);
	// Clone a report to retain it.
	Sink = campaign.Sink
	// StreamInfo is the cell metadata a streaming campaign yields next to
	// its reducers' state: identity, profile and beam exposure.
	StreamInfo = campaign.StreamInfo
	// SummaryAccumulator folds a cell's outcome stream into its Summary
	// under a set of thresholds: the tally, SDC FIT, locality breakdown
	// and filter-cleared share every Runner reports.
	SummaryAccumulator = campaign.SummaryAccumulator
	// ABFTReducer classifies SDCs against ABFT's correction capability.
	ABFTReducer = campaign.ABFTReducer
	// CriticalityReducer applies the §III criticality methodology online.
	CriticalityReducer = core.Analyzer
	// HardeningReducer counts critical SDCs per struck resource (§VI).
	HardeningReducer = harden.Reducer
	// CheckpointSink streams events into a resumable campaign log.
	CheckpointSink = campaign.CheckpointSink

	// Plan is a declarative, serialisable campaign: named cells plus the
	// statistical configuration, validated before any compute is spent.
	Plan = campaign.Plan
	// CellSpec names one plan cell by registry names.
	CellSpec = campaign.CellSpec
	// Runner executes a validated plan under a context.
	Runner = campaign.Runner
	// PlanResult is a Runner's per-cell record of one plan execution.
	PlanResult = campaign.PlanResult
	// CellOutcome is one plan cell's execution record.
	CellOutcome = campaign.CellOutcome
	// Summary is a cell's statistics under the plan's thresholds, folded
	// by a SummaryAccumulator.
	Summary = campaign.Summary
	// Progress carries a Runner's optional OnCell/OnChunk hooks.
	Progress = campaign.Progress
	// AdaptiveSpec configures sequential early stopping: stop a cell once
	// the anytime-valid confidence interval for its SDC proportion is
	// tighter than the target half-width (attach with Plan.WithAdaptive).
	AdaptiveSpec = campaign.AdaptiveSpec
	// CellError is the typed failure of one experiment cell.
	CellError = campaign.CellError

	// DeviceFactory constructs a registered device by name.
	DeviceFactory = registry.DeviceFactory
	// KernelEntry describes a registered kernel family (validation
	// separate from construction, so plan validation never builds golden
	// state).
	KernelEntry = registry.KernelEntry
)

// DefaultThresholdPct is the paper's conservative 2% relative-error filter.
const DefaultThresholdPct = metrics.DefaultThresholdPct

// --- Declarative plans, registries and runners ---

// NewPlan starts a fluent campaign plan under seed with a per-cell strike
// budget; add cells with WithCell/WithKernelOnDevices and hand it to a
// Runner.
func NewPlan(seed uint64, strikes int) *Plan { return campaign.NewPlan(seed, strikes) }

// LoadPlan reads and validates a JSON campaign plan.
func LoadPlan(r io.Reader) (*Plan, error) { return campaign.LoadPlan(r) }

// SavePlan validates p and writes it as indented JSON.
func SavePlan(w io.Writer, p *Plan) error { return campaign.SavePlan(w, p) }

// NewStreamRunner returns the bounded-memory streaming engine as a
// Runner: summaries come from online reducers and no reports are
// retained. It is the plan loop capped at one budget epoch: cells of an
// adaptive plan stop early but the strikes they free are never re-dealt,
// so each cell reports what the daemon reports for it. OnCell(i) fires
// as soon as cell i ends, before cell i+1 starts.
func NewStreamRunner() *campaign.StreamRunner { return &campaign.StreamRunner{} }

// NewAdaptiveRunner returns the early-stopping campaign engine as a
// Runner: cells of a plan carrying an AdaptiveSpec stop as soon as their
// confidence target is met, freed strikes are re-dealt to the cells with
// the widest intervals, and every summary stays byte-identical to a
// straight run with the same consumed strike count. It runs the same
// plan loop as NewStreamRunner, without the one-epoch cap and with the
// Logs hook. A plan without a spec runs each cell once at the plan's
// budget, with StreamRunner's outcomes. Either way, its Logs hook
// receives each cell's checkpoint log, and OnCell fires once per cell as
// soon as that cell's outcome is final.
func NewAdaptiveRunner() *campaign.AdaptiveRunner { return &campaign.AdaptiveRunner{} }

// RegisterDevice registers a device factory under name, making it
// addressable from plans and every cmd/ tool.
func RegisterDevice(name string, f DeviceFactory) { registry.RegisterDevice(name, f) }

// RegisterKernel registers a kernel family under name, making specs like
// "name:params" addressable from plans and every cmd/ tool.
func RegisterKernel(name string, e KernelEntry) { registry.RegisterKernel(name, e) }

// NewDevice constructs a registered device by name ("k40", "phi").
func NewDevice(name string) (Device, error) { return registry.NewDevice(name) }

// NewKernel constructs a registered kernel from a spec ("dgemm:1024",
// "lavamd:19", "hotspot:1024x400", "clamr:512x600").
func NewKernel(spec string) (Kernel, error) { return registry.NewKernel(spec) }

// SplitKernelSpec splits "name:params" into its parts.
func SplitKernelSpec(spec string) (name, params string) { return registry.SplitSpec(spec) }

// RunCampaignStreaming simulates a beam campaign cell: cfg.Strikes
// strikes of kern on dev, each resolved by the device architecture and
// propagated through the kernel's real computation. Every outcome is fed
// to the sinks in strike-index order and then dropped, so memory stays
// O(window + reducer state) however many strikes — or SDCs — the cell
// produces. The outcome stream, and so every reducer, is bit-identical
// for any worker count (DESIGN.md §6).
func RunCampaignStreaming(dev Device, kern Kernel, cfg Config, sinks ...Sink) (StreamInfo, error) {
	return campaign.RunStreamingCtx(context.Background(), dev, kern, cfg, sinks...)
}

// NewSummaryAccumulator returns a streaming cell summary under the given
// relative-error thresholds (a threshold <= 0 counts every SDC); read it
// with its Summary method once the cell has run.
func NewSummaryAccumulator(thresholds []float64) *SummaryAccumulator {
	return campaign.NewSummaryAccumulator(thresholds)
}

// NewABFTReducer returns a streaming ABFT coverage classifier.
func NewABFTReducer() *ABFTReducer { return campaign.NewABFTReducer() }

// NewCriticalityReducer returns a streaming criticality analysis under
// opts; its Criticality equals AnalyzeLog over the same cell's log.
func NewCriticalityReducer(opts AnalysisOptions) *CriticalityReducer {
	return core.NewAnalyzer(opts)
}

// NewHardeningReducer returns a streaming per-resource critical-SDC
// counter for AdviseHardening.
func NewHardeningReducer(thresholdPct float64) *HardeningReducer {
	return harden.NewReducer(thresholdPct)
}

// NewCampaignLogWriter starts a checkpointed streaming campaign log for
// one cell: pass the returned sink to RunCampaignStreaming, then Close it.
func NewCampaignLogWriter(w io.Writer, dev Device, kern Kernel, cfg Config) (*CheckpointSink, error) {
	info, err := campaign.CellInfo(dev, kern, cfg)
	if err != nil {
		return nil, err
	}
	return campaign.NewCheckpointSink(w, info, cfg.Seed)
}

// AnalyzeLog re-analyses a parsed campaign log with a chosen filter — the
// third-party re-analysis path the paper enables by publishing raw logs.
func AnalyzeLog(l *Log, opts AnalysisOptions) *Criticality {
	return core.AnalyzeLog(l, opts)
}

// DefaultAnalysisOptions returns the paper's conservative configuration
// (2% threshold, no display cap).
func DefaultAnalysisOptions() AnalysisOptions { return core.DefaultOptions() }

// ParseLog strictly reads a complete campaign log, as a CheckpointSink
// (NewCampaignLogWriter) or a Runner's log hook writes it; the first
// malformed or inconsistent line is an error.
func ParseLog(r io.Reader) (*Log, error) { return logdata.Parse(r) }

// RenderLocality renders a Figure-3/5/7 style FIT-by-locality bar pair
// for the campaign cell info describes, from its summary under the
// thresholds {0, t}: the unfiltered breakdown and the one above t.
func RenderLocality(w io.Writer, info StreamInfo, sum *Summary) {
	f := campaign.LocalityFigure{
		Device:       info.Device,
		Kernel:       info.Kernel,
		ThresholdPct: sum.Thresholds[1],
		Bars:         []campaign.LocalityBar{sum.LocalityBar(info.Input)},
	}
	report.LocalityBars(w, f, 60)
}

// Verdict phrases the cross-architecture criticality comparison of two
// analyses, mirroring §V-E's trade-off discussion.
func Verdict(nameA string, a *Criticality, nameB string, b *Criticality) string {
	return core.Verdict(nameA, a, nameB, b)
}

// HardeningAdvice is a ranked selective-hardening plan: the paper's §VI
// future work ("apply selective hardening to only those ... resources
// whose corruption is likely to produce the observed critical errors").
type HardeningAdvice = harden.Advice

// AdviseHardening ranks the resources behind the critical SDCs a
// HardeningReducer counted in the campaign cell info describes, and
// projects the benefit of hardening each cumulatively.
func AdviseHardening(info StreamInfo, r *HardeningReducer) HardeningAdvice {
	return r.Advise(info.Device, info.Kernel, info.Input)
}
