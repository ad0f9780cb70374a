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
// This package is the public facade; examples and the regeneration
// commands use it exclusively. The heavy lifting lives in internal/
// packages (one per subsystem, see DESIGN.md).
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
// the matching reducers (NewCriticalityReducer, NewHardeningReducer,
// NewABFTReducer, NewScatterReducer, ...); no report outlives its strike.
// The public campaign log is the streamed checkpoint log: attach
// NewCampaignLogWriter to RunCampaignStreaming, or set an
// AdaptiveRunner's Logs hook.
//
// Plans serialise to JSON (LoadPlan/SavePlan), so the same campaign is a
// shareable artifact, a CLI argument (-plan plan.json on every cmd/
// tool), and — eventually — a serving-layer request body. Devices and
// kernels are addressed by registry name ("k40", "dgemm:1024",
// "hotspot:1024x400"); third-party scenarios join via RegisterDevice /
// RegisterKernel. The pre-plan constructors (K40, NewDGEMM,
// RunCampaignStreaming, ...) remain as thin wrappers for programmatic use.
package radcrit

import (
	"context"
	"io"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/core"
	"radcrit/internal/harden"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/clamr"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/hotspot"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
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
	// Scale selects paper-scale or test-scale experiment sizing.
	Scale = campaign.Scale

	// Sink consumes strike outcomes in index order during a streaming
	// campaign (DESIGN.md §6). Outcome reports are only valid during the
	// Consume call — the engine recycles them afterwards (DESIGN.md §8);
	// Clone a report to retain it.
	Sink = campaign.Sink
	// StreamInfo is the cell metadata a streaming campaign yields next to
	// its reducers' state: identity, profile and beam exposure.
	StreamInfo = campaign.StreamInfo
	// TallyReducer accumulates the outcome tally online.
	TallyReducer = campaign.TallyReducer
	// SDCCountReducer counts threshold-surviving SDCs online (SDC FIT).
	SDCCountReducer = campaign.SDCCountReducer
	// LocalityReducer accumulates the spatial-pattern breakdown online.
	LocalityReducer = campaign.LocalityReducer
	// FilteredFractionReducer tracks the filter-cleared SDC share online.
	FilteredFractionReducer = campaign.FilteredFractionReducer
	// ScatterReducer keeps a bounded reservoir of scatter points.
	ScatterReducer = campaign.ScatterReducer
	// ABFTReducer classifies SDCs against ABFT's correction capability.
	ABFTReducer = campaign.ABFTReducer
	// CriticalityReducer applies the §III criticality methodology online.
	CriticalityReducer = core.Analyzer
	// HardeningReducer counts critical SDCs per struck resource (§VI).
	HardeningReducer = harden.Reducer
	// CheckpointSink streams events into a resumable campaign log.
	CheckpointSink = campaign.CheckpointSink
	// LogResume is the recoverable state of a truncated streamed log.
	LogResume = logdata.Resume

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
	// by the same online reducers the facade exports.
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

// Experiment scales.
const (
	TestScale  = campaign.TestScale
	PaperScale = campaign.PaperScale
)

// DefaultThresholdPct is the paper's conservative 2% relative-error filter.
const DefaultThresholdPct = metrics.DefaultThresholdPct

// K40 returns the NVIDIA Tesla K40 (Kepler GK110b) model.
func K40() Device { return k40.New() }

// XeonPhi returns the Intel Xeon Phi 3120A (Knights Corner) model.
func XeonPhi() Device { return phi.New() }

// Devices returns both tested accelerators.
func Devices() []Device { return campaign.Devices() }

// NewDGEMM returns an n x n matrix-multiplication kernel (Table II sweeps
// 1024 through 8192).
func NewDGEMM(n int) *dgemm.Kernel { return dgemm.New(n) }

// NewLavaMD returns a particle-interaction kernel over g boxes per
// dimension (Table II uses 13, 15, 19, 23).
func NewLavaMD(g int) *lavamd.Kernel { return lavamd.New(g) }

// NewHotSpot returns the 2D thermal stencil (Table II: 1024x1024).
// Construction runs the golden simulation once.
func NewHotSpot(side, iters int) *hotspot.Kernel { return hotspot.New(side, iters) }

// NewCLAMR returns the shallow-water AMR dam-break kernel substituting for
// LANL's proprietary CLAMR (Table II: 512x512). Construction runs the
// golden simulation once.
func NewCLAMR(side, steps int) *clamr.Kernel { return clamr.New(side, steps) }

// CampaignConfig returns the standard campaign configuration: `strikes`
// particle strikes under LANSCE flux, reproducible from seed.
func CampaignConfig(seed uint64, strikes int) Config {
	return campaign.DefaultConfig(seed, strikes)
}

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
// retained.
func NewStreamRunner() *campaign.StreamRunner { return &campaign.StreamRunner{} }

// NewAdaptiveRunner returns the early-stopping campaign engine as a
// Runner: cells of a plan carrying an AdaptiveSpec stop as soon as their
// confidence target is met, freed strikes are re-dealt to the cells with
// the widest intervals, and every summary stays byte-identical to a
// straight run with the same consumed strike count. A plan without a spec
// runs each cell once at the plan's budget, with StreamRunner's outcomes.
// Either way, its Logs hook receives each cell's checkpoint log.
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

// DeviceNames lists the registered device names, sorted.
func DeviceNames() []string { return registry.DeviceNames() }

// KernelNames lists the registered kernel family names, sorted.
func KernelNames() []string { return registry.KernelNames() }

// SplitKernelSpec splits "name:params" into its parts.
func SplitKernelSpec(spec string) (name, params string) { return registry.SplitSpec(spec) }

// RunCampaignStreaming simulates a beam campaign cell: cfg.Strikes
// strikes of kern on dev, each resolved by the device architecture and
// propagated through the kernel's real computation. Every outcome is fed
// to the sinks in strike-index order and then dropped, so memory stays
// O(chunk + reducer state) however many strikes — or SDCs — the cell
// produces. The outcome stream, and so every reducer, is bit-identical
// for any worker count (DESIGN.md §6).
func RunCampaignStreaming(dev Device, kern Kernel, cfg Config, sinks ...Sink) (StreamInfo, error) {
	return campaign.RunStreamingCtx(context.Background(), dev, kern, cfg, sinks...)
}

// ResumeCampaignStreaming re-runs only the strikes from index start
// onwards; per-index randomness makes the tail bit-identical to the same
// indices of a full run.
func ResumeCampaignStreaming(dev Device, kern Kernel, cfg Config, start int, sinks ...Sink) (StreamInfo, error) {
	return campaign.RunStreamingFromCtx(context.Background(), dev, kern, cfg, start, sinks...)
}

// NewTallyReducer returns a streaming outcome-tally accumulator.
func NewTallyReducer() *TallyReducer { return campaign.NewTallyReducer() }

// NewSDCCountReducer returns a streaming SDC counter for each threshold.
func NewSDCCountReducer(thresholds ...float64) *SDCCountReducer {
	return campaign.NewSDCCountReducer(thresholds...)
}

// NewLocalityReducer returns a streaming locality-breakdown accumulator.
func NewLocalityReducer(thresholdPct float64) *LocalityReducer {
	return campaign.NewLocalityReducer(thresholdPct)
}

// NewFilteredFractionReducer returns a streaming filtered-fraction tracker.
func NewFilteredFractionReducer(thresholdPct float64) *FilteredFractionReducer {
	return campaign.NewFilteredFractionReducer(thresholdPct)
}

// NewScatterReducer returns a bounded reservoir of scatter points (pass a
// nil RNG for the default deterministic eviction stream).
func NewScatterReducer(capPct float64, maxPoints int) *ScatterReducer {
	return campaign.NewScatterReducer(capPct, maxPoints, nil)
}

// NewABFTReducer returns a streaming ABFT coverage classifier.
func NewABFTReducer() *ABFTReducer { return campaign.NewABFTReducer() }

// NewCriticalityReducer returns a streaming criticality analysis under
// opts; its Criticality equals Analyze over the same SDC reports.
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
// A run killed mid-campaign leaves a log recoverable by RecoverCampaignLog.
func NewCampaignLogWriter(w io.Writer, dev Device, kern Kernel, cfg Config) (*CheckpointSink, error) {
	info, err := campaign.CellInfo(dev, kern, cfg)
	if err != nil {
		return nil, err
	}
	return campaign.NewCheckpointSink(w, info, cfg.Seed)
}

// RecoverCampaignLog completes a truncated checkpointed campaign log by
// replaying its salvageable prefix into w and re-running only the strikes
// after its last flushed checkpoint. The recovered log is identical to an
// uninterrupted run's.
func RecoverCampaignLog(w io.Writer, truncated io.Reader, dev Device, kern Kernel, cfg Config) error {
	return campaign.RecoverLog(w, truncated, dev, kern, cfg)
}

// ParseResumableLog reads a possibly-truncated streamed campaign log and
// reports where the campaign must restart.
func ParseResumableLog(r io.Reader) (LogResume, error) { return logdata.ParseResume(r) }

// Analyze applies the paper's criticality methodology to a set of
// per-execution reports.
func Analyze(reports []*Report, opts AnalysisOptions) *Criticality {
	return core.Analyze(reports, opts)
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

// RenderScatter renders a Figure-2/4/6/8 style plot of the points a
// ScatterReducer collected from the campaign cell info describes.
func RenderScatter(w io.Writer, info StreamInfo, sc *ScatterReducer) {
	s := campaign.ScatterSeries{
		Device: info.Device,
		Kernel: info.Kernel,
		CapPct: sc.CapPct,
		Series: []campaign.LabeledPoints{{Label: info.Input, Points: sc.Points()}},
	}
	report.Scatter(w, s, 64, 16)
}

// RenderLocality renders a Figure-3/5/7 style FIT-by-locality bar pair:
// all is an unfiltered LocalityReducer, filtered one under the threshold,
// and cleared the FilteredFractionReducer at that threshold.
func RenderLocality(w io.Writer, info StreamInfo, all, filtered *LocalityReducer, cleared *FilteredFractionReducer) {
	f := campaign.LocalityFigure{
		Device:       info.Device,
		Kernel:       info.Kernel,
		ThresholdPct: filtered.ThresholdPct,
		Bars: []campaign.LocalityBar{{
			Input:            info.Input,
			All:              all.Breakdown(info.Exposure),
			Filtered:         filtered.Breakdown(info.Exposure),
			FilterMeaningful: cleared.Fraction() > 0,
		}},
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
