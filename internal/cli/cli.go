// Package cli is the shared command-line surface of the cmd/ tools: one
// registry-backed way to pick devices and kernels, load declarative plan
// files, and assemble campaign configuration. Before the plan API every
// binary re-implemented its own device/kernel string switch; now a tool
// binds the shared flags, keeps only its tool-specific ones, and anything
// registered with internal/registry — built-in or third-party — is
// addressable from every tool at once.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/registry"
)

// CampaignFlags are the flags shared by the campaign-running tools.
type CampaignFlags struct {
	Plan    string
	Device  string
	Kernel  string
	Strikes int
	Seed    uint64
	Scale   string
	Workers int
}

// Bind registers the shared flags on fs, seeding them from the receiver's
// current values (the tool's defaults). Tools with a fixed kernel family
// (abftscan is DGEMM-only) pass withKernel=false to skip -kernel.
func (c *CampaignFlags) Bind(fs *flag.FlagSet, withKernel bool) {
	fs.StringVar(&c.Plan, "plan", c.Plan,
		"JSON campaign plan `file`; the plan supplies the whole campaign, so the other shared flags (-device/-kernel/-strikes/-seed/-scale/-workers) are ignored")
	fs.StringVar(&c.Device, "device", c.Device,
		"device name: "+strings.Join(registry.DeviceNames(), ", "))
	if withKernel {
		fs.StringVar(&c.Kernel, "kernel", c.Kernel,
			"kernel spec, e.g. "+strings.Join(registry.KernelNames(), ", ")+
				" with optional :params (dgemm:1024, hotspot:1024x400); bare names take the scale default")
	}
	fs.IntVar(&c.Strikes, "strikes", c.Strikes, "particle strikes to simulate per cell")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "campaign seed")
	fs.StringVar(&c.Scale, "scale", c.Scale, "experiment scale: test or paper")
	fs.IntVar(&c.Workers, "workers", c.Workers, "strike worker pool size (0 = GOMAXPROCS)")
}

// ScaleValue parses the -scale flag.
func (c *CampaignFlags) ScaleValue() (campaign.Scale, error) {
	switch c.Scale {
	case "", "test":
		return campaign.TestScale, nil
	case "paper":
		return campaign.PaperScale, nil
	default:
		return campaign.TestScale, fmt.Errorf("-scale must be test or paper, got %q", c.Scale)
	}
}

// ResolveDevice constructs the -device selection through the registry.
func (c *CampaignFlags) ResolveDevice() (arch.Device, error) {
	dev, err := registry.NewDevice(c.Device)
	return dev, WithSuggestion(err)
}

// WithSuggestion augments a registry unknown-name error with the closest
// registered name, so "-device k04" fails with "did you mean "k40"?"
// instead of just a list. Other errors (and nil) pass through untouched.
func WithSuggestion(err error) error {
	var ud *registry.UnknownDeviceError
	if errors.As(err, &ud) {
		if s, ok := registry.Suggest(ud.Name, ud.Known); ok {
			return fmt.Errorf("%w — did you mean %q?", err, s)
		}
	}
	var uk *registry.UnknownKernelError
	if errors.As(err, &uk) {
		if s, ok := registry.Suggest(uk.Name, uk.Known); ok {
			return fmt.Errorf("%w — did you mean %q?", err, s)
		}
	}
	return err
}

// DefaultSpec completes a built-in kernel family name that carries no
// params ("dgemm", and aberrations like "dgemm:") with the scale's
// default; full specs and unknown families pass through untouched. The
// result is rebuilt from the split name so a trailing colon cannot leak
// into the params.
func DefaultSpec(spec string, s campaign.Scale, dev arch.Device) string {
	name, params := registry.SplitSpec(spec)
	if params != "" {
		return spec
	}
	switch name {
	case "dgemm":
		return name + ":" + strconv.Itoa(campaign.DGEMMSizes(s, dev)[0])
	case "lavamd":
		return name + ":" + strconv.Itoa(campaign.LavaMDSizes(s, dev)[0])
	case "hotspot":
		side, iters := campaign.HotSpotConfig(s)
		return fmt.Sprintf("%s:%dx%d", name, side, iters)
	case "clamr":
		side, steps := campaign.CLAMRConfig(s)
		return fmt.Sprintf("%s:%dx%d", name, side, steps)
	}
	return spec
}

// LoadPlanFile reads and validates the JSON plan at path.
func LoadPlanFile(path string) (*campaign.Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := campaign.LoadPlan(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// ResolvePlan returns the tool's effective plan: the -plan file when
// given, otherwise a single-cell plan assembled from the shared flags.
// The kernel spec's scale defaults are applied against the -device
// selection, exactly as the pre-plan tools defaulted their -size flags.
func (c *CampaignFlags) ResolvePlan() (*campaign.Plan, error) {
	if c.Plan != "" {
		return LoadPlanFile(c.Plan)
	}
	s, err := c.ScaleValue()
	if err != nil {
		return nil, err
	}
	dev, err := c.ResolveDevice()
	if err != nil {
		return nil, err
	}
	p := campaign.NewPlan(c.Seed, c.Strikes).
		WithWorkers(c.Workers).
		WithCell(c.Device, DefaultSpec(c.Kernel, s, dev))
	if err := p.Validate(); err != nil {
		return nil, WithSuggestion(err)
	}
	return p, nil
}

// AdaptiveFlags are the shared early-stopping flags: a tool binds them
// next to CampaignFlags and applies them to whatever plan it resolved.
// Setting -adaptive-target turns the stop rule on; the rest refine it.
type AdaptiveFlags struct {
	Target     float64
	MinStrikes int
	CheckEvery int
	Alpha      float64
	MaxEpochs  int
}

// Bind registers the adaptive flags on fs.
func (a *AdaptiveFlags) Bind(fs *flag.FlagSet) {
	fs.Float64Var(&a.Target, "adaptive-target", a.Target,
		"stop a cell once its SDC-probability confidence interval is this tight (half-width, e.g. 0.05); 0 disables early stopping")
	fs.IntVar(&a.MinStrikes, "adaptive-min", a.MinStrikes,
		"minimum strikes before a cell may stop early (0 = one check interval)")
	fs.IntVar(&a.CheckEvery, "adaptive-every", a.CheckEvery,
		"strikes between stop-rule checks (0 = the effective stream chunk)")
	fs.Float64Var(&a.Alpha, "adaptive-alpha", a.Alpha,
		"total error probability the confidence sequence spends across all checks (0 = default)")
	fs.IntVar(&a.MaxEpochs, "adaptive-epochs", a.MaxEpochs,
		"budget-reallocation rounds for adaptive campaign runs (0 = default)")
}

// Active reports whether the flags request early stopping.
func (a *AdaptiveFlags) Active() bool { return a.Target != 0 }

// Apply overlays the flags onto p: when -adaptive-target is set the
// plan's spec is replaced outright (flags win over the plan file, like
// every other flag/plan conflict resolves toward the explicit flag);
// otherwise the plan is untouched and a plan-file spec stays in force.
func (a *AdaptiveFlags) Apply(p *campaign.Plan) error {
	if !a.Active() {
		return nil
	}
	p.WithAdaptive(campaign.AdaptiveSpec{
		TargetHalfWidth: a.Target,
		MinStrikes:      a.MinStrikes,
		CheckEvery:      a.CheckEvery,
		Alpha:           a.Alpha,
		MaxEpochs:       a.MaxEpochs,
	})
	return p.Validate()
}

// ProfileFlags are the shared profiling flags of the cmd/ tools, so perf
// work starts from a pprof profile instead of guesswork:
//
//	beamsim -cpuprofile cpu.out -plan plan.json
//	figures -memprofile mem.out -scale paper
//	go tool pprof cpu.out
//
// Profiles are written on a tool's successful exit (Stop); error exits
// through Fatal abandon them.
type ProfileFlags struct {
	CPUProfile string
	MemProfile string

	cpuFile *os.File
}

// Bind registers -cpuprofile and -memprofile on fs.
func (p *ProfileFlags) Bind(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", p.CPUProfile,
		"write a CPU profile to `file` (inspect with: go tool pprof file)")
	fs.StringVar(&p.MemProfile, "memprofile", p.MemProfile,
		"write an allocation (heap) profile to `file` on exit")
}

// Start begins CPU profiling when -cpuprofile was given. Call Stop before
// the tool exits.
func (p *ProfileFlags) Start() error {
	if p.CPUProfile == "" {
		return nil
	}
	f, err := os.Create(p.CPUProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile when -memprofile
// was given. Safe to call when Start did nothing.
func (p *ProfileFlags) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
		p.cpuFile = nil
	}
	if p.MemProfile == "" {
		return nil
	}
	f, err := os.Create(p.MemProfile)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live retention
	return pprof.WriteHeapProfile(f)
}

// Fatal prints "tool: message" to stderr and exits 1.
func Fatal(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}
