// Package registry is the name-to-constructor index behind declarative
// experiment plans: devices and kernels are registered under short names
// ("k40", "dgemm") and constructed from "name" or "name:params" specs, so
// a campaign cell can live in a JSON file or a command-line flag instead
// of a hand-rolled switch statement. The built-in devices and kernels of
// the paper self-register at init (builtins.go); third-party scenarios
// plug in through RegisterDevice/RegisterKernel without touching the
// facade or the campaign engines.
//
// Construction and validation are deliberately split: Kernel.Validate
// checks a params string against the kernel's preconditions without
// building any golden state (the iterative kernels run a full simulation
// at construction), which is what lets Plan.Validate reject a bad cell in
// microseconds before a Runner spends minutes on the good ones.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"radcrit/internal/arch"
	"radcrit/internal/kernels"
)

// DeviceFactory constructs a registered device model.
type DeviceFactory func() (arch.Device, error)

// KernelEntry describes one registered kernel family.
type KernelEntry struct {
	// Validate checks a params string (the part after the colon in
	// "dgemm:1024") against the kernel's preconditions without building
	// golden state. An empty params string is valid only for families
	// with a default configuration.
	Validate func(params string) error
	// Make constructs the kernel; it may be expensive (the iterative
	// kernels run their golden simulation here). Make must not panic:
	// NewKernel additionally converts any escaped panic into an error,
	// but a well-behaved entry returns one directly.
	Make func(params string) (kernels.Kernel, error)
	// Help is a one-line description of the family and its params shape
	// ("matrix side N, e.g. dgemm:1024") for discovery surfaces: CLI
	// usage text and the service's registry endpoint.
	Help string
}

// Info describes one registry entry for discovery surfaces.
type Info struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
}

// UnknownDeviceError reports a device name with no registration.
type UnknownDeviceError struct {
	Name  string
	Known []string
}

func (e *UnknownDeviceError) Error() string {
	return fmt.Sprintf("registry: unknown device %q (known: %s)", e.Name, strings.Join(e.Known, ", "))
}

// UnknownKernelError reports a kernel family with no registration.
type UnknownKernelError struct {
	Name  string
	Known []string
}

func (e *UnknownKernelError) Error() string {
	return fmt.Sprintf("registry: unknown kernel %q (known: %s)", e.Name, strings.Join(e.Known, ", "))
}

// BadParamsError reports a registered kernel rejecting its params string:
// a permanent configuration error — the spec itself is invalid.
type BadParamsError struct {
	Name, Params string
	Err          error
}

func (e *BadParamsError) Error() string {
	return fmt.Sprintf("registry: kernel %s: bad params %q: %v", e.Name, e.Params, e.Err)
}

func (e *BadParamsError) Unwrap() error { return e.Err }

// ConstructionError reports a factory failing to build a kernel whose
// spec already passed validation: a construction failure (possibly
// transient — resources, I/O, a factory bug), not an invalid plan.
type ConstructionError struct {
	Name, Params string
	Err          error
}

func (e *ConstructionError) Error() string {
	return fmt.Sprintf("registry: kernel %s:%s failed to construct: %v", e.Name, e.Params, e.Err)
}

func (e *ConstructionError) Unwrap() error { return e.Err }

// deviceEntry pairs a device factory with its discovery help.
type deviceEntry struct {
	make DeviceFactory
	help string
}

var (
	mu      sync.RWMutex
	devices = map[string]deviceEntry{}
	kernelz = map[string]KernelEntry{}
)

// RegisterDevice registers a device factory under name. Registering an
// existing name replaces it (last registration wins), letting tests and
// plugins shadow a built-in — but only before any campaign has run:
// the iterative-kernel instance caches and the service's result store
// are keyed by name strings and are never invalidated by
// re-registration, so results computed before the shadowing would be
// served afterwards. Register at init time, as the built-ins do.
func RegisterDevice(name string, f DeviceFactory) {
	RegisterDeviceInfo(name, "", f)
}

// RegisterDeviceInfo is RegisterDevice with a one-line help string for
// discovery surfaces (CLI usage, the service's registry endpoint).
func RegisterDeviceInfo(name, help string, f DeviceFactory) {
	if name == "" || f == nil {
		panic("registry: RegisterDevice with empty name or nil factory")
	}
	mu.Lock()
	defer mu.Unlock()
	devices[name] = deviceEntry{make: f, help: help}
}

// RegisterKernel registers a kernel family under name. Registering an
// existing name replaces it, under the same register-before-running
// caveat as RegisterDevice; note also that the campaign scale presets
// construct the built-in iterative kernels directly (registry.HotSpot /
// registry.CLAMR), so shadowing "hotspot"/"clamr" affects plan cells and
// CLI specs but not preset-driven figure builders.
func RegisterKernel(name string, e KernelEntry) {
	if name == "" || e.Make == nil {
		panic("registry: RegisterKernel with empty name or nil Make")
	}
	if e.Validate == nil {
		e.Validate = func(string) error { return nil }
	}
	mu.Lock()
	defer mu.Unlock()
	kernelz[name] = e
}

// DeviceNames returns the registered device names, sorted.
func DeviceNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(devices))
	for n := range devices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// KernelNames returns the registered kernel family names, sorted.
func KernelNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(kernelz))
	for n := range kernelz {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Devices enumerates the registered devices, sorted by name — the
// discovery API behind GET /v1/registry and the CLI's flag help.
func Devices() []Info {
	mu.RLock()
	defer mu.RUnlock()
	infos := make([]Info, 0, len(devices))
	for n, e := range devices {
		infos = append(infos, Info{Name: n, Help: e.help})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Kernels enumerates the registered kernel families with their params
// help, sorted by name.
func Kernels() []Info {
	mu.RLock()
	defer mu.RUnlock()
	infos := make([]Info, 0, len(kernelz))
	for n, e := range kernelz {
		infos = append(infos, Info{Name: n, Help: e.Help})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Suggest returns the candidate closest to name by edit distance when it
// is close enough to plausibly be a typo ("ddgemm" → "dgemm"), for
// did-you-mean error messages. The second result is false when nothing
// is convincingly close.
func Suggest(name string, candidates []string) (string, bool) {
	best, bestDist := "", -1
	for _, c := range candidates {
		d := editDistance(name, c)
		if bestDist < 0 || d < bestDist || (d == bestDist && c < best) {
			best, bestDist = c, d
		}
	}
	if best == "" {
		return "", false
	}
	// A suggestion further away than half the typed name is noise.
	limit := max(1, len(name)/2)
	if bestDist > limit {
		return "", false
	}
	return best, true
}

// editDistance is the optimal-string-alignment distance over bytes:
// Levenshtein plus adjacent transpositions as a single edit, so the
// classic "k04" for "k40" typo counts as one step.
func editDistance(a, b string) int {
	prev2 := make([]int, len(b)+1)
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				cur[j] = min(cur[j], prev2[j-2]+1)
			}
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[len(b)]
}

// NewDevice constructs the device registered under name and validates
// its model, so a registered device with no cores or no flip
// distributions is refused here instead of reaching the engine.
func NewDevice(name string) (arch.Device, error) {
	mu.RLock()
	e, ok := devices[name]
	mu.RUnlock()
	if !ok {
		return nil, &UnknownDeviceError{Name: name, Known: DeviceNames()}
	}
	dev, err := e.make()
	if err != nil {
		return nil, err
	}
	if dev == nil || dev.Model() == nil {
		return nil, fmt.Errorf("registry: device %s: factory returned no model", name)
	}
	if err := dev.Model().Validate(); err != nil {
		return nil, fmt.Errorf("registry: device %s: %w", name, err)
	}
	return dev, nil
}

// SplitSpec splits a kernel spec "name" or "name:params" into its parts.
func SplitSpec(spec string) (name, params string) {
	name, params, _ = strings.Cut(spec, ":")
	return name, params
}

// ValidateDevice checks that name is registered without constructing it.
func ValidateDevice(name string) error {
	mu.RLock()
	_, ok := devices[name]
	mu.RUnlock()
	if !ok {
		return &UnknownDeviceError{Name: name, Known: DeviceNames()}
	}
	return nil
}

// ValidateKernel checks a kernel spec against its family's preconditions
// without building golden state: the plan-time guard that turns what used
// to be a constructor panic into a typed error.
func ValidateKernel(spec string) error {
	name, params := SplitSpec(spec)
	mu.RLock()
	e, ok := kernelz[name]
	mu.RUnlock()
	if !ok {
		return &UnknownKernelError{Name: name, Known: KernelNames()}
	}
	if err := e.Validate(params); err != nil {
		return &BadParamsError{Name: name, Params: params, Err: err}
	}
	return nil
}

// NewKernel constructs the kernel described by spec ("dgemm:1024",
// "lavamd:19", "hotspot:1024x400", "clamr:512x600"). Construction may be
// expensive for iterative kernels; built-ins memoise those per
// configuration. A panic escaping a factory is converted to an error so
// no registry misuse can take down a campaign driver.
func NewKernel(spec string) (k kernels.Kernel, err error) {
	name, params := SplitSpec(spec)
	mu.RLock()
	e, ok := kernelz[name]
	mu.RUnlock()
	if !ok {
		return nil, &UnknownKernelError{Name: name, Known: KernelNames()}
	}
	if verr := e.Validate(params); verr != nil {
		return nil, &BadParamsError{Name: name, Params: params, Err: verr}
	}
	defer func() {
		if r := recover(); r != nil {
			k = nil
			err = &ConstructionError{Name: name, Params: params, Err: fmt.Errorf("constructor panic: %v", r)}
		}
	}()
	k, err = e.Make(params)
	if err != nil {
		return nil, &ConstructionError{Name: name, Params: params, Err: err}
	}
	return k, nil
}
