package campaign

import (
	"radcrit/internal/arch"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/clamr"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/hotspot"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/registry"
)

// Scale selects experiment sizing: the paper's configurations (Table II)
// or reduced configurations with the same qualitative behaviour for fast
// test/CI runs.
type Scale int

const (
	// TestScale shrinks inputs so the full matrix runs in seconds.
	TestScale Scale = iota
	// PaperScale uses Table II sizes.
	PaperScale
)

// DGEMMSizes returns the matrix sides swept for a device (Fig. 2/3: three
// sizes on the K40, four on the Xeon Phi).
func DGEMMSizes(s Scale, dev arch.Device) []int {
	phiDev := dev.Model().VectorWidthBits > 0
	if s == PaperScale {
		if phiDev {
			return []int{1024, 2048, 4096, 8192}
		}
		return []int{1024, 2048, 4096}
	}
	if phiDev {
		return []int{128, 256, 512, 1024}
	}
	return []int{128, 256, 512}
}

// LavaMDSizes returns the box-grid sizes swept for a device (Fig. 4/5:
// 15/19/23 on the K40, 13/15/19/23 on the Xeon Phi).
func LavaMDSizes(s Scale, dev arch.Device) []int {
	phiDev := dev.Model().VectorWidthBits > 0
	if s == PaperScale {
		if phiDev {
			return []int{13, 15, 19, 23}
		}
		return []int{15, 19, 23}
	}
	if phiDev {
		return []int{3, 4, 5, 6}
	}
	return []int{4, 5, 6}
}

// HotSpotConfig returns (side, iterations) for the scale (Table II:
// 1024x1024 cells).
func HotSpotConfig(s Scale) (side, iters int) {
	if s == PaperScale {
		return 1024, 400
	}
	return 64, 80
}

// CLAMRConfig returns (side, steps) for the scale (Table II: 512x512
// cells; steps reduced from the paper's 5,000 to keep the golden run
// tractable while the dam-break wave still crosses the domain).
func CLAMRConfig(s Scale) (side, steps int) {
	if s == PaperScale {
		return 512, 600
	}
	return 48, 60
}

// Iterative kernels carry precomputed golden state; the registry memoises
// them per configuration, so a preset-built kernel and a plan cell naming
// the same configuration share one golden timeline.

// HotSpotKernel returns the cached HotSpot instance for the scale.
func HotSpotKernel(s Scale) *hotspot.Kernel {
	side, iters := HotSpotConfig(s)
	return registry.HotSpot(side, iters)
}

// CLAMRKernel returns the cached CLAMR instance for the scale.
func CLAMRKernel(s Scale) *clamr.Kernel {
	side, steps := CLAMRConfig(s)
	return registry.CLAMR(side, steps)
}

// AllKernels returns one instance of each benchmark at the scale's
// default size for a device (used by Table I/II and the SDC-ratio stats).
func AllKernels(s Scale, dev arch.Device) []kernels.Kernel {
	dg := DGEMMSizes(s, dev)
	lv := LavaMDSizes(s, dev)
	return []kernels.Kernel{
		dgemm.New(dg[len(dg)-1]),
		lavamd.New(lv[len(lv)-1]),
		HotSpotKernel(s),
		CLAMRKernel(s),
	}
}
