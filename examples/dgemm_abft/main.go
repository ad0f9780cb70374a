// Example dgemm_abft: use the spatial-locality metric to predict how much
// of each device's DGEMM error rate Algorithm-Based Fault Tolerance can
// remove (§III, §V-A), then demonstrate checksum detection and correction
// on live corrupted products.
//
// The paper's point: ABFT corrects single and line errors in linear time
// but not square/random patterns — so the locality profile of a device
// decides whether ABFT is worth deploying.
package main

import (
	"fmt"
	"os"

	"radcrit"
	"radcrit/internal/abft"
	"radcrit/internal/grid"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

func main() {
	const (
		strikes = 400
		seed    = 7
	)

	fmt.Println("ABFT vs spatial locality of DGEMM radiation errors")
	fmt.Println()

	plan := radcrit.NewPlan(seed, strikes).
		Named("dgemm-abft").
		WithKernelOnDevices("dgemm:256", "k40", "phi")
	cells, err := plan.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgemm_abft: %v\n", err)
		os.Exit(1)
	}

	for _, cell := range cells {
		red := radcrit.NewABFTReducer()
		info, err := radcrit.RunCampaignStreaming(cell.Dev, cell.Kern, plan.Config(), red)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgemm_abft: %v\n", err)
			os.Exit(1)
		}
		cov := red.Coverage
		fmt.Printf("%s: %d SDCs -> %d correctable (single/line), %d detect-only (square/random)\n",
			info.Device, cov.Total, cov.Correctable, cov.DetectOnly)
		fmt.Printf("  ABFT would remove %.0f%% of this device's DGEMM errors\n",
			100*cov.CorrectableFraction())
	}
	fmt.Println()

	// Live corruption/repair cycle on a checksummed product.
	fmt.Println("live checksummed-product demo:")
	rng := xrand.New(3)
	a, b := randomMatrix(96, rng), randomMatrix(96, rng)
	truth := abft.Multiply(a, b).C

	scenarios := []struct {
		name    string
		corrupt func(c *grid.Grid)
	}{
		{"single flipped element", func(c *grid.Grid) {
			c.Set2(10, 10, c.At2(10, 10)*8)
		}},
		{"line of 12 elements", func(c *grid.Grid) {
			for j := 4; j < 16; j++ {
				c.Set2(j, 40, c.At2(j, 40)+1)
			}
		}},
		{"4x4 square block", func(c *grid.Grid) {
			for i := 20; i < 24; i++ {
				for j := 20; j < 24; j++ {
					c.Set2(j, i, c.At2(j, i)*2)
				}
			}
		}},
	}

	for _, sc := range scenarios {
		cs := abft.Attach(truth)
		sc.corrupt(cs.C)
		before := metrics.Evaluate(truth, cs.C)
		audit := cs.Audit(0)
		after := metrics.Evaluate(truth, cs.C).Filter(1e-6)
		fmt.Printf("  %-24s locality=%-7v detected=%v corrected=%d residual=%d uncorrectable=%v\n",
			sc.name, before.Locality(), audit.Detected, audit.Corrected,
			after.Count(), audit.Uncorrectable)
	}
}

func randomMatrix(n int, rng *xrand.RNG) *grid.Grid {
	g := grid.New2D(n, n)
	for i := range g.Data() {
		g.Data()[i] = 0.5 + 1.5*rng.Float64()
	}
	return g
}
