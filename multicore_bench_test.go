// BenchmarkCampaignMulticore is the honest multicore record behind
// BENCH_campaign.json's "multicore" section: whole campaign cells
// (campaign.RunStreamingCtx with a TallyReducer, which memoises nothing)
// at worker counts {1, 2, NumCPU}, for one cheap-strike kernel (DGEMM)
// and one expensive-strike kernel (LavaMD). Results are bit-identical across
// worker counts (DESIGN.md §5); only wall time may differ, so ns/op is
// the whole story.
//
// Regenerate the record with:
//
//	go test -bench=BenchmarkCampaignMulticore -benchtime=1x -run='^$' . \
//	  | go run ./cmd/benchguard -emit-multicore
//
// On a 1-core host every worker count collapses to the serial loop; the
// record only demonstrates scaling when regenerated on a >=4-core host,
// which is exactly why the emitting command is wired into CI.
package radcrit

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/lavamd"
)

// multicoreWorkerCounts returns {1, 2, NumCPU} deduplicated and sorted
// (a 1-core host measures only workers=1 and workers=2).
func multicoreWorkerCounts() []int {
	set := []int{1, 2, runtime.NumCPU()}
	var out []int
	for _, w := range set {
		dup := false
		for _, o := range out {
			dup = dup || o == w
		}
		if !dup {
			out = append(out, w)
		}
	}
	return out
}

func BenchmarkCampaignMulticore(b *testing.B) {
	cells := []struct {
		name    string
		dev     arch.Device
		kern    kernels.Kernel
		strikes int
	}{
		// Strike counts sized so one op costs roughly a second on the
		// reference 1-core host: enough strikes for the pool to matter,
		// small enough for -benchtime=1x CI smoke runs.
		{"DGEMM", k40.New(), dgemm.New(256), 6000},
		{"LavaMD", k40.New(), lavamd.New(4), 1500},
	}
	for _, c := range cells {
		for _, w := range multicoreWorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(b *testing.B) {
				cfg := campaign.DefaultConfig(42, c.strikes)
				cfg.Workers = w
				// Warm with the full strike population: the golden handle's
				// lazy tables are built per box/row on first touch and shared
				// through the kernel instance, so a partial warm-up would
				// charge the first sub-benchmark for construction the later
				// ones inherit.
				runCell := func() {
					if _, err := campaign.RunStreamingCtx(context.Background(), c.dev, c.kern, cfg, campaign.NewTallyReducer()); err != nil {
						b.Fatal(err)
					}
				}
				runCell()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runCell()
				}
			})
		}
	}
}
