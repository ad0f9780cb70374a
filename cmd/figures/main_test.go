package main

import (
	"strings"
	"sync"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/kernels"
	"radcrit/internal/registry"
)

func testArtifacts(t *testing.T, strikes int) []artifact {
	t.Helper()
	k40, err := registry.NewDevice("k40")
	if err != nil {
		t.Fatal(err)
	}
	phi, err := registry.NewDevice("phi")
	if err != nil {
		t.Fatal(err)
	}
	return artifacts(campaign.TestScale, campaign.DefaultConfig(3, strikes), k40, phi)
}

func ids(arts []artifact) string {
	var out []string
	for _, a := range arts {
		out = append(out, a.id)
	}
	return strings.Join(out, " ")
}

// TestSelectArtifacts pins the -only parser: IDs are case- and
// space-insensitive and come out in table order, and an unknown ID is an
// error naming it and the valid set, with a did-you-mean when one is
// close.
func TestSelectArtifacts(t *testing.T) {
	arts := testArtifacts(t, 10)
	all := ids(arts)
	if all != "T1 T2 F2 F3 F4 F5 F6 F7 F8 F9 S1 S2 S3 S4 X1" {
		t.Fatalf("artifact table = %s", all)
	}
	for _, c := range []struct{ only, want, errHas string }{
		{only: "", want: all},
		{only: "x1, s1 ,f2,F2,", want: "F2 S1 X1"},
		{only: "F10", errHas: `unknown artifact ID "F10" (valid IDs: ` + all + ")"},
		{only: "S1,SS2", errHas: `"SS2" — did you mean "S2"?`},
		{only: "f2,xx1", errHas: `"xx1" — did you mean "X1"?`},
	} {
		sel, err := selectArtifacts(arts, c.only)
		switch {
		case c.errHas == "" && err != nil:
			t.Errorf("-only %q: %v", c.only, err)
		case c.errHas == "" && ids(sel) != c.want:
			t.Errorf("-only %q selected %q, want %q", c.only, ids(sel), c.want)
		case c.errHas != "" && (err == nil || !strings.Contains(err.Error(), c.errHas)):
			t.Errorf("-only %q: error %v, want one containing %q", c.only, err, c.errHas)
		}
	}
}

// TestSharedCellsRunOnce pins the point of the shared pass: F2, F3, S2,
// S3 and X1 all read the K40 DGEMM cells (X1 its smallest input), and S1,
// F8, F9 and S4 all read the Xeon Phi CLAMR cell, yet each distinct cell
// starts exactly one engine run.
func TestSharedCellsRunOnce(t *testing.T) {
	clamrPhi := "XeonPhi/CLAMR/" + campaign.CLAMRKernel(campaign.TestScale).InputLabel()
	for _, c := range []struct {
		only     string
		distinct int
		key      string // a cell several artifacts list
	}{
		// K40 sweeps 3 DGEMM sizes, the Phi 4; five artifacts list them.
		{only: "F2,F3,S2,S3,X1", distinct: 7, key: "K40/DGEMM/128x128"},
		// S1 lists every cell of both devices: 8 on the K40, 10 on the Phi.
		{only: "S1,F8,F9,S4", distinct: 18, key: clamrPhi},
		// F8, F9 and S4 read nothing but that cell.
		{only: "F8,F9,S4", distinct: 1, key: clamrPhi},
	} {
		sel, err := selectArtifacts(testArtifacts(t, 20), c.only)
		if err != nil {
			t.Fatal(err)
		}
		counter := &runCounter{runs: map[string]int{}}
		var cells []campaign.Cell
		for _, cell := range passCells(sel) {
			cells = append(cells, campaign.Cell{Dev: cell.Dev, Kern: countingKernel{cell.Kern, counter}})
		}
		if _, err := campaign.RunFigurePass(cells, campaign.DefaultConfig(3, 20), 0); err != nil {
			t.Fatal(err)
		}
		if len(counter.runs) != c.distinct || len(cells) <= c.distinct {
			t.Fatalf("-only %s: %d listed cells ran as %d distinct cells, want %d distinct",
				c.only, len(cells), len(counter.runs), c.distinct)
		}
		if counter.runs[c.key] != 1 {
			t.Errorf("-only %s: shared cell %s started %d engine runs, want 1", c.only, c.key, counter.runs[c.key])
		}
		for cell, n := range counter.runs {
			if n != 1 {
				t.Errorf("-only %s: cell %s started %d engine runs, want 1", c.only, cell, n)
			}
		}
	}
}

type runCounter struct {
	mu   sync.Mutex
	runs map[string]int
}

// countingKernel counts engine runs: every run of a cell opens one
// injector session, which fetches the kernel's golden state once.
type countingKernel struct {
	kernels.Kernel
	c *runCounter
}

func (k countingKernel) Golden(dev arch.Device) kernels.GoldenState {
	k.c.mu.Lock()
	k.c.runs[dev.ShortName()+"/"+k.Name()+"/"+k.InputLabel()]++
	k.c.mu.Unlock()
	return k.Kernel.Golden(dev)
}
