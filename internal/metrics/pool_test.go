package metrics

import (
	"testing"

	"radcrit/internal/grid"
)

func sampleReport() *Report {
	r := &Report{Dims: grid.Dims{X: 4, Y: 4, Z: 1}, TotalElements: 16, ThresholdPct: 2}
	r.Mismatches = append(r.Mismatches,
		Mismatch{Coord: grid.Coord{X: 1, Y: 2}, Read: 5, Expected: 4, RelErrPct: 25},
		Mismatch{Coord: grid.Coord{X: 3, Y: 0}, Read: 2, Expected: 4, RelErrPct: 50},
		Mismatch{Coord: grid.Coord{X: 0, Y: 1}, Read: 4.1, Expected: 4, RelErrPct: 2.5},
	)
	return r
}

func TestReportReset(t *testing.T) {
	r := sampleReport()
	r.Reset()
	if r.Count() != 0 || r.TotalElements != 0 || r.ThresholdPct != 0 || r.Dims != (grid.Dims{}) {
		t.Fatalf("Reset left state behind: %+v", r)
	}
}

func TestReportClone(t *testing.T) {
	r := sampleReport()
	c := r.Clone()
	if c.Dims != r.Dims || c.TotalElements != r.TotalElements || c.ThresholdPct != r.ThresholdPct {
		t.Fatalf("clone header differs: %+v vs %+v", c, r)
	}
	if len(c.Mismatches) != len(r.Mismatches) {
		t.Fatalf("clone mismatch count %d != %d", len(c.Mismatches), len(r.Mismatches))
	}
	// Deep copy: resetting the original must not disturb the clone.
	r.Reset()
	if len(c.Mismatches) != 3 || c.Mismatches[0].Read != 5 {
		t.Fatal("clone shares storage with the recycled original")
	}
}

func TestReportPoolRecyclesAndDegrades(t *testing.T) {
	var p ReportPool
	r := p.Get(grid.Dims{X: 2, Y: 2, Z: 1}, 4)
	if r.Dims.X != 2 || r.TotalElements != 4 || r.Count() != 0 {
		t.Fatalf("pooled Get shape wrong: %+v", r)
	}
	r.Mismatches = append(r.Mismatches, Mismatch{Read: 1})
	p.Put(r)
	r2 := p.Get(grid.Dims{X: 8, Y: 1, Z: 1}, 8)
	if r2.Count() != 0 || r2.Dims.X != 8 {
		t.Fatalf("recycled report not reset: %+v", r2)
	}
	// Nil pool and nil report degrade to plain behaviour, no panics.
	var nilPool *ReportPool
	r3 := nilPool.Get(grid.Dims{X: 1, Y: 1, Z: 1}, 1)
	if r3 == nil || r3.TotalElements != 1 {
		t.Fatal("nil pool Get did not allocate")
	}
	nilPool.Put(r3)
	p.Put(nil)
}

// TestReportReserve pins the recycled-capacity policy: Reserve keeps the
// existing mismatches, grows to fit, reuses an array within four times
// (plus 64 entries) of the need, and replaces a larger one.
func TestReportReserve(t *testing.T) {
	r := sampleReport()
	r.Reserve(10)
	if cap(r.Mismatches) < 13 || r.Count() != 3 || r.Mismatches[1].RelErrPct != 50 {
		t.Fatalf("Reserve(10) on 3 mismatches: len %d cap %d", r.Count(), cap(r.Mismatches))
	}
	r.Mismatches = make([]Mismatch, 0, 100)
	r.Reserve(10)
	if cap(r.Mismatches) != 100 {
		t.Fatalf("Reserve(10) replaced a 100-entry array (cap now %d); it is within 4x+64", cap(r.Mismatches))
	}
	r.Mismatches = append(make([]Mismatch, 0, 1000), sampleReport().Mismatches...)
	r.Reserve(2)
	if cap(r.Mismatches) != 5 || r.Count() != 3 || r.Mismatches[2].RelErrPct != 2.5 {
		t.Fatalf("Reserve(2) kept a 1000-entry array for 5 mismatches: len %d cap %d", r.Count(), cap(r.Mismatches))
	}
}
