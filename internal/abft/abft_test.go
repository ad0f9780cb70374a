package abft

import (
	"math"
	"testing"

	"radcrit/internal/grid"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

func randomMatrix(n int, seed uint64) *grid.Grid {
	g := grid.New2D(n, n)
	rng := xrand.New(seed)
	for i := range g.Data() {
		g.Data()[i] = 0.5 + 1.5*rng.Float64()
	}
	return g
}

func TestMultiplyCorrect(t *testing.T) {
	n := 16
	a, b := randomMatrix(n, 1), randomMatrix(n, 2)
	cs := Multiply(a, b)
	// Spot check against the naive product.
	for _, pt := range [][2]int{{0, 0}, {3, 7}, {15, 15}} {
		i, j := pt[0], pt[1]
		var want float64
		for k := 0; k < n; k++ {
			want += a.At2(k, i) * b.At2(j, k)
		}
		if math.Abs(cs.C.At2(j, i)-want) > 1e-9*math.Abs(want) {
			t.Fatalf("C[%d][%d] = %v, want %v", i, j, cs.C.At2(j, i), want)
		}
	}
}

func TestAuditCleanMatrix(t *testing.T) {
	cs := Multiply(randomMatrix(16, 1), randomMatrix(16, 2))
	res := cs.Audit(0)
	if res.Detected || res.Corrected != 0 || res.Uncorrectable {
		t.Fatalf("clean matrix flagged: %+v", res)
	}
}

func TestAuditCorrectsSingleError(t *testing.T) {
	cs := Multiply(randomMatrix(16, 1), randomMatrix(16, 2))
	orig := cs.C.At2(5, 3)
	cs.C.Set2(5, 3, orig*4)
	res := cs.Audit(0)
	if !res.Detected || res.Corrected != 1 || res.Uncorrectable {
		t.Fatalf("single error not corrected: %+v", res)
	}
	if math.Abs(cs.C.At2(5, 3)-orig) > 1e-6*math.Abs(orig) {
		t.Fatalf("corrected value %v, want %v", cs.C.At2(5, 3), orig)
	}
}

func TestAuditCorrectsLineError(t *testing.T) {
	// §III/[33]: single and line errors are corrected in linear time.
	cs := Multiply(randomMatrix(16, 1), randomMatrix(16, 2))
	var origs []float64
	for j := 2; j < 9; j++ {
		origs = append(origs, cs.C.At2(j, 6))
		cs.C.Set2(j, 6, cs.C.At2(j, 6)+float64(j))
	}
	res := cs.Audit(0)
	if !res.Detected || res.Uncorrectable {
		t.Fatalf("line error not correctable: %+v", res)
	}
	if res.Corrected != 7 {
		t.Fatalf("corrected %d, want 7", res.Corrected)
	}
	for idx, j := range []int{2, 3, 4, 5, 6, 7, 8} {
		if math.Abs(cs.C.At2(j, 6)-origs[idx]) > 1e-6*math.Abs(origs[idx]) {
			t.Fatalf("element %d not restored", j)
		}
	}
}

func TestAuditCorrectsColumnError(t *testing.T) {
	cs := Multiply(randomMatrix(16, 1), randomMatrix(16, 2))
	for i := 1; i < 5; i++ {
		cs.C.Set2(9, i, cs.C.At2(9, i)*2)
	}
	res := cs.Audit(0)
	if !res.Detected || res.Uncorrectable || res.Corrected != 4 {
		t.Fatalf("column error not corrected: %+v", res)
	}
}

func TestAuditDetectsSquareButCannotCorrect(t *testing.T) {
	// §III: "ABFT DGEMM can detect and correct single and line errors
	// but not square errors".
	cs := Multiply(randomMatrix(16, 1), randomMatrix(16, 2))
	for i := 3; i < 6; i++ {
		for j := 3; j < 6; j++ {
			cs.C.Set2(j, i, cs.C.At2(j, i)*3)
		}
	}
	res := cs.Audit(0)
	if !res.Detected {
		t.Fatal("square error not detected")
	}
	if !res.Uncorrectable {
		t.Fatal("square error should be uncorrectable")
	}
}

func TestAttachAuditsExternalProduct(t *testing.T) {
	c := randomMatrix(16, 3)
	cs := Attach(c)
	if cs.Audit(0).Detected {
		t.Fatal("untouched attach flagged")
	}
	cs.C.Set2(0, 0, cs.C.At2(0, 0)+1)
	if !cs.Audit(0).Detected {
		t.Fatal("corruption after attach not detected")
	}
}

func TestPatternCorrectable(t *testing.T) {
	cases := map[metrics.Pattern]bool{
		metrics.Single: true,
		metrics.Line:   true,
		metrics.Square: false,
		metrics.Cubic:  false,
		metrics.Random: false,
	}
	for p, want := range cases {
		if PatternCorrectable(p) != want {
			t.Fatalf("PatternCorrectable(%v) != %v", p, want)
		}
	}
}

func makeReport(coords []grid.Coord) *metrics.Report {
	rep := &metrics.Report{Dims: grid.Dims{X: 64, Y: 64, Z: 1}, TotalElements: 64 * 64}
	for _, c := range coords {
		rep.Mismatches = append(rep.Mismatches, metrics.Mismatch{
			Coord: c, Read: 1, Expected: 2, RelErrPct: 50,
		})
	}
	return rep
}

func TestEvaluateCoverage(t *testing.T) {
	reports := []*metrics.Report{
		makeReport([]grid.Coord{{X: 1, Y: 1}}),                                           // single
		makeReport([]grid.Coord{{X: 1, Y: 2}, {X: 5, Y: 2}}),                             // line
		makeReport([]grid.Coord{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 2}}), // square
		makeReport(nil), // clean
	}
	var cov Coverage
	for _, r := range reports {
		cov.Add(r)
	}
	if cov.Total != 4 || cov.Correctable != 2 || cov.DetectOnly != 1 || cov.CleanOrNoSDC != 1 {
		t.Fatalf("coverage wrong: %+v", cov)
	}
	if math.Abs(cov.CorrectableFraction()-2.0/3.0) > 1e-12 {
		t.Fatalf("fraction = %v", cov.CorrectableFraction())
	}
	if (Coverage{}).CorrectableFraction() != 0 {
		t.Fatal("empty coverage should be 0")
	}
}
