package grid

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDimsString(t *testing.T) {
	if (Dims{4, 1, 1}).String() != "4" {
		t.Fatal("1D string wrong")
	}
	if (Dims{4, 5, 1}).String() != "4x5" {
		t.Fatal("2D string wrong")
	}
	if (Dims{4, 5, 6}).String() != "4x5x6" {
		t.Fatal("3D string wrong")
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	g := New(Dims{X: 7, Y: 5, Z: 3})
	for i := 0; i < g.Len(); i++ {
		c := g.CoordOf(i)
		if g.Index(c) != i {
			t.Fatalf("round trip failed at %d -> %+v -> %d", i, c, g.Index(c))
		}
		if d := g.Dims(); c.X < 0 || c.X >= d.X || c.Y < 0 || c.Y >= d.Y || c.Z < 0 || c.Z >= d.Z {
			t.Fatalf("CoordOf produced out-of-bounds %+v", c)
		}
	}
}

func TestIndexCoordProperty(t *testing.T) {
	g := New(Dims{X: 11, Y: 9, Z: 4})
	f := func(raw uint16) bool {
		i := int(raw) % g.Len()
		return g.Index(g.CoordOf(i)) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtSet(t *testing.T) {
	g := New2D(4, 3)
	g.Set(Coord{X: 2, Y: 1}, 42)
	if g.Data()[g.Index(Coord{X: 2, Y: 1})] != 42 {
		t.Fatal("Set/Index mismatch")
	}
	if g.At2(2, 1) != 42 {
		t.Fatal("At2 disagrees with Set")
	}
	g.Set2(3, 2, 7)
	if g.Data()[g.Index(Coord{X: 3, Y: 2})] != 7 {
		t.Fatal("Set2 disagrees with Index")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(Dims{X: 5, Y: 1, Z: 1})
	for i := range g.Data() {
		g.Data()[i] = 1
	}
	c := g.Clone()
	c.Data()[0] = 99
	if g.Data()[0] != 1 {
		t.Fatal("Clone shares backing store")
	}
	if c := g.Clone(); c.Dims() != g.Dims() || !slices.Equal(c.Data(), g.Data()) {
		t.Fatal("Clone not equal to source")
	}
}

func TestNewPanicsOnInvalidDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero axis did not panic")
		}
	}()
	New(Dims{X: 0, Y: 1, Z: 1})
}

func TestRowMajorOrder(t *testing.T) {
	g := New(Dims{X: 2, Y: 2, Z: 2})
	for i := 0; i < 8; i++ {
		g.Data()[i] = float64(i)
	}
	// x fastest, then y, then z.
	if g.Data()[g.Index(Coord{X: 1, Y: 0, Z: 0})] != 1 {
		t.Fatal("x stride wrong")
	}
	if g.Data()[g.Index(Coord{X: 0, Y: 1, Z: 0})] != 2 {
		t.Fatal("y stride wrong")
	}
	if g.Data()[g.Index(Coord{X: 0, Y: 0, Z: 1})] != 4 {
		t.Fatal("z stride wrong")
	}
}
