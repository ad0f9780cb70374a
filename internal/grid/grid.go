// Package grid provides dense 1-, 2- and 3-dimensional float64 arrays with
// the index arithmetic used by every kernel output in the suite. HPC output
// data "is common ... to be structured as two or three-dimensional arrays"
// (paper §III); the spatial-locality metric needs coordinates, so outputs
// carry their shape rather than being flat slices.
package grid

import "fmt"

// Dims describes the shape of an output array. A scalar axis is 1, so a
// 2D matrix is {X, Y, 1} and a 1D vector {X, 1, 1}.
type Dims struct {
	X, Y, Z int
}

// Len returns the number of elements.
func (d Dims) Len() int { return d.X * d.Y * d.Z }

// Valid reports whether all axes are positive.
func (d Dims) Valid() bool { return d.X > 0 && d.Y > 0 && d.Z > 0 }

// String formats dims as "XxYxZ" omitting trailing unit axes.
func (d Dims) String() string {
	switch {
	case d.Z > 1:
		return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z)
	case d.Y > 1:
		return fmt.Sprintf("%dx%d", d.X, d.Y)
	default:
		return fmt.Sprintf("%d", d.X)
	}
}

// Coord is an element position within a grid.
type Coord struct {
	X, Y, Z int
}

// Grid is a dense row-major float64 array with explicit shape.
type Grid struct {
	dims Dims
	data []float64
}

// New allocates a zeroed grid of the given shape. It panics on invalid dims.
func New(d Dims) *Grid {
	if !d.Valid() {
		panic(fmt.Sprintf("grid: invalid dims %+v", d))
	}
	return &Grid{dims: d, data: make([]float64, d.Len())}
}

// New2D allocates an x-by-y matrix.
func New2D(x, y int) *Grid { return New(Dims{X: x, Y: y, Z: 1}) }

// Dims returns the shape.
func (g *Grid) Dims() Dims { return g.dims }

// Len returns the number of elements.
func (g *Grid) Len() int { return len(g.data) }

// Data returns the backing slice (row-major; x fastest).
func (g *Grid) Data() []float64 { return g.data }

// Index converts a coordinate to a flat offset.
func (g *Grid) Index(c Coord) int {
	return (c.Z*g.dims.Y+c.Y)*g.dims.X + c.X
}

// CoordOf converts a flat offset to a coordinate.
func (g *Grid) CoordOf(i int) Coord {
	x := i % g.dims.X
	rest := i / g.dims.X
	y := rest % g.dims.Y
	z := rest / g.dims.Y
	return Coord{X: x, Y: y, Z: z}
}

// Set stores v at c.
func (g *Grid) Set(c Coord, v float64) { g.data[g.Index(c)] = v }

// At2 returns the element at (x, y) of a 2D grid.
func (g *Grid) At2(x, y int) float64 { return g.data[y*g.dims.X+x] }

// Set2 stores v at (x, y) of a 2D grid.
func (g *Grid) Set2(x, y int, v float64) { g.data[y*g.dims.X+x] = v }

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	out := New(g.dims)
	copy(out.data, g.data)
	return out
}
