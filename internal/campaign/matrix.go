package campaign

import (
	"radcrit/internal/arch"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/lavamd"
)

// Cell is one (device, kernel) experiment of a campaign matrix.
type Cell struct {
	Dev  arch.Device
	Kern kernels.Kernel
}

// DGEMMCells returns the device's DGEMM input-size sweep as matrix cells.
func DGEMMCells(dev arch.Device, s Scale) []Cell {
	var cells []Cell
	for _, n := range DGEMMSizes(s, dev) {
		cells = append(cells, Cell{Dev: dev, Kern: dgemm.New(n)})
	}
	return cells
}

// LavaMDCells returns the device's LavaMD input-size sweep as matrix cells.
func LavaMDCells(dev arch.Device, s Scale) []Cell {
	var cells []Cell
	for _, g := range LavaMDSizes(s, dev) {
		cells = append(cells, Cell{Dev: dev, Kern: lavamd.New(g)})
	}
	return cells
}

// DeviceCells returns every standard experiment cell of one device: the
// DGEMM and LavaMD sweeps plus HotSpot and CLAMR at the scale's size.
func DeviceCells(dev arch.Device, s Scale) []Cell {
	cells := DGEMMCells(dev, s)
	cells = append(cells, LavaMDCells(dev, s)...)
	cells = append(cells,
		Cell{Dev: dev, Kern: HotSpotKernel(s)},
		Cell{Dev: dev, Kern: CLAMRKernel(s)})
	return cells
}
