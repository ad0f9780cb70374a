// Package floatbits performs IEEE-754 bit surgery on float32 and float64
// values. A neutron strike that latches into a datapath or storage element
// manifests as one or more flipped bits in a word; where those bits land
// (sign, exponent, mantissa) determines the magnitude of the resulting
// numerical error, which is exactly what the paper's relative-error metric
// measures. This package is the lowest layer of the fault model.
package floatbits

import "math"

// Field identifies a region of an IEEE-754 word.
type Field int

const (
	// AnyField means the bit position is drawn over the whole word.
	AnyField Field = iota
	// Mantissa restricts flips to the fraction bits.
	Mantissa
	// LowMantissa restricts flips to the low half of the fraction, which
	// produces errors within typical floating-point noise.
	LowMantissa
	// HighMantissa restricts flips to the high half of the fraction.
	HighMantissa
	// Exponent restricts flips to the exponent bits (large magnitude errors).
	Exponent
	// Sign flips the sign bit.
	Sign
)

// String returns the field name.
func (f Field) String() string {
	switch f {
	case AnyField:
		return "any"
	case Mantissa:
		return "mantissa"
	case LowMantissa:
		return "low-mantissa"
	case HighMantissa:
		return "high-mantissa"
	case Exponent:
		return "exponent"
	case Sign:
		return "sign"
	default:
		return "unknown"
	}
}

// Float64 layout constants.
const (
	MantissaBits64 = 52
	ExponentBits64 = 11
	SignBit64      = 63
)

// Float32 layout constants.
const (
	MantissaBits32 = 23
	ExponentBits32 = 8
	SignBit32      = 31
)

// bitRange64 returns the half-open bit interval [lo, hi) of a field in a
// float64 word.
func bitRange64(f Field) (lo, hi int) {
	switch f {
	case Mantissa:
		return 0, MantissaBits64
	case LowMantissa:
		return 0, MantissaBits64 / 2
	case HighMantissa:
		return MantissaBits64 / 2, MantissaBits64
	case Exponent:
		return MantissaBits64, MantissaBits64 + ExponentBits64
	case Sign:
		return SignBit64, SignBit64 + 1
	default:
		return 0, 64
	}
}

// bitRange32 returns the half-open bit interval [lo, hi) of a field in a
// float32 word.
func bitRange32(f Field) (lo, hi int) {
	switch f {
	case Mantissa:
		return 0, MantissaBits32
	case LowMantissa:
		return 0, MantissaBits32 / 2
	case HighMantissa:
		return MantissaBits32 / 2, MantissaBits32
	case Exponent:
		return MantissaBits32, MantissaBits32 + ExponentBits32
	case Sign:
		return SignBit32, SignBit32 + 1
	default:
		return 0, 32
	}
}

// BitSource supplies bit positions; satisfied by *xrand.RNG.
type BitSource interface {
	Intn(n int) int
}

// FlipBit64 flips bit position pos (0 = LSB) of v.
func FlipBit64(v float64, pos int) float64 {
	if pos < 0 || pos > 63 {
		panic("floatbits: FlipBit64 position out of range")
	}
	return math.Float64frombits(math.Float64bits(v) ^ (1 << uint(pos)))
}

// FlipN64 flips n distinct uniformly chosen bits of v within field f.
// Flipping the same bit twice would cancel, so positions are deduplicated.
func FlipN64(v float64, n int, f Field, src BitSource) float64 {
	lo, hi := bitRange64(f)
	width := hi - lo
	if n >= width {
		// Flip the whole field.
		for p := lo; p < hi; p++ {
			v = FlipBit64(v, p)
		}
		return v
	}
	seen := make(map[int]bool, n)
	for len(seen) < n {
		p := lo + src.Intn(width)
		if seen[p] {
			continue
		}
		seen[p] = true
		v = FlipBit64(v, p)
	}
	return v
}

// Flip32 flips one uniformly chosen bit of v within field f.
func Flip32(v float32, f Field, src BitSource) float32 {
	lo, hi := bitRange32(f)
	return FlipBit32(v, lo+src.Intn(hi-lo))
}

// FlipBit32 flips bit position pos (0 = LSB) of v.
func FlipBit32(v float32, pos int) float32 {
	if pos < 0 || pos > 31 {
		panic("floatbits: FlipBit32 position out of range")
	}
	return math.Float32frombits(math.Float32bits(v) ^ (1 << uint(pos)))
}
