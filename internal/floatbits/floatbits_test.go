package floatbits

import (
	"math"
	"testing"
	"testing/quick"

	"radcrit/internal/xrand"
)

func TestFlipBit64Involution(t *testing.T) {
	f := func(v float64, pos uint8) bool {
		p := int(pos) % 64
		return FlipBit64(FlipBit64(v, p), p) == v ||
			math.IsNaN(v) // NaN payload round-trips bitwise but != compares false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBit64Changes(t *testing.T) {
	v := 1.5
	for pos := 0; pos < 64; pos++ {
		flipped := FlipBit64(v, pos)
		if math.Float64bits(flipped) == math.Float64bits(v) {
			t.Fatalf("flip at %d did not change bits", pos)
		}
		diff := math.Float64bits(flipped) ^ math.Float64bits(v)
		if diff != 1<<uint(pos) {
			t.Fatalf("flip at %d changed wrong bits: %x", pos, diff)
		}
	}
}

func TestFlipBit64PanicsOutOfRange(t *testing.T) {
	for _, pos := range []int{-1, 64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FlipBit64 pos=%d did not panic", pos)
				}
			}()
			FlipBit64(1.0, pos)
		}()
	}
}

func TestFlipBit32Involution(t *testing.T) {
	f := func(v float32, pos uint8) bool {
		p := int(pos) % 32
		r := FlipBit32(FlipBit32(v, p), p)
		return math.Float32bits(r) == math.Float32bits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignFlip(t *testing.T) {
	rng := xrand.New(1)
	v := FlipN64(3.25, 1, Sign, rng)
	if v != -3.25 {
		t.Fatalf("sign flip of 3.25 = %v", v)
	}
}

func TestLowMantissaFlipIsSmall(t *testing.T) {
	rng := xrand.New(2)
	for i := 0; i < 1000; i++ {
		orig := 1.0 + rng.Float64()
		v := FlipN64(orig, 1, LowMantissa, rng)
		rel := math.Abs(v-orig) / math.Abs(orig)
		if rel > 1e-7 {
			t.Fatalf("low-mantissa flip relative error %v too large (orig %v -> %v)", rel, orig, v)
		}
		if v == orig {
			t.Fatal("flip did not change value")
		}
	}
}

func TestExponentFlipIsLarge(t *testing.T) {
	// The smallest possible exponent flip changes the value by a factor of
	// 2 (or 1/2), i.e. at least a 50% relative error. Every exponent flip
	// must therefore be "large" next to floating-point noise.
	rng := xrand.New(3)
	for i := 0; i < 1000; i++ {
		orig := 1.0 + rng.Float64()
		v := FlipN64(orig, 1, Exponent, rng)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue // overflowed to Inf: certainly large
		}
		rel := math.Abs(v-orig) / math.Abs(orig)
		if rel < 0.499 {
			t.Fatalf("exponent flip relative error %v < 50%% (orig %v -> %v)", rel, orig, v)
		}
	}
}

func TestFlipN64DistinctBits(t *testing.T) {
	rng := xrand.New(5)
	orig := 123.456
	v := FlipN64(orig, 4, Mantissa, rng)
	diff := math.Float64bits(v) ^ math.Float64bits(orig)
	if popcount(diff) != 4 {
		t.Fatalf("FlipN64 flipped %d bits, want 4", popcount(diff))
	}
	if diff>>MantissaBits64 != 0 {
		t.Fatal("FlipN64 escaped the mantissa field")
	}
}

func TestFlipN64WholeField(t *testing.T) {
	rng := xrand.New(6)
	orig := 1.0
	v := FlipN64(orig, 100, Exponent, rng)
	diff := math.Float64bits(v) ^ math.Float64bits(orig)
	wantMask := uint64((1<<ExponentBits64)-1) << MantissaBits64
	if diff != wantMask {
		t.Fatalf("FlipN64 over-large n: diff %x, want %x", diff, wantMask)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestFlip32FieldBounds(t *testing.T) {
	rng := xrand.New(8)
	for i := 0; i < 1000; i++ {
		orig := float32(1.0 + rng.Float64())
		v := Flip32(orig, LowMantissa, rng)
		diff := math.Float32bits(v) ^ math.Float32bits(orig)
		if diff == 0 {
			t.Fatal("Flip32 did not change value")
		}
		if diff>>(MantissaBits32/2) != 0 {
			t.Fatalf("Flip32 low-mantissa escaped field: %x", diff)
		}
	}
}

func TestFieldString(t *testing.T) {
	fields := []Field{AnyField, Mantissa, LowMantissa, HighMantissa, Exponent, Sign, Field(99)}
	for _, f := range fields {
		if f.String() == "" {
			t.Fatalf("empty string for field %d", f)
		}
	}
}

func TestFlip64AllFieldsStayInField(t *testing.T) {
	rng := xrand.New(9)
	checks := []struct {
		f    Field
		mask uint64
	}{
		{Mantissa, (1 << MantissaBits64) - 1},
		{Exponent, ((1 << ExponentBits64) - 1) << MantissaBits64},
		{Sign, 1 << SignBit64},
		{AnyField, ^uint64(0)},
	}
	for _, c := range checks {
		for i := 0; i < 200; i++ {
			orig := rng.Float64()*100 - 50
			v := FlipN64(orig, 1, c.f, rng)
			diff := math.Float64bits(v) ^ math.Float64bits(orig)
			if diff&^c.mask != 0 {
				t.Fatalf("field %v flip escaped mask: %x", c.f, diff)
			}
			if popcount(diff) != 1 {
				t.Fatalf("field %v flip flipped %d bits", c.f, popcount(diff))
			}
		}
	}
}
