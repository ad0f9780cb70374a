package kernels

import (
	"testing"
	"testing/quick"
)

func TestValueAtDeterministicAndBounded(t *testing.T) {
	for i := 0; i < 200; i++ {
		for j := 0; j < 5; j++ {
			a := ValueAt(7, i, j, 0.5, 2.0)
			b := ValueAt(7, i, j, 0.5, 2.0)
			if a != b {
				t.Fatal("ValueAt not deterministic")
			}
			if a < 0.5 || a >= 2.0 {
				t.Fatalf("ValueAt out of range: %v", a)
			}
		}
	}
}

func TestValueAtKeySensitivity(t *testing.T) {
	// Different indices and seeds must decorrelate.
	if ValueAt(1, 0, 0, 0, 1) == ValueAt(2, 0, 0, 0, 1) {
		t.Fatal("seed not mixed in")
	}
	if ValueAt(1, 0, 0, 0, 1) == ValueAt(1, 1, 0, 0, 1) {
		t.Fatal("i not mixed in")
	}
	if ValueAt(1, 0, 0, 0, 1) == ValueAt(1, 0, 1, 0, 1) {
		t.Fatal("k not mixed in")
	}
}

func TestValueAtDistribution(t *testing.T) {
	// Mean of uniform [0,1) values keyed by index should be ~0.5.
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += ValueAt(99, i, 0, 0, 1)
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("ValueAt mean %v, want ~0.5", mean)
	}
}

func TestValueAtRangeProperty(t *testing.T) {
	f := func(seed uint64, i, k int16) bool {
		v := ValueAt(seed, int(i), int(k), -3, 7)
		return v >= -3 && v < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWords32(t *testing.T) {
	if Words32(8) != 16 {
		t.Fatal("8 words64 should be 16 words32")
	}
	if Words32(0) != 1 {
		t.Fatal("floor of 1 not applied")
	}
}

func TestProgressConsumed(t *testing.T) {
	if ProgressConsumed(0, 0, 0.5) {
		t.Fatal("zero total should never consume")
	}
	if !ProgressConsumed(5, 10, 0.5) {
		t.Fatal("index at the threshold should consume")
	}
	if ProgressConsumed(4, 10, 0.5) {
		t.Fatal("index before the threshold should not consume")
	}
	if !ProgressConsumed(0, 10, 0) {
		t.Fatal("when=0 consumes everything")
	}
}
