package scratch

import (
	"sort"
	"testing"
)

func TestIndexMapBasic(t *testing.T) {
	var m IndexMap[float64]
	if _, ok := m.Get(7); ok {
		t.Fatal("zero-value map claims to hold a key")
	}
	m.Set(7, 1.5)
	m.Set(3, -2)
	m.Set(7, 4.5) // overwrite keeps one entry
	if len(m.keys) != 2 {
		t.Fatalf("Len = %d, want 2", len(m.keys))
	}
	if v, ok := m.Get(7); !ok || v != 4.5 {
		t.Fatalf("Get(7) = %v,%v", v, ok)
	}
	if v, ok := m.Get(3); !ok || v != -2 {
		t.Fatalf("Get(3) = %v,%v", v, ok)
	}
	if _, ok := m.Get(4); ok {
		t.Fatal("absent key reported present")
	}
}

func TestIndexMapRef(t *testing.T) {
	var m IndexMap[int]
	ref, fresh := m.Ref(10)
	if !fresh || *ref != 0 {
		t.Fatalf("first Ref: fresh=%v *ref=%d", fresh, *ref)
	}
	*ref = 5
	ref2, fresh2 := m.Ref(10)
	if fresh2 || *ref2 != 5 {
		t.Fatalf("second Ref: fresh=%v *ref=%d", fresh2, *ref2)
	}
	*ref2 += 3
	if v, _ := m.Get(10); v != 8 {
		t.Fatalf("accumulated value = %d, want 8", v)
	}
}

func TestIndexMapClearIsEmpty(t *testing.T) {
	var m IndexMap[int]
	for i := 0; i < 100; i++ {
		m.Set(i*977, i)
	}
	m.Clear()
	if len(m.keys) != 0 {
		t.Fatalf("Len after Clear = %d", len(m.keys))
	}
	for i := 0; i < 100; i++ {
		if _, ok := m.Get(i * 977); ok {
			t.Fatalf("key %d survived Clear", i*977)
		}
	}
	// The cleared map accepts the same and different keys afresh.
	m.Set(977, -1)
	if v, ok := m.Get(977); !ok || v != -1 {
		t.Fatalf("post-Clear Set/Get = %v,%v", v, ok)
	}
	if len(m.keys) != 1 {
		t.Fatalf("Keys after Clear+Set = %v", m.keys)
	}
}

func TestIndexMapGrowthKeepsEntries(t *testing.T) {
	var m IndexMap[int]
	const n = 10_000 // forces many doublings from minMapCap
	for i := 0; i < n; i++ {
		m.Set(i*31, i)
	}
	if len(m.keys) != n {
		t.Fatalf("Len = %d, want %d", len(m.keys), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(i * 31); !ok || v != i {
			t.Fatalf("Get(%d) = %v,%v after growth", i*31, v, ok)
		}
	}
}

func TestIndexMapEpochWrap(t *testing.T) {
	var m IndexMap[int]
	m.Set(1, 1)
	m.epoch = ^uint32(0) // one Clear away from wrapping
	m.Clear()
	if m.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.epoch)
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("entry resurrected across epoch wrap")
	}
	m.Set(2, 2)
	if v, ok := m.Get(2); !ok || v != 2 {
		t.Fatalf("post-wrap Set/Get = %v,%v", v, ok)
	}
}

func TestIndexMapSortedKeys(t *testing.T) {
	var m IndexMap[string]
	for _, k := range []int{42, 7, 1000, 0, 13} {
		m.Set(k, "x")
	}
	got := m.SortedKeys()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("SortedKeys not sorted: %v", got)
	}
	want := []int{0, 7, 13, 42, 1000}
	for i, k := range want {
		if got[i] != k {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
}

// The map's whole point: a warm working set recycles with zero allocation.
func TestIndexMapSteadyStateAllocFree(t *testing.T) {
	var m IndexMap[float64]
	work := func() {
		m.Clear()
		for i := 0; i < 200; i++ {
			m.Set(i*131071, float64(i))
		}
		m.SortedKeys()
	}
	work() // warm to peak capacity
	if avg := testing.AllocsPerRun(50, work); avg != 0 {
		t.Fatalf("steady-state allocs per Clear+200 inserts = %v, want 0", avg)
	}
}

func TestPool(t *testing.T) {
	built := 0
	p := NewNamedPool("scratch.test", func() *[]int {
		built++
		s := make([]int, 4)
		return &s
	})
	a := p.Get()
	if built != 1 || len(*a) != 4 {
		t.Fatalf("cold Get: built=%d len=%d", built, len(*a))
	}
	p.Put(a)
	b := p.Get()
	if b != a {
		// sync.Pool may drop values under GC pressure; only flag the
		// constructor double-firing when the same value was available.
		t.Logf("pool returned a different value (allowed): built=%d", built)
	}
}

func TestZeroBox(t *testing.T) {
	const stride, rows = 8, 6
	buf := make([]float64, stride*rows)
	for i := range buf {
		buf[i] = 1
	}
	ZeroBox(buf, stride, 2, 1, 5, 3)
	for y := 0; y < rows; y++ {
		for x := 0; x < stride; x++ {
			in := x >= 2 && x <= 5 && y >= 1 && y <= 3
			got := buf[y*stride+x]
			if in && got != 0 {
				t.Fatalf("cell (%d,%d) inside box not zeroed", x, y)
			}
			if !in && got != 1 {
				t.Fatalf("cell (%d,%d) outside box clobbered", x, y)
			}
		}
	}
	// Degenerate boxes are no-ops.
	ZeroBox(buf, stride, 5, 5, 2, 2)
	ZeroBox(buf, 0, 0, 0, 1, 1)
	// Clamped boxes stay in bounds.
	ZeroBox(buf, stride, -3, -2, stride+5, rows+5)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("full-grid clamp left cell %d = %v", i, v)
		}
	}
}
