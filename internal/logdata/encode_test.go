package logdata

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"testing"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/metrics"
)

// FuzzEventEncodingMatchesFmt pins the append-based encoder byte for byte
// to the frozen fmt oracle (oracle_test.go): any float64 bit pattern (NaN
// payloads, signed zeros, infinities, subnormals), any exec index and
// coordinates, free-text fields that are empty or hold spaces, every
// event class, and a #CHK record over the same integers.
func FuzzEventEncodingMatchesFmt(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint8(1), 3, "register-file", "accum-term", 1, 2, 0, bits(1.5), bits(1.0), uint8(2))
	f.Add(uint8(1), -7, "", "", -1, math.MaxInt64, math.MinInt64, uint64(0x7ff8000000000001), uint64(1)<<63, uint8(3))
	f.Add(uint8(2), 10, "l2 cache", "", 0, 0, 0, bits(math.Inf(1)), uint64(1), uint8(0))
	f.Add(uint8(3), 1<<40, " lead and trail ", "a b", 5, 6, 7, bits(math.Inf(-1)), uint64(0x000fffffffffffff), uint8(1))
	f.Add(uint8(0), 0, "masked", "-", 0, 0, 0, uint64(0), uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, class uint8, exec int, resource, scope string, x, y, z int, readBits, expBits uint64, n uint8) {
		classes := []fault.OutcomeClass{fault.Masked, fault.SDC, fault.Crash, fault.Hang}
		e := Event{Class: classes[int(class)%len(classes)], Exec: exec, Resource: resource, Scope: scope}
		read, exp := math.Float64frombits(readBits), math.Float64frombits(expBits)
		for k := 0; k < int(n%4); k++ {
			// Vary each line so a stale byte left in the reused line
			// buffer by a longer previous line would show.
			e.Mismatches = append(e.Mismatches, metrics.Mismatch{
				Coord: grid.Coord{X: x + k, Y: y - k, Z: z ^ k}, Read: read, Expected: exp})
			read, exp = exp, math.Float64frombits(readBits>>k)
		}

		var want, got bytes.Buffer
		bw := bufio.NewWriter(&want)
		fmtWriteEvent(bw, e)
		fmtCheckpoint(bw, exec, x, y, z)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		bw = bufio.NewWriter(&got)
		line := writeEvent(bw, []byte("#stale scratch from an earlier, much longer line"), e)
		bw.Write(appendCheckpoint(line[:0], exec, x, y, z))
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encoder diverges from the fmt oracle\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}

// sdcEvent builds an SDC of n corrupted elements of a 128-wide output,
// the shape a dgemm:128 strike logs.
func sdcEvent(n int) Event {
	e := Event{Class: fault.SDC, Exec: 123456, Resource: "register-file", Scope: "accum-term"}
	for k := 0; k < n; k++ {
		exp := 0.1 + float64(k)
		e.Mismatches = append(e.Mismatches, metrics.Mismatch{
			Coord: grid.Coord{X: k % 128, Y: k / 128}, Read: exp * 1.000001, Expected: exp})
	}
	return e
}

// TestStreamWriterEventAllocFree pins the write path's steady state: once
// the writer's line buffer has grown, a 1,000-mismatch SDC and a
// checkpoint allocate nothing.
func TestStreamWriterEventAllocFree(t *testing.T) {
	sw, err := NewStreamWriter(io.Discard, fuzzSampleLog())
	if err != nil {
		t.Fatal(err)
	}
	ev := sdcEvent(1000)
	if err := sw.WriteEvent(ev); err != nil { // grows the line buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
		if err := sw.Checkpoint(1 << 20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteEvent+Checkpoint allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkStreamWriterSDC measures the encoder on a 1,000-mismatch SDC.
func BenchmarkStreamWriterSDC(b *testing.B) {
	sw, err := NewStreamWriter(io.Discard, fuzzSampleLog())
	if err != nil {
		b.Fatal(err)
	}
	ev := sdcEvent(1000)
	b.ReportAllocs()
	for b.Loop() {
		if err := sw.WriteEvent(ev); err != nil {
			b.Fatal(err)
		}
	}
}
