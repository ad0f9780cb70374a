package fleet

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestLogBufferSnapshotCopiesOnlyNewChunks: a heartbeat tick reads the
// flushed strike count first and copies the log only when a chunk has
// flushed past the last acknowledged send.
func TestLogBufferSnapshotCopiesOnlyNewChunks(t *testing.T) {
	buf := &logBuffer{}
	buf.Write([]byte("#HEADER\n#CHK next:50\n"))
	buf.setFlushed(50)

	// Nothing new since the send acknowledged at 50: no copy, no allocation.
	if n, log := buf.snapshot(50); n != 50 || log != nil {
		t.Fatalf("snapshot(50) = (%d, %q), want (50, nil)", n, log)
	}
	if a := testing.AllocsPerRun(10, func() { buf.snapshot(50) }); a != 0 {
		t.Fatalf("snapshot with no new chunk allocated %v times, want 0", a)
	}

	// A chunk flushed past the last send: the whole log, as a copy the
	// caller owns while the engine keeps appending.
	n, log := buf.snapshot(0)
	if n != 50 || string(log) != "#HEADER\n#CHK next:50\n" {
		t.Fatalf("snapshot(0) = (%d, %q), want the full log at 50", n, log)
	}
	buf.Write([]byte("#SDC exec:51\n"))
	if string(log) != "#HEADER\n#CHK next:50\n" {
		t.Fatalf("snapshot aliases the live buffer: %q", log)
	}

	// The abandon path always takes the log, even before any chunk.
	empty := &logBuffer{}
	empty.Write([]byte("#HEADER\n"))
	if n, log := empty.snapshot(-1); n != 0 || string(log) != "#HEADER\n" {
		t.Fatalf("snapshot(-1) = (%d, %q), want (0, the header)", n, log)
	}
}

// TestLogBufferBlocksConcatenate: writes of every awkward size — empty,
// one byte, exactly a block, more than a block, and runs that straddle
// block boundaries — come back from snapshot(-1) as their concatenation.
func TestLogBufferBlocksConcatenate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	var random []int
	for total := 0; total < 3*logBlockSize; {
		n := rng.Intn(1 << 17)
		random = append(random, n)
		total += n
	}
	cases := []struct {
		name  string
		sizes []int
	}{
		{"none", nil},
		{"empty", []int{0, 0}},
		{"one byte", []int{1}},
		{"exactly one block", []int{logBlockSize}},
		{"block then byte", []int{logBlockSize, 1}},
		{"larger than a block", []int{3*logBlockSize + 7}},
		{"straddles a boundary", []int{logBlockSize - 3, 10, 0, logBlockSize}},
		{"ends on a boundary", []int{logBlockSize / 2, logBlockSize / 2, logBlockSize - 1, 1}},
		{"random", random},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := &logBuffer{}
			var want []byte
			for _, n := range tc.sizes {
				p := fill(n)
				if got, err := buf.Write(p); got != n || err != nil {
					t.Fatalf("Write(%d bytes) = (%d, %v)", n, got, err)
				}
				want = append(want, p...)
			}
			_, got := buf.snapshot(-1)
			if !bytes.Equal(got, want) {
				t.Fatalf("snapshot(-1) holds %d bytes, want the %d written", len(got), len(want))
			}
			if len(got) > 0 && cap(got) != len(got) {
				t.Fatalf("snapshot has cap %d for %d bytes, want exact size", cap(got), len(got))
			}
			// A block that regrew would have moved the bytes already in it.
			for i, blk := range buf.blocks {
				if cap(blk) != logBlockSize {
					t.Fatalf("block %d has cap %d, want %d: it regrew", i, cap(blk), logBlockSize)
				}
				if i < len(buf.blocks)-1 && len(blk) != logBlockSize {
					t.Fatalf("block %d of %d holds %d bytes, want a full block", i, len(buf.blocks), len(blk))
				}
			}
		})
	}
}

// TestLogBufferSnapshotDoesNotAlias: a snapshot is the caller's own copy.
// Later writes — into the block it was cut from, or into new blocks — do
// not change it, and changing it does not change the buffer.
func TestLogBufferSnapshotDoesNotAlias(t *testing.T) {
	buf := &logBuffer{}
	buf.Write(bytes.Repeat([]byte("a"), logBlockSize-2))
	buf.setFlushed(1)
	_, snap := buf.snapshot(-1)
	want := append([]byte(nil), snap...)

	buf.Write([]byte("bbbb")) // fills the first block and starts a second
	if !bytes.Equal(snap, want) {
		t.Fatal("a write after the snapshot changed it")
	}
	snap[0] = 'z'
	if _, again := buf.snapshot(-1); again[0] != 'a' || len(again) != logBlockSize+2 {
		t.Fatalf("snapshot aliases the buffer: first byte %q, length %d", again[0], len(again))
	}
}

// BenchmarkLogBufferWrite writes a 40 MiB log, the size of a large
// dgemm:128 cell's, in the 64 KiB flushes the checkpoint stream makes.
// With -benchmem the allocated bytes per op should be about the log size:
// every byte is copied once and nothing written is moved.
func BenchmarkLogBufferWrite(b *testing.B) {
	const logSize, flush = 40 << 20, 64 << 10
	line := []byte("#ERR 1 2 0x1p+00 0x1p+01\n")
	p := bytes.Repeat(line, flush/len(line)+1)[:flush]
	b.SetBytes(logSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := &logBuffer{}
		for n := 0; n < logSize; n += flush {
			buf.Write(p)
		}
	}
}
