package fleet

import "testing"

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
