package logdata

import (
	"strings"
	"testing"

	"radcrit/internal/fault"
)

func TestStreamWriterRejectsMaskedEvents(t *testing.T) {
	var sb strings.Builder
	sw, err := NewStreamWriter(&sb, fuzzSampleLog())
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(Event{Class: fault.Masked, Exec: 1}); err == nil {
		t.Fatal("masked outcomes are counted, not written as events; WriteEvent must reject them")
	}
	if err := sw.Close(); err == nil {
		t.Fatal("the write error must be sticky through Close")
	}
}

func TestParseResumeCheckpointSemantics(t *testing.T) {
	meta := fuzzSampleLog()
	var sb strings.Builder
	sw, err := NewStreamWriter(&sb, meta)
	if err != nil {
		t.Fatal(err)
	}
	sw.AddMasked(5)
	if err := sw.WriteEvent(meta.Events[0]); err != nil { // SDC with 2 mismatches
		t.Fatal(err)
	}
	if err := sw.Checkpoint(8); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(Event{Class: fault.Crash, Exec: 9, Resource: "bus"}); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash after the unflushed crash event.
	res, err := ParseResume(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("log without trailer reported complete")
	}
	if res.Next != 8 || res.Masked != 5 {
		t.Fatalf("resume point (next %d, masked %d), want (8, 5)", res.Next, res.Masked)
	}
	if len(res.Log.Events) != 1 || res.Log.Events[0].Class != fault.SDC {
		t.Fatalf("salvage kept %d events, want the 1 checkpointed SDC", len(res.Log.Events))
	}
	if len(res.Log.Events[0].Mismatches) != 2 {
		t.Fatalf("salvaged SDC has %d mismatches, want 2", len(res.Log.Events[0].Mismatches))
	}
	if res.Log.Device != meta.Device || res.Log.Seed != meta.Seed {
		t.Fatal("salvage lost header metadata")
	}

	// Truncating inside the checkpointed region falls back to re-running
	// everything: the #CHK line itself is gone.
	cut := strings.Index(sb.String(), "#CHK")
	res2, err := ParseResume(strings.NewReader(sb.String()[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Next != 0 || len(res2.Log.Events) != 0 {
		t.Fatalf("pre-checkpoint truncation should salvage nothing, got next %d, %d events",
			res2.Next, len(res2.Log.Events))
	}

	// A torn final line that still parses — "masked:5" truncated to
	// "masked:" mid-checkpoint — must be discarded (it lacks its
	// newline), not trusted or treated as fatal.
	torn := sb.String()[:cut+len("#CHK next:8 masked:")]
	res3, err := ParseResume(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn #CHK line should be discarded, got error: %v", err)
	}
	if res3.Next != 0 || res3.Complete {
		t.Fatalf("torn #CHK trusted: %+v", res3)
	}
}

// TestEpochRoundTrip pins the #EPOCH record through both parsers: the
// streamed mark comes back bit-exact (hex-float half-width) from the
// strict parser and from salvage.
func TestEpochRoundTrip(t *testing.T) {
	meta := fuzzSampleLog()
	var sb strings.Builder
	sw, err := NewStreamWriter(&sb, meta)
	if err != nil {
		t.Fatal(err)
	}
	sw.AddMasked(5)
	if err := sw.WriteEvent(meta.Events[0]); err != nil { // one SDC
		t.Fatal(err)
	}
	if err := sw.Checkpoint(50); err != nil {
		t.Fatal(err)
	}
	mark := EpochMark{Epoch: 1, Alloc: 300, Consumed: 50, SDC: 1, HalfWidth: 0x1.91a7p-04, Stopped: true}
	if err := sw.WriteEpoch(mark); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	parsed, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Epochs) != 1 || parsed.Epochs[0] != mark {
		t.Fatalf("strict parse epochs = %+v, want [%+v]", parsed.Epochs, mark)
	}

	res, err := ParseResume(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("closed log not complete")
	}
	if len(res.Log.Epochs) != 1 || res.Log.Epochs[0] != mark {
		t.Fatalf("salvage epochs = %+v, want [%+v]", res.Log.Epochs, mark)
	}

	// A count-inconsistent epoch is a hard error for the strict parser...
	bad := strings.Replace(sb.String(), "sdc:1 hw:", "sdc:3 hw:", 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Fatal("strict parser accepted an epoch disagreeing with the body")
	}
	// ...and a corrupt tail for salvage: the #CHK before it survives.
	res2, err := ParseResume(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Complete || len(res2.Log.Epochs) != 0 || res2.Next != 50 {
		t.Fatalf("inconsistent epoch salvage: %+v epochs %+v", res2, res2.Log.Epochs)
	}
}

// TestParseResumeDropsEpochPastSalvage: an epoch record annotating work
// beyond the last trusted checkpoint is discarded with that work.
func TestParseResumeDropsEpochPastSalvage(t *testing.T) {
	meta := fuzzSampleLog()
	var sb strings.Builder
	sw, err := NewStreamWriter(&sb, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Checkpoint(50); err != nil {
		t.Fatal(err)
	}
	keep := EpochMark{Epoch: 1, Alloc: 300, Consumed: 50, SDC: 0}
	if err := sw.WriteEpoch(keep); err != nil {
		t.Fatal(err)
	}
	// Epoch at a checkpoint whose #CHK got damaged: the mark's consumed
	// count points past the salvage point.
	drop := EpochMark{Epoch: 2, Alloc: 300, Consumed: 100, SDC: 0}
	if err := sw.WriteEpoch(drop); err != nil {
		t.Fatal(err)
	}
	// No Close, no #CHK at 100: the log tears here.
	res, err := ParseResume(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Next != 50 {
		t.Fatalf("next = %d, want 50", res.Next)
	}
	if len(res.Log.Epochs) != 1 || res.Log.Epochs[0] != keep {
		t.Fatalf("salvage epochs = %+v, want just %+v", res.Log.Epochs, keep)
	}
}

// TestParseResumeTornTrailer pins the #END defences: a trailer torn
// mid-line (still syntactically valid) must not mark the log complete,
// and a complete-looking trailer whose counts disagree with the body is
// a corrupt tail, not a finished campaign.
func TestParseResumeTornTrailer(t *testing.T) {
	meta := fuzzSampleLog()
	var sb strings.Builder
	sw, err := NewStreamWriter(&sb, meta)
	if err != nil {
		t.Fatal(err)
	}
	sw.AddMasked(20)
	for _, ev := range meta.Events {
		if err := sw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Checkpoint(30); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	full := sb.String()

	// Tear the trailer one byte short: "masked:20" reads "masked:2".
	res, err := ParseResume(strings.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("torn #END accepted as completion")
	}
	if res.Next != 30 || res.Masked != 20 {
		t.Fatalf("torn trailer lost the checkpoint: %+v", res)
	}

	// A newline-terminated #END with body-inconsistent counts is corrupt.
	bad := strings.Replace(full, "#END sdc:1", "#END sdc:7", 1)
	res2, err := ParseResume(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Complete {
		t.Fatal("count-inconsistent #END accepted as completion")
	}
	if res2.Next != 30 {
		t.Fatalf("corrupt trailer lost the checkpoint: %+v", res2)
	}
}
