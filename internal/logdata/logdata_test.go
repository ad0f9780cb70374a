package logdata

import (
	"io"
	"math"
	"strings"
	"testing"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/metrics"
)

func sampleLog() *Log {
	return &Log{
		Device:     "K40",
		Kernel:     "DGEMM",
		Input:      "2048x2048",
		Facility:   "LANSCE",
		Seed:       42,
		Executions: 100000,
		BeamHours:  12.5,
		OutputDims: grid.Dims{X: 2048, Y: 2048, Z: 1},
		Events: []Event{
			{
				Class:    fault.SDC,
				Exec:     13,
				Resource: "l2-cache",
				Scope:    "cache-line",
				Mismatches: []metrics.Mismatch{
					{Coord: grid.Coord{X: 5, Y: 7}, Read: 1.25, Expected: 2.5,
						RelErrPct: metrics.RelativeErrorPct(1.25, 2.5)},
					{Coord: grid.Coord{X: 6, Y: 7}, Read: 1e-300, Expected: 3.25,
						RelErrPct: metrics.RelativeErrorPct(1e-300, 3.25)},
				},
			},
			{Class: fault.Crash, Exec: 20, Resource: "scheduler"},
			{Class: fault.Hang, Exec: 31, Resource: "control-logic"},
		},
	}
}

// writeLog serialises l through a StreamWriter: its masked count and
// events, then the trailer, with no #CHK or #EPOCH records.
func writeLog(w io.Writer, l *Log) error {
	sw, err := NewStreamWriter(w, l)
	if err != nil {
		return err
	}
	sw.AddMasked(l.Masked)
	for _, ev := range l.Events {
		if err := sw.WriteEvent(ev); err != nil {
			return err
		}
	}
	return sw.Close()
}

func TestWriteParseRoundTrip(t *testing.T) {
	l := sampleLog()
	var sb strings.Builder
	if err := writeLog(&sb, l); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Device != l.Device || got.Kernel != l.Kernel || got.Input != l.Input ||
		got.Facility != l.Facility || got.Seed != l.Seed ||
		got.Executions != l.Executions || got.OutputDims != l.OutputDims {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.BeamHours != l.BeamHours {
		t.Fatalf("beam hours %v != %v (hex float round trip)", got.BeamHours, l.BeamHours)
	}
	if len(got.Events) != len(l.Events) {
		t.Fatalf("events %d != %d", len(got.Events), len(l.Events))
	}
	for i, e := range got.Events {
		want := l.Events[i]
		if e.Class != want.Class || e.Exec != want.Exec || e.Resource != want.Resource {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, e, want)
		}
		for j, m := range e.Mismatches {
			wm := want.Mismatches[j]
			if m.Read != wm.Read || m.Expected != wm.Expected || m.Coord != wm.Coord {
				t.Fatalf("mismatch %d/%d: %+v vs %+v", i, j, m, wm)
			}
		}
	}
}

func TestExactFloatRoundTrip(t *testing.T) {
	l := sampleLog()
	// Use a value with no short decimal representation.
	l.Events[0].Mismatches[0].Read = math.Nextafter(1.0, 2.0)
	var sb strings.Builder
	if err := writeLog(&sb, l); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[0].Mismatches[0].Read != math.Nextafter(1.0, 2.0) {
		t.Fatal("float not bit-exact after round trip")
	}
}

func TestCounts(t *testing.T) {
	l := sampleLog()
	if l.SDCCount() != 1 || l.CrashHangCount() != 2 {
		t.Fatal("counts wrong")
	}
}

func TestReports(t *testing.T) {
	l := sampleLog()
	reps := l.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[0].Count() != 2 {
		t.Fatal("mismatch count wrong")
	}
	if reps[0].TotalElements != 2048*2048 {
		t.Fatal("total elements wrong")
	}
	// Different filters can be re-applied offline (the whole point of
	// publishing logs).
	if reps[0].Filter(49).Count() != 2 {
		t.Fatal("both mismatches exceed 49%")
	}
	if reps[0].Filter(51).Count() != 1 {
		t.Fatal("only one mismatch exceeds 51%")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []string{
		"not a log",
		"#WHAT x:1",
		"#ERR x:1 y:2 z:0 read:1 expected:2", // ERR outside SDC
		"#HEADER device:K40 kernel:D input:i facility:L seed:zzz dims:1,1,1",
		"#HEADER device:K40 kernel:D input:i facility:L seed:1 dims:1,1",
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted malformed log %q", c)
		}
	}
}

func TestParseDetectsTrailerMismatch(t *testing.T) {
	l := sampleLog()
	var sb strings.Builder
	if err := writeLog(&sb, l); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(sb.String(), "#END sdc:1", "#END sdc:9", 1)
	if _, err := Parse(strings.NewReader(corrupted)); err == nil {
		t.Fatal("trailer mismatch not detected")
	}
}

func TestEmptyFieldsRoundTrip(t *testing.T) {
	l := sampleLog()
	l.Events[1].Resource = ""
	var sb strings.Builder
	if err := writeLog(&sb, l); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[1].Resource != "" {
		t.Fatal("empty field did not round trip")
	}
}

func TestSpacesInFields(t *testing.T) {
	l := sampleLog()
	l.Device = "NVIDIA Tesla K40"
	var sb strings.Builder
	if err := writeLog(&sb, l); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Device, "NVIDIA") {
		t.Fatalf("device mangled: %q", got.Device)
	}
	// The escaping is lossy: Parse yields the underscore form, and
	// HeaderField is how callers map live metadata onto it.
	if got.Device != HeaderField(l.Device) {
		t.Fatalf("parsed device %q, HeaderField gives %q", got.Device, HeaderField(l.Device))
	}
}

func TestHeaderField(t *testing.T) {
	cases := map[string]string{
		"":                 "-",
		"grid 4":           "grid_4",
		"NVIDIA Tesla K40": "NVIDIA_Tesla_K40",
		"dgemm:128":        "dgemm:128",
	}
	for in, want := range cases {
		if got := HeaderField(in); got != want {
			t.Errorf("HeaderField(%q) = %q, want %q", in, got, want)
		}
	}
}
