package logdata

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/metrics"
)

// sampleLog builds a small but fully featured log for fuzz seeding.
func fuzzSampleLog() *Log {
	return &Log{
		Device:     "K40",
		Kernel:     "DGEMM",
		Input:      "128x128",
		Facility:   "LANSCE",
		Seed:       42,
		Executions: 1000,
		BeamHours:  12.5,
		OutputDims: grid.Dims{X: 128, Y: 128, Z: 1},
		Masked:     7,
		Events: []Event{
			{Class: fault.SDC, Exec: 3, Resource: "register-file", Scope: "accum-term",
				Mismatches: []metrics.Mismatch{
					{Coord: grid.Coord{X: 1, Y: 2}, Read: 1.5, Expected: 1.0, RelErrPct: 50},
					{Coord: grid.Coord{X: 7, Y: 9}, Read: math.NaN(), Expected: 2.0, RelErrPct: metrics.InfiniteRelErr},
				}},
			{Class: fault.Crash, Exec: 10, Resource: "scheduler"},
			{Class: fault.Hang, Exec: 21, Resource: "dispatcher"},
		},
	}
}

// FuzzLogRoundTrip feeds arbitrary bytes to Parse; whatever it accepts
// must survive a StreamWriter→Parse round trip with identical semantics,
// and the StreamWriter must be canonical (a second round trip reproduces
// the same bytes). This pins the format against parser/serialiser drift — the
// public-log re-analysis path depends on it.
func FuzzLogRoundTrip(f *testing.F) {
	var sb strings.Builder
	if err := writeLog(&sb, fuzzSampleLog()); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(sb.String()))
	f.Add([]byte("#HEADER device:K40 kernel:D input:- facility:- seed:1 dims:2,2,1\n#END sdc:0 due:0\n"))
	f.Add([]byte("#SDC exec:1 resource:- scope:- count:0\n#ERR x:0 y:0 z:0 read:0x1p+0 expected:0x1.8p+0\n"))
	f.Add([]byte("#CHK next:64 masked:3 sdc:0 due:0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		var first strings.Builder
		if err := writeLog(&first, l); err != nil {
			t.Fatalf("StreamWriter failed on parsed log: %v", err)
		}
		l2, err := Parse(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("re-parse of written log failed: %v\n%s", err, first.String())
		}
		if !sameLog(l, l2) {
			t.Fatalf("round trip changed the log\nbefore: %+v\nafter:  %+v", l, l2)
		}
		var second strings.Builder
		if err := writeLog(&second, l2); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("StreamWriter is not canonical:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

// sameLog compares logs semantically, with floats by bit pattern (NaN
// reads are legal in mismatch data).
func sameLog(a, b *Log) bool {
	if a.Device != b.Device || a.Kernel != b.Kernel || a.Input != b.Input ||
		a.Facility != b.Facility || a.Seed != b.Seed || a.Executions != b.Executions ||
		math.Float64bits(a.BeamHours) != math.Float64bits(b.BeamHours) ||
		a.OutputDims != b.OutputDims || a.Masked != b.Masked || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Class != eb.Class || ea.Exec != eb.Exec || ea.Resource != eb.Resource ||
			ea.Scope != eb.Scope || len(ea.Mismatches) != len(eb.Mismatches) {
			return false
		}
		for j := range ea.Mismatches {
			ma, mb := ea.Mismatches[j], eb.Mismatches[j]
			if ma.Coord != mb.Coord ||
				math.Float64bits(ma.Read) != math.Float64bits(mb.Read) ||
				math.Float64bits(ma.Expected) != math.Float64bits(mb.Expected) ||
				math.Float64bits(ma.RelErrPct) != math.Float64bits(mb.RelErrPct) {
				return false
			}
		}
	}
	return true
}

// FuzzParseResume feeds arbitrary byte prefixes to the crash-recovery
// parser: it must never panic, and whatever it salvages must itself be a
// serialisable log whose event counts agree with its salvage counters.
func FuzzParseResume(f *testing.F) {
	var sb strings.Builder
	meta := fuzzSampleLog()
	sw, err := NewStreamWriter(&sb, meta)
	if err != nil {
		f.Fatal(err)
	}
	sw.AddMasked(3)
	for _, ev := range meta.Events {
		sw.WriteEvent(ev)
	}
	sw.Checkpoint(10)
	sw.WriteEvent(Event{Class: fault.Crash, Exec: 12, Resource: "bus"})
	full := sb.String()
	for _, cut := range []int{len(full), len(full) / 2, len(full) / 3} {
		f.Add([]byte(full[:cut]))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ParseResume(bytes.NewReader(data))
		if err != nil {
			return
		}
		if res.Log == nil {
			t.Fatal("nil salvage log without error")
		}
		if res.Log.Masked != res.Masked {
			t.Fatalf("salvaged log masked %d != resume masked %d", res.Log.Masked, res.Masked)
		}
		var out strings.Builder
		if err := writeLog(&out, res.Log); err != nil {
			t.Fatalf("salvaged log not serialisable: %v", err)
		}
		if _, err := Parse(strings.NewReader(out.String())); err != nil {
			t.Fatalf("salvaged log not re-parseable: %v", err)
		}
	})
}

// FuzzDecoderMatchesOracle pins Parse and ParseResume, both built on the
// shared decoder, to the two parsers it replaced (decoder_oracle_test.go):
// for any input each must fail exactly when its oracle fails and
// otherwise return an equal Log and Resume, floats compared by bit
// pattern so NaN reads compare equal.
func FuzzDecoderMatchesOracle(f *testing.F) {
	var sb strings.Builder
	meta := fuzzSampleLog()
	sw, err := NewStreamWriter(&sb, meta)
	if err != nil {
		f.Fatal(err)
	}
	sw.AddMasked(3)
	sw.WriteEvent(meta.Events[0])
	sw.Checkpoint(10)
	sw.WriteEpoch(EpochMark{Epoch: 1, Alloc: 20, Consumed: 10, SDC: 1, HalfWidth: 0x1.8p-03})
	sw.WriteEvent(meta.Events[1])
	sw.WriteEvent(meta.Events[2])
	sw.Checkpoint(30)
	sw.WriteEpoch(EpochMark{Epoch: 2, Alloc: 40, Consumed: 30, SDC: 1, HalfWidth: 0x1p-03, Stopped: true})
	sw.Close()
	full := sb.String()
	for _, cut := range []int{len(full), len(full) - 3, 2 * len(full) / 3, len(full) / 2, len(full) / 4} {
		f.Add([]byte(full[:cut]))
	}
	const head = "#HEADER device:K40 kernel:D input:- facility:- seed:1 dims:2,2,1\n"
	const sdc = "#SDC exec:1 resource:- scope:- count:1\n"
	const errLine = "#ERR x:0 y:0 z:0 read:0x1p+0 expected:0x1.8p+0\n"
	for _, seed := range []string{
		// A malformed #BEGIN: strict fails, salvage reads past it.
		head + "#BEGIN executions:x beam_hours:zz\n" + sdc + errLine + "#CHK next:4 masked:3 sdc:1 due:0\n",
		// #HEADER and #BEGIN between an #SDC and its #ERR.
		sdc + head + "#BEGIN executions:9 beam_hours:0x1p+0\n" + errLine + "#END sdc:1 due:0 masked:0\n",
		// #ERR after #END.
		head + sdc + "#END sdc:1 due:0 masked:2\n" + errLine,
		// #ERR outside #SDC after a #CHK.
		head + sdc + "#CHK next:2 masked:1 sdc:1 due:0\n" + errLine,
		// Count records disagreeing with the body.
		head + sdc + "#CHK next:2 masked:1 sdc:2 due:0\n",
		head + sdc + "#EPOCH epoch:1 alloc:4 consumed:2 sdc:0 hw:0x1p-02 stopped:0\n",
		head + "#CRASH exec:1 resource:bus\n#END sdc:0 due:2 masked:0\n",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Parse(bytes.NewReader(data))
		want, werr := oracleParse(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("Parse error %v, oracle error %v", err, werr)
		}
		if err == nil && !sameParsed(got, want) {
			t.Fatalf("Parse diverges from oracle\ngot:  %+v\nwant: %+v", got, want)
		}

		res, err := ParseResume(bytes.NewReader(data))
		wres, werr := oracleParseResume(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("ParseResume error %v, oracle error %v", err, werr)
		}
		if err != nil {
			return
		}
		if res.Next != wres.Next || res.Masked != wres.Masked || res.Complete != wres.Complete ||
			!sameParsed(res.Log, wres.Log) {
			t.Fatalf("ParseResume diverges from oracle\ngot:  %+v %+v\nwant: %+v %+v", res, res.Log, wres, wres.Log)
		}
	})
}

// sameParsed is sameLog plus the #EPOCH records, half-widths compared by
// bit pattern.
func sameParsed(a, b *Log) bool {
	if !sameLog(a, b) || len(a.Epochs) != len(b.Epochs) {
		return false
	}
	for i, ea := range a.Epochs {
		eb := b.Epochs[i]
		if math.Float64bits(ea.HalfWidth) != math.Float64bits(eb.HalfWidth) {
			return false
		}
		ea.HalfWidth, eb.HalfWidth = 0, 0
		if ea != eb {
			return false
		}
	}
	return true
}
