package logdata

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/metrics"
)

// This file freezes the two parsers the shared decoder replaced, verbatim
// apart from their names, as the oracle FuzzDecoderMatchesOracle checks
// Parse and ParseResume against. They share the unchanged line helpers
// (splitLine, parseDims, parseEpoch, atoi, unfield) with the decoder.

// oracleParse is the former strict Parse.
func oracleParse(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	l := &Log{}
	var cur *Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		tag, kv, err := splitLine(line)
		if err != nil {
			return nil, fmt.Errorf("logdata: line %d: %v", lineNo, err)
		}
		switch tag {
		case "#HEADER":
			l.Device = unfield(kv["device"])
			l.Kernel = unfield(kv["kernel"])
			l.Input = unfield(kv["input"])
			l.Facility = unfield(kv["facility"])
			l.Seed, err = strconv.ParseUint(kv["seed"], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("logdata: line %d: bad seed: %v", lineNo, err)
			}
			if l.OutputDims, err = parseDims(kv["dims"]); err != nil {
				return nil, fmt.Errorf("logdata: line %d: %v", lineNo, err)
			}
		case "#BEGIN":
			if l.Executions, err = strconv.Atoi(kv["executions"]); err != nil {
				return nil, fmt.Errorf("logdata: line %d: bad executions: %v", lineNo, err)
			}
			if l.BeamHours, err = strconv.ParseFloat(kv["beam_hours"], 64); err != nil {
				return nil, fmt.Errorf("logdata: line %d: bad beam_hours: %v", lineNo, err)
			}
		case "#SDC":
			l.Events = append(l.Events, Event{Class: fault.SDC,
				Exec: atoi(kv["exec"]), Resource: unfield(kv["resource"]), Scope: unfield(kv["scope"])})
			cur = &l.Events[len(l.Events)-1]
		case "#ERR":
			if cur == nil || cur.Class != fault.SDC {
				return nil, fmt.Errorf("logdata: line %d: #ERR outside #SDC", lineNo)
			}
			read, err1 := strconv.ParseFloat(kv["read"], 64)
			exp, err2 := strconv.ParseFloat(kv["expected"], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("logdata: line %d: bad float", lineNo)
			}
			cur.Mismatches = append(cur.Mismatches, metrics.Mismatch{
				Coord:     grid.Coord{X: atoi(kv["x"]), Y: atoi(kv["y"]), Z: atoi(kv["z"])},
				Read:      read,
				Expected:  exp,
				RelErrPct: metrics.RelativeErrorPct(read, exp),
			})
		case "#CRASH":
			l.Events = append(l.Events, Event{Class: fault.Crash,
				Exec: atoi(kv["exec"]), Resource: unfield(kv["resource"])})
			cur = nil
		case "#HANG":
			l.Events = append(l.Events, Event{Class: fault.Hang,
				Exec: atoi(kv["exec"]), Resource: unfield(kv["resource"])})
			cur = nil
		case "#CHK":
			// Streamed checkpoint record: its cumulative SDC/DUE counts must
			// agree with the events seen so far (the masked count has no
			// event trail to check against).
			if atoi(kv["sdc"]) != l.SDCCount() || atoi(kv["due"]) != l.CrashHangCount() {
				return nil, fmt.Errorf("logdata: line %d: checkpoint counts disagree with body", lineNo)
			}
			cur = nil
		case "#EPOCH":
			// Adaptive budget record: like #CHK, its cumulative SDC count
			// must agree with the events seen so far.
			m, err := parseEpoch(kv)
			if err != nil {
				return nil, fmt.Errorf("logdata: line %d: %v", lineNo, err)
			}
			if m.SDC != l.SDCCount() {
				return nil, fmt.Errorf("logdata: line %d: epoch counts disagree with body", lineNo)
			}
			l.Epochs = append(l.Epochs, m)
			cur = nil
		case "#END":
			// Consistency check against the trailer counts.
			if atoi(kv["sdc"]) != l.SDCCount() || atoi(kv["due"]) != l.CrashHangCount() {
				return nil, fmt.Errorf("logdata: trailer counts disagree with body")
			}
			l.Masked = atoi(kv["masked"])
		default:
			return nil, fmt.Errorf("logdata: line %d: unknown tag %q", lineNo, tag)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("logdata: %v", err)
	}
	return l, nil
}

// oracleParseResume is the former salvaging ParseResume.
func oracleParseResume(r io.Reader) (Resume, error) {
	l := &Log{}
	res := Resume{Log: l}
	data, err := io.ReadAll(r)
	if err != nil {
		return res, fmt.Errorf("logdata: %v", err)
	}
	// Every line the StreamWriter flushed ends in '\n'; anything after the
	// last newline is a torn final line and cannot be trusted.
	if i := bytes.LastIndexByte(data, '\n'); i < 0 {
		data = nil
	} else {
		data = data[:i+1]
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	// No line is longer than the data, so a short log — an empty one is a
	// fresh run's — never needs the full initial buffer.
	sc.Buffer(make([]byte, 0, min(len(data), 1<<20)), 1<<24)
	var cur *Event
	sdc, due := 0, 0
	mark := 0 // events covered by the last complete checkpoint
scan:
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		tag, kv, err := splitLine(line)
		if err != nil {
			break // corrupt tail: trust only up to the last #CHK
		}
		switch tag {
		case "#HEADER":
			l.Device = unfield(kv["device"])
			l.Kernel = unfield(kv["kernel"])
			l.Input = unfield(kv["input"])
			l.Facility = unfield(kv["facility"])
			if l.Seed, err = strconv.ParseUint(kv["seed"], 10, 64); err != nil {
				return res, fmt.Errorf("logdata: bad seed: %v", err)
			}
			if l.OutputDims, err = parseDims(kv["dims"]); err != nil {
				return res, fmt.Errorf("logdata: %v", err)
			}
		case "#BEGIN":
			l.Executions = atoi(kv["executions"])
			l.BeamHours, _ = strconv.ParseFloat(kv["beam_hours"], 64)
		case "#SDC":
			l.Events = append(l.Events, Event{Class: fault.SDC,
				Exec: atoi(kv["exec"]), Resource: unfield(kv["resource"]), Scope: unfield(kv["scope"])})
			cur = &l.Events[len(l.Events)-1]
			sdc++
		case "#ERR":
			if cur == nil || cur.Class != fault.SDC {
				return res, fmt.Errorf("logdata: #ERR outside #SDC")
			}
			read, err1 := strconv.ParseFloat(kv["read"], 64)
			exp, err2 := strconv.ParseFloat(kv["expected"], 64)
			if err1 != nil || err2 != nil {
				break scan // truncated float: drop the unflushed tail
			}
			cur.Mismatches = append(cur.Mismatches, metrics.Mismatch{
				Coord:     grid.Coord{X: atoi(kv["x"]), Y: atoi(kv["y"]), Z: atoi(kv["z"])},
				Read:      read,
				Expected:  exp,
				RelErrPct: metrics.RelativeErrorPct(read, exp),
			})
		case "#CRASH":
			l.Events = append(l.Events, Event{Class: fault.Crash,
				Exec: atoi(kv["exec"]), Resource: unfield(kv["resource"])})
			cur = nil
			due++
		case "#HANG":
			l.Events = append(l.Events, Event{Class: fault.Hang,
				Exec: atoi(kv["exec"]), Resource: unfield(kv["resource"])})
			cur = nil
			due++
		case "#CHK":
			// Only trust a checkpoint whose counts agree with the events
			// actually present: a mismatch means this line (or the body
			// before it) is damaged, so salvage falls back to the previous
			// checkpoint rather than failing recovery outright.
			if atoi(kv["sdc"]) != sdc || atoi(kv["due"]) != due {
				break scan
			}
			res.Next = atoi(kv["next"])
			res.Masked = atoi(kv["masked"])
			mark = len(l.Events)
			cur = nil
		case "#EPOCH":
			// Adaptive budget record: trusted only when its cumulative SDC
			// count matches the events actually present, like #CHK.
			m, err := parseEpoch(kv)
			if err != nil || m.SDC != sdc {
				break scan
			}
			l.Epochs = append(l.Epochs, m)
			cur = nil
		case "#END":
			// Same defence for the trailer: only a count-consistent #END
			// proves the campaign completed.
			if atoi(kv["sdc"]) != sdc || atoi(kv["due"]) != due {
				break scan
			}
			res.Complete = true
			res.Masked = atoi(kv["masked"])
			mark = len(l.Events)
			break scan
		default:
			break scan // unknown tag: treat as a corrupt tail
		}
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("logdata: %v", err)
	}
	l.Events = l.Events[:mark]
	l.Masked = res.Masked
	if !res.Complete {
		// Epoch records past the salvage point annotate work that is
		// being discarded; keep only marks the trusted prefix covers.
		kept := l.Epochs[:0]
		for _, m := range l.Epochs {
			if m.Consumed <= res.Next {
				kept = append(kept, m)
			}
		}
		l.Epochs = kept
	}
	return res, nil
}
