// Package logdata reads and writes campaign logs in a CAROL-style text
// format, mirroring the public log repository the paper releases for
// third-party re-analysis ("we made available all our corrupted outputs in
// a publicly accessible repository so to allow users to apply different
// filters", §III). Every corrupted element is logged with exact (hex
// float) values so any relative-error filter can be re-applied offline.
package logdata

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/metrics"
)

// Event is one non-masked irradiated execution.
type Event struct {
	// Class is SDC, Crash or Hang (masked runs are not logged
	// individually, as in the real campaigns).
	Class fault.OutcomeClass
	// Exec is the execution index within the campaign.
	Exec int
	// Resource is the struck resource name.
	Resource string
	// Scope is the injection scope name (empty for crash/hang).
	Scope string
	// Mismatches lists corrupted elements (SDC only).
	Mismatches []metrics.Mismatch
}

// EpochMark is one adaptive-campaign budget-epoch record (an #EPOCH
// line): the planned allocation the epoch ran under, where it actually
// ended, and the stop rule's verdict there. Marks are an audit trail —
// stop decisions are pure functions of (SDC, Consumed), so a replay
// re-derives them from the events rather than trusting the mark — but
// they let plan+log reconstruct the budget state machine byte for byte.
type EpochMark struct {
	// Epoch is the 1-based budget epoch index.
	Epoch int
	// Alloc is the strike budget the cell held during this epoch.
	Alloc int
	// Consumed is the chunk-aligned strike count where the epoch ended.
	Consumed int
	// SDC is the cumulative SDC count at Consumed (consistency-checked
	// against the event body on parse, like #CHK counts).
	SDC int
	// HalfWidth is the confidence-sequence half-width at the decision.
	HalfWidth float64
	// Stopped reports that the stop rule fired: the cell is complete at
	// Consumed even though Consumed < the plan budget.
	Stopped bool
}

// Log is one campaign's record.
type Log struct {
	Device     string
	Kernel     string
	Input      string
	Facility   string
	Seed       uint64
	Executions int
	BeamHours  float64
	OutputDims grid.Dims
	// Masked is the number of masked executions. Masked runs carry no
	// per-execution payload, so (as in the real campaigns) they are
	// recorded as a single count in the trailer rather than as events —
	// without it a parsed log could not reconstruct the outcome tally.
	Masked int
	Events []Event
	// Epochs holds the #EPOCH budget records of an adaptive campaign, in
	// file order. Parsers populate it; a StreamWriter writes each record
	// at its position through WriteEpoch.
	Epochs []EpochMark
}

// SDCCount returns the number of SDC events.
func (l *Log) SDCCount() int {
	n := 0
	for _, e := range l.Events {
		if e.Class == fault.SDC {
			n++
		}
	}
	return n
}

// CrashHangCount returns the number of crash plus hang events.
func (l *Log) CrashHangCount() int {
	n := 0
	for _, e := range l.Events {
		if e.Class == fault.Crash || e.Class == fault.Hang {
			n++
		}
	}
	return n
}

// Reports reconstructs the per-SDC mismatch reports, onto which any
// relative-error filter can be re-applied.
func (l *Log) Reports() []*metrics.Report {
	var reps []*metrics.Report
	for _, e := range l.Events {
		if e.Class != fault.SDC {
			continue
		}
		reps = append(reps, &metrics.Report{
			Dims:          l.OutputDims,
			TotalElements: l.OutputDims.Len(),
			Mismatches:    e.Mismatches,
		})
	}
	return reps
}

// writeHeader emits the #HEADER and #BEGIN lines of the format.
func writeHeader(bw *bufio.Writer, l *Log) {
	fmt.Fprintf(bw, "#HEADER device:%s kernel:%s input:%s facility:%s seed:%d dims:%d,%d,%d\n",
		HeaderField(l.Device), HeaderField(l.Kernel), HeaderField(l.Input), HeaderField(l.Facility),
		l.Seed, l.OutputDims.X, l.OutputDims.Y, l.OutputDims.Z)
	fmt.Fprintf(bw, "#BEGIN executions:%d beam_hours:%s\n",
		l.Executions, strconv.FormatFloat(l.BeamHours, 'x', -1, 64))
}

// writeEvent emits one event's lines.
// Each line is built in line, a scratch buffer the caller keeps across
// events; the grown buffer is returned for reuse. This runs once per
// corrupted element of every SDC, so it appends with strconv instead of
// formatting with fmt: once line has grown to the longest line, an event
// costs no allocation.
func writeEvent(bw *bufio.Writer, line []byte, e Event) []byte {
	switch e.Class {
	case fault.SDC:
		line = append(line[:0], "#SDC exec:"...)
		line = strconv.AppendInt(line, int64(e.Exec), 10)
		line = append(line, " resource:"...)
		line = appendField(line, e.Resource)
		line = append(line, " scope:"...)
		line = appendField(line, e.Scope)
		line = append(line, " count:"...)
		line = strconv.AppendInt(line, int64(len(e.Mismatches)), 10)
		line = append(line, '\n')
		bw.Write(line)
		for _, m := range e.Mismatches {
			line = append(line[:0], "#ERR x:"...)
			line = strconv.AppendInt(line, int64(m.Coord.X), 10)
			line = append(line, " y:"...)
			line = strconv.AppendInt(line, int64(m.Coord.Y), 10)
			line = append(line, " z:"...)
			line = strconv.AppendInt(line, int64(m.Coord.Z), 10)
			line = append(line, " read:"...)
			line = strconv.AppendFloat(line, m.Read, 'x', -1, 64)
			line = append(line, " expected:"...)
			line = strconv.AppendFloat(line, m.Expected, 'x', -1, 64)
			line = append(line, '\n')
			bw.Write(line)
		}
	case fault.Crash, fault.Hang:
		tag := "#CRASH exec:"
		if e.Class == fault.Hang {
			tag = "#HANG exec:"
		}
		line = append(line[:0], tag...)
		line = strconv.AppendInt(line, int64(e.Exec), 10)
		line = append(line, " resource:"...)
		line = appendField(line, e.Resource)
		line = append(line, '\n')
		bw.Write(line)
	}
	return line
}

// appendCheckpoint appends a #CHK record, the per-chunk line of a
// streamed log, without fmt for the same reason as writeEvent.
func appendCheckpoint(line []byte, next, masked, sdc, due int) []byte {
	line = append(line, "#CHK next:"...)
	line = strconv.AppendInt(line, int64(next), 10)
	line = append(line, " masked:"...)
	line = strconv.AppendInt(line, int64(masked), 10)
	line = append(line, " sdc:"...)
	line = strconv.AppendInt(line, int64(sdc), 10)
	line = append(line, " due:"...)
	line = strconv.AppendInt(line, int64(due), 10)
	return append(line, '\n')
}

// writeEpoch emits one #EPOCH budget record. The half-width uses hex
// floats like every float in the format, for bit-exact round trips.
func writeEpoch(bw *bufio.Writer, m EpochMark) {
	stopped := 0
	if m.Stopped {
		stopped = 1
	}
	fmt.Fprintf(bw, "#EPOCH epoch:%d alloc:%d consumed:%d sdc:%d hw:%s stopped:%d\n",
		m.Epoch, m.Alloc, m.Consumed, m.SDC,
		strconv.FormatFloat(m.HalfWidth, 'x', -1, 64), stopped)
}

// parseEpoch decodes an #EPOCH line's fields.
func parseEpoch(kv map[string]string) (EpochMark, error) {
	hw, err := strconv.ParseFloat(kv["hw"], 64)
	if err != nil {
		return EpochMark{}, fmt.Errorf("bad epoch half-width: %v", err)
	}
	return EpochMark{
		Epoch:     atoi(kv["epoch"]),
		Alloc:     atoi(kv["alloc"]),
		Consumed:  atoi(kv["consumed"]),
		SDC:       atoi(kv["sdc"]),
		HalfWidth: hw,
		Stopped:   kv["stopped"] == "1",
	}, nil
}

// appendField appends a free-text field sanitised for the
// space-separated format: "-" when empty, spaces as underscores.
func appendField(b []byte, s string) []byte {
	if s == "" {
		return append(b, '-')
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			c = '_'
		}
		b = append(b, c)
	}
	return b
}

// HeaderField returns the sanitised form a free-text header field is
// serialised in. The space→underscore escaping is lossy — Parse cannot
// recover the original — so code comparing a parsed header against live
// metadata must escape the live side with this function rather than
// expect the parsed side to round-trip.
func HeaderField(s string) string {
	return string(appendField(nil, s))
}

func unfield(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// Parse reads a complete campaign log strictly: the first malformed or
// inconsistent line is an error naming its line number. ParseResume is the
// salvaging reader of the same grammar.
func Parse(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	d := decoder{l: &Log{}, strict: true}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := d.decode(line); err != nil {
			return nil, fmt.Errorf("logdata: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("logdata: %v", err)
	}
	return d.l, nil
}

// decoder is the one reader of the log grammar, shared by Parse and
// ParseResume. It folds lines into l, checks every #CHK, #EPOCH and #END
// record's counts against the events before it, and tracks the salvage
// point: the last count-consistent #CHK or #END. A decode error is either
// a hardError, which no reader survives, or damage, at which ParseResume
// stops and keeps the prefix up to the salvage point.
type decoder struct {
	l *Log
	// strict rejects a malformed #BEGIN; salvage reads past it, keeping
	// whatever the fields parsed to.
	strict bool

	cur      *Event // the #SDC that #ERR lines extend, if any
	sdc, due int

	// The salvage point.
	next, masked int
	mark         int // events covered
	complete     bool
}

// hardError is a decode failure no reader survives: an unreadable header
// or an #ERR line with no #SDC to attach to.
type hardError struct{ error }

// decode folds one non-empty, trimmed line into the log.
func (d *decoder) decode(line string) error {
	tag, kv, err := splitLine(line)
	if err != nil {
		return err
	}
	l := d.l
	switch tag {
	case "#HEADER":
		l.Device = unfield(kv["device"])
		l.Kernel = unfield(kv["kernel"])
		l.Input = unfield(kv["input"])
		l.Facility = unfield(kv["facility"])
		if l.Seed, err = strconv.ParseUint(kv["seed"], 10, 64); err != nil {
			return hardError{fmt.Errorf("bad seed: %v", err)}
		}
		if l.OutputDims, err = parseDims(kv["dims"]); err != nil {
			return hardError{err}
		}
	case "#BEGIN":
		var errE, errH error
		l.Executions, errE = strconv.Atoi(kv["executions"])
		l.BeamHours, errH = strconv.ParseFloat(kv["beam_hours"], 64)
		if err := errors.Join(errE, errH); err != nil && d.strict {
			return fmt.Errorf("bad #BEGIN: %v", err)
		}
	case "#SDC":
		l.Events = append(l.Events, Event{Class: fault.SDC,
			Exec: atoi(kv["exec"]), Resource: unfield(kv["resource"]), Scope: unfield(kv["scope"])})
		d.cur = &l.Events[len(l.Events)-1]
		d.sdc++
	case "#ERR":
		if d.cur == nil {
			return hardError{fmt.Errorf("#ERR outside #SDC")}
		}
		read, err1 := strconv.ParseFloat(kv["read"], 64)
		exp, err2 := strconv.ParseFloat(kv["expected"], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad float")
		}
		d.cur.Mismatches = append(d.cur.Mismatches, metrics.Mismatch{
			Coord:     grid.Coord{X: atoi(kv["x"]), Y: atoi(kv["y"]), Z: atoi(kv["z"])},
			Read:      read,
			Expected:  exp,
			RelErrPct: metrics.RelativeErrorPct(read, exp),
		})
	case "#CRASH", "#HANG":
		class := fault.Crash
		if tag == "#HANG" {
			class = fault.Hang
		}
		l.Events = append(l.Events, Event{Class: class, Exec: atoi(kv["exec"]), Resource: unfield(kv["resource"])})
		d.cur = nil
		d.due++
	case "#CHK":
		// The masked count has no event trail to check against.
		if err := d.checkCounts(kv, "checkpoint"); err != nil {
			return err
		}
		d.next, d.masked, d.mark = atoi(kv["next"]), atoi(kv["masked"]), len(l.Events)
		d.cur = nil
	case "#EPOCH":
		m, err := parseEpoch(kv)
		if err != nil {
			return err
		}
		if m.SDC != d.sdc {
			return fmt.Errorf("epoch counts disagree with body")
		}
		l.Epochs = append(l.Epochs, m)
		d.cur = nil
	case "#END":
		if err := d.checkCounts(kv, "trailer"); err != nil {
			return err
		}
		l.Masked = atoi(kv["masked"])
		d.masked, d.mark, d.complete = l.Masked, len(l.Events), true
	default:
		return fmt.Errorf("unknown tag %q", tag)
	}
	return nil
}

// checkCounts rejects a #CHK or #END record whose cumulative SDC and DUE
// counts disagree with the events decoded so far.
func (d *decoder) checkCounts(kv map[string]string, record string) error {
	if atoi(kv["sdc"]) != d.sdc || atoi(kv["due"]) != d.due {
		return fmt.Errorf("%s counts disagree with body", record)
	}
	return nil
}

func splitLine(line string) (tag string, kv map[string]string, err error) {
	parts := strings.Fields(line)
	if len(parts) == 0 || !strings.HasPrefix(parts[0], "#") {
		return "", nil, fmt.Errorf("malformed line %q", line)
	}
	kv = make(map[string]string, len(parts)-1)
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, ":")
		if !ok {
			return "", nil, fmt.Errorf("malformed field %q", p)
		}
		kv[k] = v
	}
	return parts[0], kv, nil
}

func parseDims(s string) (grid.Dims, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return grid.Dims{}, fmt.Errorf("bad dims %q", s)
	}
	var d grid.Dims
	var err error
	if d.X, err = strconv.Atoi(parts[0]); err != nil {
		return d, err
	}
	if d.Y, err = strconv.Atoi(parts[1]); err != nil {
		return d, err
	}
	if d.Z, err = strconv.Atoi(parts[2]); err != nil {
		return d, err
	}
	return d, nil
}

func atoi(s string) int {
	v, _ := strconv.Atoi(s)
	return v
}
