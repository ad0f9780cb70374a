package logdata

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"radcrit/internal/fault"
)

// StreamWriter emits a campaign log incrementally, event by event, so a
// running campaign holds no event backlog in memory. Checkpoint records
// (#CHK lines) carry the cumulative outcome counts and the next strike
// index; a log truncated by a crash can be resumed from its last flushed
// checkpoint with ParseResume.
//
// StreamWriter is not safe for concurrent use: the campaign engine feeds
// it from its in-order consume loop.
type StreamWriter struct {
	bw     *bufio.Writer
	line   []byte // scratch line buffer reused across events
	masked int
	sdc    int
	due    int
	err    error
}

// streamBufSize is the StreamWriter's buffer: between checkpoints a
// file-backed log reaches the kernel in writes of this size, not the
// bufio default of 4 KiB.
const streamBufSize = 64 << 10

// NewStreamWriter writes the header lines for the campaign described by
// meta (whose Events and Masked are ignored) and returns a writer ready to
// accept events.
func NewStreamWriter(w io.Writer, meta *Log) (*StreamWriter, error) {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, streamBufSize)}
	writeHeader(sw.bw, meta)
	if err := sw.bw.Flush(); err != nil {
		return nil, fmt.Errorf("logdata: %v", err)
	}
	return sw, nil
}

// AddMasked records n masked executions. Masked runs produce no event
// lines; they are carried by checkpoint records and the trailer.
func (sw *StreamWriter) AddMasked(n int) { sw.masked += n }

// WriteEvent appends one non-masked event.
func (sw *StreamWriter) WriteEvent(e Event) error {
	if sw.err != nil {
		return sw.err
	}
	switch e.Class {
	case fault.SDC:
		sw.sdc++
	case fault.Crash, fault.Hang:
		sw.due++
	default:
		sw.err = fmt.Errorf("logdata: stream event with class %v", e.Class)
		return sw.err
	}
	sw.line = writeEvent(sw.bw, sw.line, e)
	return sw.setErr(nil)
}

// Checkpoint flushes everything written so far and appends a #CHK record:
// the next strike index to execute and the cumulative outcome counts. A
// resumed campaign restarts from the most recent complete checkpoint.
func (sw *StreamWriter) Checkpoint(next int) error {
	if sw.err != nil {
		return sw.err
	}
	sw.line = appendCheckpoint(sw.line[:0], next, sw.masked, sw.sdc, sw.due)
	sw.bw.Write(sw.line)
	return sw.setErr(sw.bw.Flush())
}

// WriteEpoch appends an #EPOCH budget record and flushes, like
// Checkpoint: the record marks a durable decision point, so it must hit
// the disk with the checkpoint it annotates.
func (sw *StreamWriter) WriteEpoch(m EpochMark) error {
	if sw.err != nil {
		return sw.err
	}
	writeEpoch(sw.bw, m)
	return sw.setErr(sw.bw.Flush())
}

// Close appends the #END trailer and flushes. The writer must not be used
// afterwards.
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	fmt.Fprintf(sw.bw, "#END sdc:%d due:%d masked:%d\n", sw.sdc, sw.due, sw.masked)
	return sw.setErr(sw.bw.Flush())
}

func (sw *StreamWriter) setErr(err error) error {
	if sw.err == nil && err != nil {
		sw.err = fmt.Errorf("logdata: %v", err)
	}
	return sw.err
}

// Resume is the recoverable state of a possibly-truncated streamed log.
type Resume struct {
	// Log holds the parsed metadata and the events covered by the last
	// complete checkpoint (events written after it are discarded: they
	// will be reproduced exactly by re-running their strikes).
	Log *Log
	// Next is the first strike index not covered by the last checkpoint
	// (0 when no checkpoint was found: the whole campaign re-runs).
	Next int
	// Masked is the masked-execution count at that checkpoint.
	Masked int
	// Complete reports that the log ended with an #END trailer, i.e.
	// nothing needs to be re-run.
	Complete bool
}

// ParseResume reads a streamed log that may have been truncated mid-write
// (a crashed campaign). It tolerates an incomplete tail: a final line
// without its terminating newline is a torn write and is discarded before
// scanning (a tear can otherwise still parse — "masked:20" truncated to
// "masked:2" is valid syntax with the wrong value); scanning additionally
// stops at the first malformed or inconsistent line, and everything after
// the last complete #CHK record is dropped. Only an unreadable #HEADER
// and an #ERR line outside any #SDC are errors. The returned Resume
// pinpoints where the campaign must restart; per-index strike derivation
// guarantees the re-run tail is bit-identical to what the lost one would
// have been.
func ParseResume(r io.Reader) (Resume, error) {
	d := decoder{l: &Log{}}
	res := Resume{Log: d.l}
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
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		err := d.decode(line)
		if _, hard := err.(hardError); hard {
			return res, fmt.Errorf("logdata: %v", err)
		}
		if err != nil || d.complete {
			break // damage, or the trailer: trust only up to the salvage point
		}
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("logdata: %v", err)
	}
	l := d.l
	res.Next, res.Masked, res.Complete = d.next, d.masked, d.complete
	l.Events = l.Events[:d.mark]
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
