package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// The layer is the name's prefix before the first dot ("store.put" is in
// layer store). Trace is the job or cell the call served; Parent is the
// span that caused it (0 for a root). N counts the items the call
// processed (strikes, SDCs, bytes), where that is meaningful.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one part of a traced run (the
// workload, the strike ladder, a probe) and maps store keys to the job
// that owns them, so wrappers deep in the daemon can name their trace.
type tracer struct {
	part  string
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	next   int
	owner  map[string]traceRef // cell key -> owning job
	counts map[string]int64    // events no span covers (masked SDCs, fleet counters)
}

// traceRef names a trace and the span its children hang under.
type traceRef struct {
	trace  string
	parent int
}

func newTracer(part string, epoch time.Time) *tracer {
	return &tracer{part: part, epoch: epoch, owner: map[string]traceRef{}, counts: map[string]int64{}}
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// newID reserves a span ID, for a span whose children are recorded
// before it ends.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a span under a reserved ID (0 reserves one now) and
// returns the ID.
func (t *tracer) add(id int, name string, ref traceRef, start, end time.Time, n int64) int {
	if id == 0 {
		id = t.newID()
	}
	s := span{
		ID: id, Parent: ref.parent, Trace: ref.trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), N: n,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// own records which job a cell key belongs to.
func (t *tracer) own(key string, ref traceRef) {
	t.mu.Lock()
	t.owner[key] = ref
	t.mu.Unlock()
}

func (t *tracer) ownerOf(key string) traceRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.owner[key]
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each layer's self time over spans: a span's duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// writeSpans saves every part's spans as one JSON document.
func writeSpans(path string, parts []*tracer) error {
	doc := map[string][]span{}
	for _, t := range parts {
		doc[t.part] = t.snapshot()
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
