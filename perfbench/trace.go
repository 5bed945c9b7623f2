package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one statement share Stmt;
// Parent is the enclosing span's ID, or -1 for a statement's root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int64  `json:"stmt"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced runs share the code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, stmt int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Stmt: stmt, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Summed over one statement's spans,
// self times equal the root span's duration; the root's own self time is
// the statement's unattributed time.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curLo, curHi, started = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		default:
			curHi = max(curHi, v.hi)
		}
	}
	if started {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// layerSelfMs sums self time per span name, in milliseconds.
func layerSelfMs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e6
	}
	return out
}
