package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one traced call into a layer: its name, its interval, the
// span that caused it, and the operation it belongs to.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// Tracer records spans in memory from a single goroutine. The spans of
// one operation share its id; the root span of an operation is named
// "op".
type Tracer struct {
	t0    time.Time
	spans []Span
	stack []int
	op    int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Op starts operation id: subsequent spans belong to it.
func (t *Tracer) Op(id int) { t.op = id }

// Begin opens a span under the innermost open span and returns its id.
func (t *Tracer) Begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a finished span of operation op whose times were taken
// elsewhere, and returns its id.
func (t *Tracer) add(op int, start, end time.Time, name string, parent int) int {
	t.spans = append(t.spans, Span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// Do runs f inside a span named name.
func (t *Tracer) Do(name string, f func()) {
	id := t.Begin(name)
	f()
	t.End(id)
}

// selfTimes returns, per operation, each layer's self time: its spans'
// durations minus the parts their child spans cover. Spans of one
// goroutine nest without overlap, so the covered part is the children's
// summed duration.
func (t *Tracer) selfTimes() map[int]map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]time.Duration{}
	for i, s := range t.spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Op] = m
		}
		m[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// opTimes returns each operation's root span duration.
func (t *Tracer) opTimes() map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Name == "op" {
			out[s.Op] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// write saves the spans as JSON lines under dir.
func (t *Tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats summarizes self times per layer over the operations in
// ops (nil means all): the median per-operation self time in ms, and
// the layer's share of the summed operation time.
func (t *Tracer) layerStats(ops map[int]bool) (medMS, share map[string]float64, unattributed float64) {
	self := t.selfTimes()
	opT := t.opTimes()
	per := map[string][]float64{}
	sum := map[string]time.Duration{}
	var total time.Duration
	nops := 0
	for op, layers := range self {
		if ops != nil && !ops[op] {
			continue
		}
		nops++
		total += opT[op]
		for name, d := range layers {
			per[name] = append(per[name], ms(d))
			sum[name] += d
		}
	}
	medMS, share = map[string]float64{}, map[string]float64{}
	for name, xs := range per {
		// An operation that never entered a layer spent 0 in it.
		for len(xs) < nops {
			xs = append(xs, 0)
		}
		medMS[name] = median(xs)
		if total > 0 {
			share[name] = float64(sum[name]) / float64(total)
		}
	}
	return medMS, share, share["op"]
}
