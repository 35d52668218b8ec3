package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced window's spans in memory. Spans are recorded
// by this benchmark around its calls into the program's public entry
// points; the program itself is not instrumented. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

// span is one completed call. Cat names the layer the call enters; Req
// ties the spans of one request or one pass together.
type span struct {
	Name   string
	Cat    string
	ID     int64
	Parent int64
	Req    string
	Track  int
	Start  time.Duration
	End    time.Duration
	Args   map[string]int64
}

// open is a span that has started but not ended.
type open struct {
	tr     *tracer
	s      span
	active bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin starts a span under parent (0 for a root). It is safe for
// concurrent use.
func (t *tracer) begin(cat, name string, parent int64, req string, track int) *open {
	if t == nil {
		return &open{}
	}
	return &open{tr: t, active: true, s: span{
		Name: name, Cat: cat, ID: t.newID(), Parent: parent, Req: req, Track: track,
		Start: time.Since(t.t0),
	}}
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// id is the span's identifier, for children to name as their parent.
func (o *open) id() int64 { return o.s.ID }

// arg attaches an integer argument (a work counter) to the span.
func (o *open) arg(key string, v int64) {
	if !o.active {
		return
	}
	if o.s.Args == nil {
		o.s.Args = map[string]int64{}
	}
	o.s.Args[key] = v
}

// end completes the span and returns its duration.
func (o *open) end() time.Duration {
	if !o.active {
		return 0
	}
	o.active = false
	o.s.End = time.Since(o.tr.t0)
	o.tr.add(o.s)
	return o.s.End - o.s.Start
}

// record adds a span whose interval was measured elsewhere (the race
// time a route response reports, placed at the end of its request).
func (t *tracer) record(cat, name string, parent int64, req string, track int, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Name: name, Cat: cat, ID: t.newID(), Parent: parent, Req: req, Track: track,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the named spans in milliseconds.
func (t *tracer) durations(name string) []float64 {
	spans := t.named(name)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.End - s.Start)
	}
	return out
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Cat] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// writeChrome writes the spans as Chrome trace-event JSON, the shape the
// program's own obs package exports: one complete ("X") event per span
// with microsecond timestamps, plus the span's id, parent and request in
// its args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req}
		for k, v := range s.Args {
			args[k] = v
		}
		events[i] = event{Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track, Args: args}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
