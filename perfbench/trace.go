package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Times are nanoseconds since the tracer's epoch.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 marks a root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the traced run ends. A nil *Tracer
// records nothing, so untraced code paths can share the call sites.
// Begin and End are safe for concurrent use.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span; it is recorded only when passed to End.
func (t *Tracer) Begin(run int, name string, parent uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{ID: t.ids.Add(1), Parent: parent, Run: run, Name: name, Start: int64(time.Since(t.epoch))}
}

// End closes and records s, returning the closed span.
func (t *Tracer) End(s Span) Span {
	if t == nil {
		return s
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// spanSum aggregates the spans of one name.
type spanSum struct {
	Count int
	Total time.Duration
	Durs  []time.Duration
}

// Summary groups spans by name.
func (t *Tracer) Summary() map[string]*spanSum {
	out := map[string]*spanSum{}
	for _, s := range t.Spans() {
		a := out[s.Name]
		if a == nil {
			a = &spanSum{}
			out[s.Name] = a
		}
		a.Count++
		a.Total += s.Dur()
		a.Durs = append(a.Durs, s.Dur())
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children that overlap each
// other (concurrent workers) are counted once, and any part of a child
// outside its parent's interval is ignored.
func selfTimes(spans []Span) map[uint64]time.Duration {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the kids' intervals clipped
// to [lo, hi].
func covered(lo, hi int64, kids []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// WriteFile writes the stamp and then one JSON line per span, each with
// its self time, to path.
func (t *Tracer) WriteFile(path string, stamp any) error {
	spans := t.Spans()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	werr := enc.Encode(stamp)
	for _, s := range spans {
		if werr != nil {
			break
		}
		werr = enc.Encode(struct {
			Span
			Self int64 `json:"self_ns"`
		}{s, int64(self[s.ID])})
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing spans to %s: %w", path, werr)
	}
	return nil
}
