package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run: a call the benchmark
// made into a layer, or a stage the program reported inside such a call.
// Times are nanoseconds since the tracer started. Parent is the ID of
// the span that caused this one, or -1 for a root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pass nil and pay one branch per
// call.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// Add records a finished span and returns its ID (-1 when t is nil).
func (t *Tracer) Add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// Begin opens a span now; End closes it. A parent opened with Begin
// gets its ID before any child is added, so parents always precede
// their children in the span list.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.Add(name, parent, now, now)
}

func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// Set moves a span opened earlier with Begin to [start, end]; a run
// uses it to open a root before its children exist and fix its bounds
// once they are known.
func (t *Tracer) Set(id int, start, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = t.at(start), t.at(end)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// clamp trims every span to its parent's interval, so a child derived
// from a reported duration never claims time outside the call that
// caused it. Parents must precede children (Tracer guarantees it).
func clamp(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	idx := make(map[int]int, len(out))
	for i := range out {
		s := &out[i]
		idx[s.ID] = i
		if s.End < s.Start {
			s.End = s.Start
		}
		if p, ok := idx[s.Parent]; ok && s.Parent != s.ID {
			ps := out[p]
			s.Start = max(s.Start, ps.Start)
			s.End = min(s.End, ps.End)
			if s.End < s.Start {
				s.End = s.Start
			}
		}
	}
	return out
}

// SelfTimes attributes wall time to spans. A span's self time is its
// duration minus the part of it that its children cover; where several
// spans are active at once with no active child of their own (parallel
// siblings), each instant is split equally among them. The self times
// of all spans therefore sum to the length of the union of all spans,
// and a parent's self time is exactly its duration minus the union of
// its children's intervals.
func SelfTimes(spans []Span) map[int]float64 {
	spans = clamp(spans)
	type ev struct {
		t     int64
		start bool
		i     int
	}
	evs := make([]ev, 0, 2*len(spans))
	for i, s := range spans {
		if s.End > s.Start {
			evs = append(evs, ev{s.Start, true, i}, ev{s.End, false, i})
		}
	}
	// Ends before starts at equal times: touching spans do not overlap.
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].start && evs[b].start
	})
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	parentOf := func(i int) int {
		if p, ok := pos[spans[i].Parent]; ok && spans[i].Parent != spans[i].ID {
			return p
		}
		return -1
	}
	activeKids := make([]int, len(spans))
	leaves := map[int]bool{} // active spans with no active child
	self := make(map[int]float64, len(spans))
	var prev int64
	for _, e := range evs {
		if n := len(leaves); n > 0 && e.t > prev {
			share := float64(e.t-prev) / float64(n)
			for i := range leaves {
				self[spans[i].ID] += share
			}
		}
		prev = e.t
		p := parentOf(e.i)
		if e.start {
			leaves[e.i] = true
			if p >= 0 {
				activeKids[p]++
				delete(leaves, p)
			}
			continue
		}
		delete(leaves, e.i)
		if p >= 0 {
			activeKids[p]--
			if activeKids[p] == 0 && spans[p].End > e.t {
				leaves[p] = true
			}
		}
	}
	return self
}

// LayerTimes sums self time (in ms) per span name.
func LayerTimes(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID] / 1e6
	}
	return out
}

// topLayers returns the n names with the most self time, largest first.
func topLayers(layers map[string]float64, n int) []string {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Slice(names, func(a, b int) bool {
		if layers[names[a]] != layers[names[b]] {
			return layers[names[a]] > layers[names[b]]
		}
		return names[a] < names[b]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}
