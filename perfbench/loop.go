package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"pathflow/internal/engine"
)

// Sample is one timed operation of the measured loop.
type Sample struct {
	Key    string  // the operation: an input and point
	Class  string  // "named" or "generated" input
	MS     float64 // wall time
	CPUMS  float64 // process CPU time, all threads
	Traced bool
}

// LoopResult is what one measured loop produced: every operation's
// latency, the walls of complete passes, and the per-stage counters of
// the traced part.
type LoopResult struct {
	start   time.Time
	samples []Sample
	passes  []float64 // ms, complete untraced passes
	cpus    []float64 // ms of process CPU time, same passes
	elapsed time.Duration

	tracedUnits int // traced passes
	stages      *stageAgg
	gc          struct{ cycles, pauseNs uint64 }
	gcMem       runtime.MemStats
}

func newLoopResult() *LoopResult {
	lr := &LoopResult{start: time.Now(), stages: newStageAgg()}
	runtime.ReadMemStats(&lr.gcMem)
	return lr
}

// add records an operation that took d of wall time and cpu of process
// CPU time.
func (lr *LoopResult) add(key, class string, d, cpu time.Duration, traced bool) {
	lr.samples = append(lr.samples, Sample{Key: key, Class: class, MS: float64(d) / 1e6, CPUMS: float64(cpu) / 1e6, Traced: traced})
}

// class returns the latencies of one class, or of every operation for "".
func (lr *LoopResult) class(c string) []float64 {
	var out []float64
	for _, s := range lr.samples {
		if c == "" || s.Class == c {
			out = append(out, s.MS)
		}
	}
	return out
}

func (lr *LoopResult) classes() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range lr.samples {
		if !seen[s.Class] {
			seen[s.Class] = true
			out = append(out, s.Class)
		}
	}
	sort.Strings(out)
	return out
}

// Summary is a run's end-to-end throughput and latency, and what they
// were computed over.
type Summary struct {
	OpsPerS  float64
	P50, P90 Pct
	Basis    string
}

// passSummary summarizes a batch run whose passes repeat the same
// operations: throughput is one pass's operations of the class over the
// median complete pass, and the latency percentiles are taken over the
// operations' median latencies across passes. Medians keep a burst of
// machine noise in one pass out of the figures. With cpu, times are the
// process's CPU time instead of wall time: on a shared host whose
// tenants take a varying share of the CPUs, CPU time moves far less
// from run to run than wall time does.
func (lr *LoopResult) passSummary(class string, cpu bool) Summary {
	byKey := map[string][]float64{}
	for _, s := range lr.samples {
		if s.Class == class && !s.Traced {
			ms := s.MS
			if cpu {
				ms = s.CPUMS
			}
			byKey[s.Key] = append(byKey[s.Key], ms)
		}
	}
	var meds []float64
	for _, ms := range byKey {
		meds = append(meds, median(ms))
	}
	passes := lr.passes
	if cpu {
		passes = lr.cpus
	}
	return Summary{
		OpsPerS: float64(len(byKey)) / (median(passes) / 1e3),
		P50:     percentile(meds, 50), P90: percentile(meds, 90),
		Basis: fmt.Sprintf("%d %s operations, each the median of its runs in %d passes", len(byKey), class, len(lr.passes)),
	}
}

// overhead is how much slower the traced operations ran than the
// untraced ones of the same run: the mean latency per key, summed over
// the keys both parts ran.
func (lr *LoopResult) overhead() float64 {
	type acc struct{ sum, n float64 }
	plain, traced := map[string]*acc{}, map[string]*acc{}
	for _, s := range lr.samples {
		m := plain
		if s.Traced {
			m = traced
		}
		a := m[s.Key]
		if a == nil {
			a = &acc{}
			m[s.Key] = a
		}
		a.sum += s.MS
		a.n++
	}
	var p, t float64
	for k, pa := range plain {
		if ta := traced[k]; ta != nil {
			p += pa.sum / pa.n
			t += ta.sum / ta.n
		}
	}
	if p == 0 {
		return 0
	}
	return t/p - 1
}

// finish records the loop's length and garbage-collection cost.
func (lr *LoopResult) finish() {
	lr.elapsed = time.Since(lr.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	lr.gc.cycles = uint64(m.NumGC - lr.gcMem.NumGC)
	lr.gc.pauseNs = m.PauseTotalNs - lr.gcMem.PauseTotalNs
}

// stageAgg totals the engine's stage events per stage: busy time (the
// compute cost of computed stages plus the decode cost of disk hits),
// runs, computed runs and cache hits.
type stageAgg struct {
	mu                   sync.Mutex
	busyMS               map[engine.StageName]float64
	decodeMS             float64
	runs, computed, hits map[engine.StageName]int
}

func newStageAgg() *stageAgg {
	return &stageAgg{
		busyMS: map[engine.StageName]float64{},
		runs:   map[engine.StageName]int{}, computed: map[engine.StageName]int{}, hits: map[engine.StageName]int{},
	}
}

// add folds one stage's counts in.
func (a *stageAgg) add(s engine.StageName, busy time.Duration, runs, hits int) {
	a.mu.Lock()
	a.busyMS[s] += float64(busy) / 1e6
	a.runs[s] += runs
	a.hits[s] += hits
	a.computed[s] += runs - hits
	a.mu.Unlock()
}

// observer returns an engine stage observer that records each event as
// a span under parent and folds it into the totals. A computed stage's
// span ends when the event arrives and lasts its compute cost; a disk
// hit's span lasts its decode time; a memory hit takes no time.
func (a *stageAgg) observer(tr *Tracer, parent int) func(engine.StageEvent) {
	return func(ev engine.StageEvent) {
		end := time.Now()
		switch ev.Source {
		case engine.SourceComputed:
			tr.Add("engine."+string(ev.Stage), parent, end.Add(-ev.Duration), end)
			a.add(ev.Stage, ev.Duration, 1, 0)
		case engine.SourceDisk:
			tr.Add("diskcache."+string(ev.Stage), parent, end.Add(-ev.Decode), end)
			a.add(ev.Stage, ev.Decode, 1, 1)
			a.mu.Lock()
			a.decodeMS += float64(ev.Decode) / 1e6
			a.mu.Unlock()
		default:
			a.add(ev.Stage, 0, 1, 1)
		}
	}
}
