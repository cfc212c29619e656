package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"pathflow/internal/engine"
	"pathflow/internal/serve"
)

// Accounting is the traced loop's time ledger: self time per layer over
// the traced passes, against the wall time of those passes. The wall
// splits three ways: layers (stage spans from the engine's events and
// directly timed sub-layers), the public calls' own time that no layer
// reports (unattributed), and the benchmark's glue between calls.
// Coverage counts layers only, so a gap in the stage events shows as
// lower coverage.
type Accounting struct {
	WallMS         float64            `json:"wall_ms"`
	LayersMS       map[string]float64 `json:"layers_self_ms"`
	UnattributedMS map[string]float64 `json:"unattributed_self_ms"`
	GlueMS         float64            `json:"glue_ms"`
	Coverage       float64            `json:"coverage"`
	Unattributed   float64            `json:"unattributed"`
	Top            []string           `json:"top3"`
	Overhead       float64            `json:"tracing_overhead"`
	SpanCount      int                `json:"spans"`
}

// publicCalls are the spans of the benchmark's own calls into the
// program; their self time is the part of a call no layer accounts for.
var publicCalls = map[string]bool{"engine.AnalyzeProgram": true, "engine.Open": true}

// isRoot reports whether a span is a measured-loop root: a traced pass.
func isRoot(s Span) bool { return s.Name == "bench.pass" }

// account builds the ledger from the spans under measured-loop roots.
func account(spans []Span) Accounting {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s Span) (Span, bool) {
		for s.Parent >= 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s, isRoot(s)
	}
	var loop []Span
	var a Accounting
	for _, s := range spans {
		if _, ok := rootOf(s); ok {
			loop = append(loop, s)
			if isRoot(s) {
				a.WallMS += float64(s.End-s.Start) / 1e6
			}
		}
	}
	a.SpanCount = len(loop)
	a.LayersMS, a.UnattributedMS = map[string]float64{}, map[string]float64{}
	var sum, un float64
	for name, ms := range LayerTimes(loop) {
		switch {
		case strings.HasPrefix(name, "bench."):
			a.GlueMS += ms
		case publicCalls[name]:
			a.UnattributedMS[name] = ms
			un += ms
		default:
			a.LayersMS[name] = ms
			sum += ms
		}
	}
	if a.WallMS > 0 {
		a.Coverage, a.Unattributed = sum/a.WallMS, un/a.WallMS
	}
	a.Top = topLayers(a.LayersMS, 3)
	return a
}

// stageBusyMS is a job stage's busy time: the compute cost of its
// computed runs (the reply totals cached and computed runs together, so
// the computed share is prorated) plus its disk decode time.
func stageBusyMS(st serve.StageStat) float64 {
	busy := st.DecodeMS
	if st.Runs > 0 {
		busy += st.DurationMS * float64(st.Runs-st.CacheHits) / float64(st.Runs)
	}
	return busy
}

// layerMetrics builds the traced run's per-layer metrics: stage counters
// of the traced loop, normalized per traced pass, plus the probe's
// directly timed layers.
func layerMetrics(lr *LoopResult, p *Probe, a Accounting) map[string]Metric {
	m := map[string]Metric{}
	for k, v := range p.m {
		m[k] = v
	}
	units := float64(max(1, lr.tracedUnits))
	for i, s := range engine.StageOrder {
		name := "engine." + string(s)
		if i < len(engine.PipelineStages) {
			m[name+".busy_ms"] = Metric{lr.stages.busyMS[s] / units, "ms"}
		}
		m[name+".computed"] = Metric{float64(lr.stages.computed[s]) / units, "count"}
		ratio := 0.0
		if r := lr.stages.runs[s]; r > 0 {
			ratio = float64(lr.stages.hits[s]) / float64(r)
		}
		m[name+".hit_ratio"] = Metric{ratio, "ratio"}
	}
	secs := lr.elapsed.Seconds()
	m["gc.cycles_per_s"] = Metric{float64(lr.gc.cycles) / secs, "1/s"}
	m["gc.pause_ms_per_s"] = Metric{float64(lr.gc.pauseNs) / 1e6 / secs, "ms/s"}
	m["trace.coverage_pct"] = Metric{100 * a.Coverage, "%"}
	m["trace.unattributed_pct"] = Metric{100 * a.Unattributed, "%"}
	m["trace.overhead_pct"] = Metric{100 * a.Overhead, "%"}
	return m
}

// writeTrace writes the traced run's spans and ledger.
func writeTrace(path, workload string, seed uint64, spans []Span, a Accounting) error {
	data, err := json.Marshal(struct {
		Workload   string     `json:"workload"`
		Seed       uint64     `json:"seed"`
		Accounting Accounting `json:"accounting"`
		Spans      []Span     `json:"spans"`
	}{workload, seed, a, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// reportTrace prints the ledger: wall, coverage, the unattributed time,
// overhead and the heaviest layers.
func reportTrace(f *os.File, a Accounting, path string) {
	fmt.Fprintf(f, "traced loop: %.1f ms wall, %d spans, layers cover %.1f%%, unattributed %.1f%%, glue %.1f ms, tracing overhead %+.1f%%\n",
		a.WallMS, a.SpanCount, 100*a.Coverage, 100*a.Unattributed, a.GlueMS, 100*a.Overhead)
	names := make([]string, 0, len(a.LayersMS))
	for k := range a.LayersMS {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return a.LayersMS[names[i]] > a.LayersMS[names[j]] })
	for i, n := range names {
		mark := " "
		if i < len(a.Top) {
			mark = "*"
		}
		fmt.Fprintf(f, " %s %-28s %10.2f ms %5.1f%%\n", mark, n, a.LayersMS[n], 100*a.LayersMS[n]/a.WallMS)
	}
	for _, n := range sortedKeys(a.UnattributedMS) {
		fmt.Fprintf(f, "   %-28s %10.2f ms %5.1f%% (own time of the call, unattributed)\n", n, a.UnattributedMS[n], 100*a.UnattributedMS[n]/a.WallMS)
	}
	fmt.Fprintf(f, "top 3 layers: %s\n", strings.Join(a.Top, ", "))
	fmt.Fprintf(f, "spans written to %s\n", path)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
