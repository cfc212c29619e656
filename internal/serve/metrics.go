package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pathflow/internal/engine"
	"pathflow/internal/engine/diskcache"
)

// histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: counts[i] counts observations ≤ diskcache.BucketBounds[i]).
type histogram struct {
	counts [len(diskcache.BucketBounds)]int64
	sum    float64
	total  int64
}

func (h *histogram) observe(sec float64) {
	for i, ub := range diskcache.BucketBounds {
		if sec <= ub {
			h.counts[i]++
		}
	}
	h.sum += sec
	h.total++
}

// serverMetrics aggregates service-level observability state: job
// lifecycle counters, per-stage time histograms and per-stage cache-hit
// counters. The engine's cumulative cache counters are read live at
// render time, not mirrored here.
type serverMetrics struct {
	start time.Time

	mu           sync.Mutex
	requests     int64
	jobsAccepted int64
	jobsInFlight int64
	jobsFinished map[JobState]int64
	stages       map[engine.StageName]*histogram
	// stageHits counts cache-served stage executions; it backs both
	// pathflow_stage_cache_hits_total and pathflow_stage_replayed_total,
	// two names for the same events.
	stageHits     map[engine.StageName]int64
	stageDisk     map[engine.StageName]int64
	stageDecode   map[engine.StageName]float64
	profileRuns   int64
	profileCached int64

	// Streaming-profile counters: function deltas applied / dropped as
	// idempotent replays by POST /v1/profiles, and functions whose live
	// hot-set selection drifted from the cached artifacts' profile
	// (each will re-qualify — recompute its StageSelect-downstream
	// suffix — at the next live analysis).
	ingestApplied  int64
	ingestDropped  int64
	driftRequalify int64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		start:        time.Now(),
		jobsFinished: map[JobState]int64{},
		stages:       map[engine.StageName]*histogram{},
		stageHits:    map[engine.StageName]int64{},
		stageDisk:    map[engine.StageName]int64{},
		stageDecode:  map[engine.StageName]float64{},
	}
}

func (sm *serverMetrics) request() {
	sm.mu.Lock()
	sm.requests++
	sm.mu.Unlock()
}

func (sm *serverMetrics) jobAccepted() {
	sm.mu.Lock()
	sm.jobsAccepted++
	sm.jobsInFlight++
	sm.mu.Unlock()
}

func (sm *serverMetrics) jobFinished(state JobState) {
	sm.mu.Lock()
	sm.jobsInFlight--
	sm.jobsFinished[state]++
	sm.mu.Unlock()
}

// observeStage records one engine stage execution. Cache hits count
// toward the hit/replayed counters but not the histogram — the
// histogram measures compute actually performed by this process's
// engine, so hit-heavy workloads show up as flat histograms and
// climbing hit counters. Disk replays additionally accumulate their
// decode cost (the price actually paid for the replay, which the
// engine keeps separate from the stage's stored compute cost).
func (sm *serverMetrics) observeStage(ev engine.StageEvent) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if ev.Cached {
		sm.stageHits[ev.Stage]++
		if ev.Source == engine.SourceDisk {
			sm.stageDisk[ev.Stage]++
			sm.stageDecode[ev.Stage] += ev.Decode.Seconds()
		}
		return
	}
	h := sm.stages[ev.Stage]
	if h == nil {
		h = &histogram{}
		sm.stages[ev.Stage] = h
	}
	h.observe(ev.Duration.Seconds())
}

// observeProfile records one training-profile request.
func (sm *serverMetrics) observeProfile(cached bool) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.profileRuns++
	if cached {
		sm.profileCached++
	}
}

// observeIngest records one profile-delta batch: applied and dropped
// function deltas, plus how many functions the batch left needing
// re-qualification.
func (sm *serverMetrics) observeIngest(applied, dropped, requalify int) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.ingestApplied += int64(applied)
	sm.ingestDropped += int64(dropped)
	sm.driftRequalify += int64(requalify)
}

// snapshot returns the counters the health endpoint reports.
func (sm *serverMetrics) snapshot() (inFlight int, accepted int64) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return int(sm.jobsInFlight), sm.jobsAccepted
}

// render writes the Prometheus text exposition of every metric, plus the
// engine's cumulative cache counters. Output order is deterministic.
func (sm *serverMetrics) render(w io.Writer, cache engine.CacheStats) {
	sm.mu.Lock()
	defer sm.mu.Unlock()

	scalars(w, []scalar{
		{"pathflow_uptime_seconds", "gauge", "Time since the server started.", time.Since(sm.start).Seconds()},
		{"pathflow_http_requests_total", "counter", "HTTP requests served.", sm.requests},
		{"pathflow_jobs_accepted_total", "counter", "Jobs admitted by the job manager.", sm.jobsAccepted},
		{"pathflow_jobs_in_flight", "gauge", "Jobs queued or running.", sm.jobsInFlight},
	})
	family(w, "pathflow_jobs_finished_total", "counter", "Jobs by terminal state.")
	states := make([]string, 0, len(sm.jobsFinished))
	for s := range sm.jobsFinished {
		states = append(states, string(s))
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "pathflow_jobs_finished_total{state=%q} %d\n", s, sm.jobsFinished[JobState(s)])
	}

	scalars(w, []scalar{
		{"pathflow_engine_cache_hits_total", "counter", "Artifact-cache hits (cumulative, shared engine).", cache.Hits},
		{"pathflow_engine_cache_misses_total", "counter", "Artifact-cache misses (cumulative, shared engine).", cache.Misses},
		{"pathflow_engine_cache_entries", "gauge", "Artifact-cache resident bundles.", cache.Entries},
		{"pathflow_engine_cache_bytes", "gauge", "Estimated in-memory footprint of resident bundles.", cache.Bytes},
		{"pathflow_engine_cache_evictions_total", "counter", "Bundles dropped by the in-memory byte bound.", cache.MemEvictions},
	})
	if d := cache.Disk; cache.DiskEnabled {
		scalars(w, []scalar{
			{"pathflow_diskcache_hits_total", "counter", "Persistent-tier lookups whose payload decoded into a usable artifact.", d.Hits},
			{"pathflow_diskcache_misses_total", "counter", "Persistent-tier lookups that missed (absent, unreadable or rejected entries).", d.Misses},
			{"pathflow_diskcache_rejects_total", "counter", "Persistent-tier payloads rejected as corrupt or version-skewed (deleted, recomputed).", d.Rejects},
			{"pathflow_diskcache_writes_total", "counter", "Bundles persisted to the disk tier.", d.Writes},
			{"pathflow_diskcache_evictions_total", "counter", "Bundle files deleted by the disk-tier byte bound.", d.Evictions},
			{"pathflow_diskcache_entries", "gauge", "Resident bundle files in the disk tier.", d.Entries},
			{"pathflow_diskcache_bytes", "gauge", "Bytes resident in the disk tier.", d.Bytes},
		})
		family(w, "pathflow_diskcache_decode_seconds", "histogram", "Time to decode disk-tier bundles into live artifacts.")
		writeHistogram(w, "pathflow_diskcache_decode_seconds", "", d.DecodeBuckets[:], d.DecodeSum, d.DecodeCount)
	}

	scalars(w, []scalar{
		{"pathflow_profile_runs_total", "counter", "Training-profile requests (cached and computed).", sm.profileRuns},
		{"pathflow_profile_cached_total", "counter", "Training-profile requests served from the memo.", sm.profileCached},
		{"pathflow_profile_ingest_total", "counter", "Streamed profile function-deltas applied to the live accumulators.", sm.ingestApplied},
		{"pathflow_profile_ingest_dropped_total", "counter", "Streamed profile function-deltas dropped as idempotent replays (seq already applied).", sm.ingestDropped},
		{"pathflow_drift_requalify_total", "counter", "Functions whose live hot-set selection drifted from the cached artifacts' profile after an ingested batch.", sm.driftRequalify},
	})

	stageFamily(w, "pathflow_stage_cache_hits_total", "Stage executions served from the artifact cache.", sm.stageHits)
	stageFamily(w, "pathflow_stage_disk_hits_total", "Stage executions decoded from the persistent cache tier.", sm.stageDisk)
	stageFamily(w, "pathflow_stage_replayed_total", "Stage executions replayed from the artifact cache instead of recomputed (incremental re-analysis reuse).", sm.stageHits)
	stageFamily(w, "pathflow_stage_decode_seconds_total", "Disk-decode time paid for replayed stages (kept separate from compute cost).", sm.stageDecode)

	family(w, "pathflow_stage_seconds", "histogram", "Compute cost of executed pipeline stages.")
	for _, s := range engine.StageOrder {
		if h, ok := sm.stages[s]; ok {
			writeHistogram(w, "pathflow_stage_seconds", fmt.Sprintf("stage=%q", string(s)), h.counts[:], h.sum, h.total)
		}
	}
}

// family writes the HELP and TYPE lines that open a metric family.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// scalar is an unlabelled metric family with one sample.
type scalar struct {
	name, typ, help string
	value           any // an integer, or a float64 written in %g form
}

func scalars(w io.Writer, fs []scalar) {
	for _, f := range fs {
		family(w, f.name, f.typ, f.help)
		fmt.Fprintf(w, "%s %v\n", f.name, f.value)
	}
}

// stageFamily writes a per-stage counter family: one sample per stage
// that has a value, in engine.StageOrder.
func stageFamily[V int64 | float64](w io.Writer, name, help string, vals map[engine.StageName]V) {
	family(w, name, "counter", help)
	for _, s := range engine.StageOrder {
		if v, ok := vals[s]; ok {
			fmt.Fprintf(w, "%s{stage=%q} %v\n", name, string(s), v)
		}
	}
}

// writeHistogram writes one histogram's samples over
// diskcache.BucketBounds; label is its label pair (empty: none).
func writeHistogram(w io.Writer, name, label string, counts []int64, sum float64, total int64) {
	le, sel := "", ""
	if label != "" {
		le, sel = label+",", "{"+label+"}"
	}
	for i, ub := range diskcache.BucketBounds {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, le, fmtBound(ub), counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, total)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, total)
}

func fmtBound(ub float64) string { return fmt.Sprintf("%g", ub) }
