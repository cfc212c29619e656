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
	counts [len(diskcache.BucketBounds)]uint64
	sum    float64
	total  uint64
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

	fmt.Fprintf(w, "# HELP pathflow_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(w, "# TYPE pathflow_uptime_seconds gauge\n")
	fmt.Fprintf(w, "pathflow_uptime_seconds %g\n", time.Since(sm.start).Seconds())

	fmt.Fprintf(w, "# HELP pathflow_http_requests_total HTTP requests served.\n")
	fmt.Fprintf(w, "# TYPE pathflow_http_requests_total counter\n")
	fmt.Fprintf(w, "pathflow_http_requests_total %d\n", sm.requests)

	fmt.Fprintf(w, "# HELP pathflow_jobs_accepted_total Jobs admitted by the job manager.\n")
	fmt.Fprintf(w, "# TYPE pathflow_jobs_accepted_total counter\n")
	fmt.Fprintf(w, "pathflow_jobs_accepted_total %d\n", sm.jobsAccepted)

	fmt.Fprintf(w, "# HELP pathflow_jobs_in_flight Jobs queued or running.\n")
	fmt.Fprintf(w, "# TYPE pathflow_jobs_in_flight gauge\n")
	fmt.Fprintf(w, "pathflow_jobs_in_flight %d\n", sm.jobsInFlight)

	fmt.Fprintf(w, "# HELP pathflow_jobs_finished_total Jobs by terminal state.\n")
	fmt.Fprintf(w, "# TYPE pathflow_jobs_finished_total counter\n")
	states := make([]string, 0, len(sm.jobsFinished))
	for s := range sm.jobsFinished {
		states = append(states, string(s))
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "pathflow_jobs_finished_total{state=%q} %d\n", s, sm.jobsFinished[JobState(s)])
	}

	fmt.Fprintf(w, "# HELP pathflow_engine_cache_hits_total Artifact-cache hits (cumulative, shared engine).\n")
	fmt.Fprintf(w, "# TYPE pathflow_engine_cache_hits_total counter\n")
	fmt.Fprintf(w, "pathflow_engine_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "# HELP pathflow_engine_cache_misses_total Artifact-cache misses (cumulative, shared engine).\n")
	fmt.Fprintf(w, "# TYPE pathflow_engine_cache_misses_total counter\n")
	fmt.Fprintf(w, "pathflow_engine_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "# HELP pathflow_engine_cache_entries Artifact-cache resident bundles.\n")
	fmt.Fprintf(w, "# TYPE pathflow_engine_cache_entries gauge\n")
	fmt.Fprintf(w, "pathflow_engine_cache_entries %d\n", cache.Entries)
	fmt.Fprintf(w, "# HELP pathflow_engine_cache_bytes Estimated in-memory footprint of resident bundles.\n")
	fmt.Fprintf(w, "# TYPE pathflow_engine_cache_bytes gauge\n")
	fmt.Fprintf(w, "pathflow_engine_cache_bytes %d\n", cache.Bytes)
	fmt.Fprintf(w, "# HELP pathflow_engine_cache_evictions_total Bundles dropped by the in-memory byte bound.\n")
	fmt.Fprintf(w, "# TYPE pathflow_engine_cache_evictions_total counter\n")
	fmt.Fprintf(w, "pathflow_engine_cache_evictions_total %d\n", cache.MemEvictions)

	if cache.DiskEnabled {
		d := cache.Disk
		fmt.Fprintf(w, "# HELP pathflow_diskcache_hits_total Persistent-tier lookups whose payload decoded into a usable artifact.\n")
		fmt.Fprintf(w, "# TYPE pathflow_diskcache_hits_total counter\n")
		fmt.Fprintf(w, "pathflow_diskcache_hits_total %d\n", d.Hits)
		fmt.Fprintf(w, "# HELP pathflow_diskcache_misses_total Persistent-tier lookups that missed (absent, unreadable or rejected entries).\n")
		fmt.Fprintf(w, "# TYPE pathflow_diskcache_misses_total counter\n")
		fmt.Fprintf(w, "pathflow_diskcache_misses_total %d\n", d.Misses)
		fmt.Fprintf(w, "# HELP pathflow_diskcache_rejects_total Persistent-tier payloads rejected as corrupt or version-skewed (deleted, recomputed).\n")
		fmt.Fprintf(w, "# TYPE pathflow_diskcache_rejects_total counter\n")
		fmt.Fprintf(w, "pathflow_diskcache_rejects_total %d\n", d.Rejects)
		fmt.Fprintf(w, "# HELP pathflow_diskcache_writes_total Bundles persisted to the disk tier.\n")
		fmt.Fprintf(w, "# TYPE pathflow_diskcache_writes_total counter\n")
		fmt.Fprintf(w, "pathflow_diskcache_writes_total %d\n", d.Writes)
		fmt.Fprintf(w, "# HELP pathflow_diskcache_evictions_total Bundle files deleted by the disk-tier byte bound.\n")
		fmt.Fprintf(w, "# TYPE pathflow_diskcache_evictions_total counter\n")
		fmt.Fprintf(w, "pathflow_diskcache_evictions_total %d\n", d.Evictions)
		fmt.Fprintf(w, "# HELP pathflow_diskcache_entries Resident bundle files in the disk tier.\n")
		fmt.Fprintf(w, "# TYPE pathflow_diskcache_entries gauge\n")
		fmt.Fprintf(w, "pathflow_diskcache_entries %d\n", d.Entries)
		fmt.Fprintf(w, "# HELP pathflow_diskcache_bytes Bytes resident in the disk tier.\n")
		fmt.Fprintf(w, "# TYPE pathflow_diskcache_bytes gauge\n")
		fmt.Fprintf(w, "pathflow_diskcache_bytes %d\n", d.Bytes)
		fmt.Fprintf(w, "# HELP pathflow_diskcache_decode_seconds Time to decode disk-tier bundles into live artifacts.\n")
		fmt.Fprintf(w, "# TYPE pathflow_diskcache_decode_seconds histogram\n")
		for i, ub := range diskcache.BucketBounds {
			fmt.Fprintf(w, "pathflow_diskcache_decode_seconds_bucket{le=%q} %d\n", fmtBound(ub), d.DecodeBuckets[i])
		}
		fmt.Fprintf(w, "pathflow_diskcache_decode_seconds_bucket{le=\"+Inf\"} %d\n", d.DecodeCount)
		fmt.Fprintf(w, "pathflow_diskcache_decode_seconds_sum %g\n", d.DecodeSum)
		fmt.Fprintf(w, "pathflow_diskcache_decode_seconds_count %d\n", d.DecodeCount)
	}

	fmt.Fprintf(w, "# HELP pathflow_profile_runs_total Training-profile requests (cached and computed).\n")
	fmt.Fprintf(w, "# TYPE pathflow_profile_runs_total counter\n")
	fmt.Fprintf(w, "pathflow_profile_runs_total %d\n", sm.profileRuns)
	fmt.Fprintf(w, "# HELP pathflow_profile_cached_total Training-profile requests served from the memo.\n")
	fmt.Fprintf(w, "# TYPE pathflow_profile_cached_total counter\n")
	fmt.Fprintf(w, "pathflow_profile_cached_total %d\n", sm.profileCached)

	fmt.Fprintf(w, "# HELP pathflow_profile_ingest_total Streamed profile function-deltas applied to the live accumulators.\n")
	fmt.Fprintf(w, "# TYPE pathflow_profile_ingest_total counter\n")
	fmt.Fprintf(w, "pathflow_profile_ingest_total %d\n", sm.ingestApplied)
	fmt.Fprintf(w, "# HELP pathflow_profile_ingest_dropped_total Streamed profile function-deltas dropped as idempotent replays (seq already applied).\n")
	fmt.Fprintf(w, "# TYPE pathflow_profile_ingest_dropped_total counter\n")
	fmt.Fprintf(w, "pathflow_profile_ingest_dropped_total %d\n", sm.ingestDropped)
	fmt.Fprintf(w, "# HELP pathflow_drift_requalify_total Functions whose live hot-set selection drifted from the cached artifacts' profile after an ingested batch.\n")
	fmt.Fprintf(w, "# TYPE pathflow_drift_requalify_total counter\n")
	fmt.Fprintf(w, "pathflow_drift_requalify_total %d\n", sm.driftRequalify)

	fmt.Fprintf(w, "# HELP pathflow_stage_cache_hits_total Stage executions served from the artifact cache.\n")
	fmt.Fprintf(w, "# TYPE pathflow_stage_cache_hits_total counter\n")
	for _, s := range engine.StageOrder {
		if n, ok := sm.stageHits[s]; ok {
			fmt.Fprintf(w, "pathflow_stage_cache_hits_total{stage=%q} %d\n", string(s), n)
		}
	}

	fmt.Fprintf(w, "# HELP pathflow_stage_disk_hits_total Stage executions decoded from the persistent cache tier.\n")
	fmt.Fprintf(w, "# TYPE pathflow_stage_disk_hits_total counter\n")
	for _, s := range engine.StageOrder {
		if n, ok := sm.stageDisk[s]; ok {
			fmt.Fprintf(w, "pathflow_stage_disk_hits_total{stage=%q} %d\n", string(s), n)
		}
	}

	fmt.Fprintf(w, "# HELP pathflow_stage_replayed_total Stage executions replayed from the artifact cache instead of recomputed (incremental re-analysis reuse).\n")
	fmt.Fprintf(w, "# TYPE pathflow_stage_replayed_total counter\n")
	for _, s := range engine.StageOrder {
		if n, ok := sm.stageHits[s]; ok {
			fmt.Fprintf(w, "pathflow_stage_replayed_total{stage=%q} %d\n", string(s), n)
		}
	}

	fmt.Fprintf(w, "# HELP pathflow_stage_decode_seconds_total Disk-decode time paid for replayed stages (kept separate from compute cost).\n")
	fmt.Fprintf(w, "# TYPE pathflow_stage_decode_seconds_total counter\n")
	for _, s := range engine.StageOrder {
		if v, ok := sm.stageDecode[s]; ok {
			fmt.Fprintf(w, "pathflow_stage_decode_seconds_total{stage=%q} %g\n", string(s), v)
		}
	}

	fmt.Fprintf(w, "# HELP pathflow_stage_seconds Compute cost of executed pipeline stages.\n")
	fmt.Fprintf(w, "# TYPE pathflow_stage_seconds histogram\n")
	for _, s := range engine.StageOrder {
		h, ok := sm.stages[s]
		if !ok {
			continue
		}
		for i, ub := range diskcache.BucketBounds {
			fmt.Fprintf(w, "pathflow_stage_seconds_bucket{stage=%q,le=%q} %d\n", string(s), fmtBound(ub), h.counts[i])
		}
		fmt.Fprintf(w, "pathflow_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", string(s), h.total)
		fmt.Fprintf(w, "pathflow_stage_seconds_sum{stage=%q} %g\n", string(s), h.sum)
		fmt.Fprintf(w, "pathflow_stage_seconds_count{stage=%q} %d\n", string(s), h.total)
	}
}

func fmtBound(ub float64) string { return fmt.Sprintf("%g", ub) }
