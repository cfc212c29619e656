package engine

import (
	"context"
	"fmt"
	"time"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/reduce"
)

// StageName identifies one stage of the qualification pipeline.
type StageName string

// The pipeline stages, in execution order. Baseline is the CA = 0
// Wegman-Zadek analysis of the original graph; the remaining stages are
// the paper's select → automaton → trace → analyze → translate → reduce
// chain, with reduction split in two: weigh is its CR-independent half
// (the benefit weights and their order, once per HPG), and reduce
// partitions for the hot prefix the cutoff selects. Reduce includes the
// re-analysis of the reduced graph (the paper times them together, and
// the reduced solution is unusable without the reduced graph).
const (
	StageBaseline  StageName = "baseline"
	StageSelect    StageName = "select"
	StageAutomaton StageName = "automaton"
	StageTrace     StageName = "trace"
	StageAnalyze   StageName = "analyze"
	StageTranslate StageName = "translate"
	StageWeigh     StageName = "weigh"
	StageReduce    StageName = "reduce"
	// StageFeasible is the branch-correlation feasibility analysis
	// (Options.Feasible), run once per graph tier that needs a fresh
	// infeasible-edge set (CFG and HPG; the reduce stage projects the
	// HPG mask onto the reduced tier instead of detecting its own).
	StageFeasible StageName = "feasible"
	// StageLiveness and StageAvailExpr are the optional client analyses
	// (Options.Clients), each run on every graph tier the pipeline
	// produced; StageCheck is the opt-in precision differential oracle
	// (Options.Verify).
	StageLiveness  StageName = "liveness"
	StageAvailExpr StageName = "availexpr"
	StageCheck     StageName = "check"
)

// StageOrder lists every stage in execution order. It is the single
// source of truth for stage enumeration: the CLI provenance table and
// the serving layer's metrics iterate it rather than keeping their own
// lists, so new stages appear everywhere by construction.
var StageOrder = []StageName{
	StageBaseline, StageSelect, StageAutomaton, StageTrace,
	StageAnalyze, StageTranslate, StageWeigh, StageReduce,
	StageFeasible, StageLiveness, StageAvailExpr, StageCheck,
}

// PipelineStages is the prefix of StageOrder that forms the cached
// qualification pipeline — the stages with per-stage Merkle cache keys,
// and the stages FuncResult.Replayed reports on. Clients and the check
// oracle are excluded (memory-tier-only and uncached respectively).
var PipelineStages = StageOrder[:8]

// StageError is the structured error every pipeline failure is wrapped
// in: it names the owning stage and the function being analyzed, and
// unwraps to the underlying cause (including context.Canceled when a
// cancelled context stopped the stage).
type StageError struct {
	Stage StageName
	Func  string
	Err   error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("engine: %s: stage %s: %v", e.Func, e.Stage, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// invocation is one function's trip through the pipeline: what every
// stage call of it shares.
type invocation struct {
	ctx   context.Context
	e     *Engine
	fn    *cfg.Func
	train *bl.Profile
	o     Options
	m     *Metrics
	keys  stageKeys
}

// codec is a stage's disk-tier encoding: the bundle kind and the two
// directions of its artifact codec. decode closes over the live objects
// (graph, recording-edge set, HPG) a revived artifact must point at.
type codec[T any] struct {
	kind   diskcache.Kind
	encode func(diskcache.Meta, T) []byte
	decode func([]byte) (diskcache.Meta, T, error)
}

// cached runs one stage of iv's function and records it in iv.m. The
// compute runs only after a context check, is timed, and any failure
// comes back as a *StageError naming the stage and the function.
//
// With the engine's cache on and a non-zero key, the stage is one
// single-flight cache bundle: memory first, then the disk tier when cd
// is non-nil (decoded, or written through after a compute), then
// compute. Otherwise it computes directly. An engine without a cache
// derives only zero keys (stageKeys), so it never touches fingerprint
// machinery.
func cached[T any](iv *invocation, stage StageName, k cacheKey, cd *codec[T], compute func() (T, error)) (T, error) {
	var zero T
	run := func() (any, time.Duration, error) {
		if err := iv.ctx.Err(); err != nil {
			return zero, 0, &StageError{Stage: stage, Func: iv.fn.Name, Err: err}
		}
		t0 := time.Now()
		v, err := compute()
		if err != nil {
			return zero, 0, &StageError{Stage: stage, Func: iv.fn.Name, Err: err}
		}
		return v, time.Since(t0), nil
	}
	if iv.e.cache == nil || k.kind == "" {
		v, d, err := run()
		if err != nil {
			return zero, err
		}
		iv.m.add(stage, d, 0, SourceComputed)
		return v.(T), nil
	}
	var ops *diskOps
	if cd != nil && iv.e.cache.disk != nil {
		ops = &diskOps{
			key: diskcache.Key{Kind: cd.kind, Slice: k.slice, Chain: k.chain, Knob: k.knob},
			encode: func(v any, d time.Duration) []byte {
				return cd.encode(diskcache.Meta{Cost: d}, v.(T))
			},
			decode: func(data []byte) (any, time.Duration, error) {
				meta, v, err := cd.decode(data)
				return v, meta.Cost, err
			},
		}
	}
	v, d, src, decode, err := iv.e.cache.do(k, ops, run)
	if err != nil {
		return zero, err
	}
	iv.m.add(stage, d, decode, src)
	return v.(T), nil
}

// ReduceOut is the reduction artifact: the quotient graph, its
// re-analyzed solution and, under Options.Feasible, the HPG mask
// projected onto it that the solution was solved through, cached
// together as one bundle.
type ReduceOut struct {
	Red     *reduce.Reduced
	RedSol  *constprop.Result
	FeasRed *feasible.Edges
}

// --- Metrics -------------------------------------------------------------

// StageMetrics aggregates one stage's cost within a single FuncResult.
type StageMetrics struct {
	// Duration is the compute cost of the stage. For cache hits this is
	// the stored cost of the run that produced the artifact, so cost
	// ratios (Figure 12) stay meaningful under caching. Disk-decode time
	// is never folded in — it lives in Decode — so incremental-replay
	// numbers compare compute against compute.
	Duration time.Duration
	// Decode is the wall-clock spent decoding this stage's artifact from
	// the persistent tier (zero unless DiskHits > 0, and zero for memory
	// hits and fresh computes). It is the price actually paid for a
	// replay, reported separately from the stored compute cost above.
	Decode time.Duration
	// Runs counts stage executions attributed to this result, including
	// cache hits; CacheHits counts how many of them were served from
	// either cache tier, and DiskHits how many of those were decoded
	// from the persistent tier (DiskHits ⊆ CacheHits). The provenance
	// split is thus: computed = Runs − CacheHits, memory = CacheHits −
	// DiskHits, disk = DiskHits.
	Runs      int
	CacheHits int
	DiskHits  int
}

// Computed returns how many executions actually ran the stage.
func (sm StageMetrics) Computed() int { return sm.Runs - sm.CacheHits }

// Metrics is the per-stage record of one pipeline invocation: compute
// and decode durations, run and hit counts.
type Metrics struct {
	Stages map[StageName]StageMetrics

	// observe, when set (WithStageObserver), is invoked for every stage
	// execution recorded into this record — fresh computes and cache hits
	// alike. cached records a stage once the cache tiers have answered,
	// so each artifact is reported to each requester exactly once.
	observe func(s StageName, d, decode time.Duration, src Provenance)
}

// NewMetrics returns an empty metrics record.
func NewMetrics() *Metrics { return &Metrics{Stages: map[StageName]StageMetrics{}} }

func (m *Metrics) add(s StageName, d, decode time.Duration, src Provenance) {
	sm := m.Stages[s]
	sm.Duration += d
	sm.Decode += decode
	sm.Runs++
	if src.Cached() {
		sm.CacheHits++
	}
	if src == SourceDisk {
		sm.DiskHits++
	}
	m.Stages[s] = sm
	if m.observe != nil {
		m.observe(s, d, decode, src)
	}
}

// Duration returns the recorded compute cost of stage s.
func (m *Metrics) Duration(s StageName) time.Duration { return m.Stages[s].Duration }

// CacheHits returns the total number of stage executions served from the
// artifact cache (either tier).
func (m *Metrics) CacheHits() int {
	n := 0
	for _, sm := range m.Stages {
		n += sm.CacheHits
	}
	return n
}

// DiskHits returns the total number of stage executions decoded from the
// persistent tier.
func (m *Metrics) DiskHits() int {
	n := 0
	for _, sm := range m.Stages {
		n += sm.DiskHits
	}
	return n
}

// Qualification returns the summed compute cost of the stages that
// qualification adds on top of the baseline — automaton, trace,
// analyze, translate, weigh and reduce — the paper's Figure 12
// numerator. Selection is not included.
func (m *Metrics) Qualification() time.Duration {
	var d time.Duration
	for _, s := range []StageName{StageAutomaton, StageTrace, StageAnalyze, StageTranslate, StageWeigh, StageReduce} {
		d += m.Duration(s)
	}
	return d
}
