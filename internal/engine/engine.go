// Package engine is the staged pipeline engine behind pathflow's
// qualification pipeline (Ammons & Larus, PLDI 1998):
//
//	select → automaton → trace → analyze → translate → reduce
//
// plus the CA = 0 baseline analysis. Each step is an explicit Stage with
// typed input/output artifacts; the engine owns sequencing, context
// cancellation, structured per-stage errors (StageError), per-stage
// metrics (Metrics, generalizing the old ad-hoc Times struct), bounded
// parallel scheduling across independent functions (Map), and a
// cross-run artifact cache (Cache) with Merkle-style per-stage keys:
// every stage's key hashes only the input slice it actually reads (CFG
// shape, block bodies, per-block instruction counts, recording edges,
// the training profile) plus the digests of its upstream stage keys —
// see the table on Cache.keyBaseline and friends.
//
// Two reuse stories fall out of the slice keys. Parameter sweeps — the
// harness's Figures 9/11/12 and the CR ablation — recompute only the
// stages the swept knob can influence (the hot set, not CA, addresses
// everything downstream of selection). And *incremental re-analysis*:
// an edited function re-keys exactly the stages whose input slices (or
// ancestors) the edit touched, so a warm cache replays the clean stages
// and recomputes only the dirtied suffix. DiffFunc classifies an edit
// (Delta) and predicts the replay/recompute split ahead of time;
// `pathflow analyze -baseline` reports it.
package engine

import (
	"context"
	"fmt"
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/interp"
	"pathflow/internal/trace"
)

// Config configures an Engine.
type Config struct {
	// Workers bounds concurrent function analyses; <= 0 means
	// runtime.NumCPU(). Results are deterministic for any worker count.
	Workers int
	// Cache enables the cross-run artifact cache. Sharing is safe
	// because every cached artifact is immutable after construction.
	Cache bool
	// MemoryMaxBytes bounds the in-memory cache tier's estimated
	// footprint; least-recently-used bundles are dropped over the
	// budget. <= 0 means unbounded (the right default for one-shot
	// `exp` runs; long-lived servers should set a ceiling).
	MemoryMaxBytes int64
	// CacheDir, when non-empty, attaches the persistent disk tier
	// (implies Cache): artifacts are written through to CacheDir and
	// warm starts decode them instead of recomputing. Requires Open —
	// New ignores the disk-tier fields because it cannot report an
	// open failure.
	CacheDir string
	// CacheMaxBytes bounds the disk tier; least-recently-used bundle
	// files are deleted over the budget. <= 0 means unbounded.
	CacheMaxBytes int64
}

// Engine runs the staged pipeline.
type Engine struct {
	workers int
	cache   *Cache
}

// New returns an engine with the given configuration. The disk-tier
// fields (CacheDir, CacheMaxBytes) are ignored — opening a directory can
// fail, so the persistent tier is only available through Open.
func New(cfg Config) *Engine {
	e := &Engine{workers: cfg.Workers}
	if cfg.Cache {
		e.cache = newCache(cfg.MemoryMaxBytes, nil)
	}
	return e
}

// Open returns an engine with the full configuration, including the
// persistent cache tier when CacheDir is set. A non-empty CacheDir
// implies Cache: the disk tier requires the in-memory tier in front of
// it (disk hits are decoded once and promoted under single-flight).
func Open(cfg Config) (*Engine, error) {
	e := &Engine{workers: cfg.Workers}
	var disk *diskcache.Store
	if cfg.CacheDir != "" {
		var err error
		disk, err = diskcache.Open(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Cache || disk != nil {
		e.cache = newCache(cfg.MemoryMaxBytes, disk)
	}
	return e, nil
}

// Serial returns the engine configuration equivalent to the pre-engine
// pipeline: one worker, no artifact cache.
func Serial() *Engine { return New(Config{Workers: 1}) }

// Workers returns the configured worker bound (0 = NumCPU).
func (e *Engine) Workers() int { return e.workers }

// Disk returns the persistent artifact store, or nil when the engine
// runs without one. The fabric layers its bundle exchange on it: the
// coordinator serves and adopts bundles through the store's name-based
// endpoints, and workers hang a Remote off it.
func (e *Engine) Disk() *diskcache.Store {
	if e.cache == nil {
		return nil
	}
	return e.cache.disk
}

// CacheStats reports artifact-cache counters (zero value when the cache
// is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// AnalyzeFunc runs the pipeline on one function. train may be nil for a
// function the training run never executed; qualification is skipped.
func (e *Engine) AnalyzeFunc(ctx context.Context, fn *cfg.Func, train *bl.Profile, o Options) (*FuncResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return e.analyzeFunc(ctx, fn, train, o)
}

func (e *Engine) analyzeFunc(ctx context.Context, fn *cfg.Func, train *bl.Profile, o Options) (*FuncResult, error) {
	m := newMetrics(ctx, fn.Name)
	var hot []bl.Path
	if train != nil && o.CA > 0 {
		var err error
		hot, err = e.selectHot(ctx, fn, train, o.CA, m)
		if err != nil {
			return nil, err
		}
	}
	return e.analyzeFuncHot(ctx, fn, train, hot, o, m)
}

// AnalyzeFuncHot runs the pipeline with an explicitly chosen hot-path
// set, bypassing the coverage-based selection — used by ablations that
// compare selection strategies (e.g. edge-profile estimation against true
// path profiles).
func (e *Engine) AnalyzeFuncHot(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, o Options) (*FuncResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return e.analyzeFuncHot(ctx, fn, train, hot, o, newMetrics(ctx, fn.Name))
}

func (e *Engine) analyzeFuncHot(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, o Options, m *Metrics) (*FuncResult, error) {
	res := &FuncResult{Fn: fn, Opt: o, Train: train, Metrics: m}
	start := time.Now()
	nv := fn.NumVars()

	// Feasibility runs before the baseline so the CFG tier (and every
	// client on it) already analyzes through the pruned view.
	var feasCFG *feasible.Edges
	if o.Feasible {
		var err error
		feasCFG, err = e.feasibleTier(ctx, fn, fn.G, nv, m, func() cacheKey {
			return e.cache.keyFeasibleCFG(fn)
		})
		if err != nil {
			return nil, err
		}
		res.FeasCFG = feasCFG
	}

	sol, err := e.baseline(ctx, fn, o.Kernel, feasCFG, m)
	if err != nil {
		return nil, err
	}
	res.OrigSol = sol

	// CFG-tier client analyses run whether or not qualification will:
	// they are the baseline the HPG/rHPG tiers are compared against, and
	// the only tier at CA = 0.
	if o.Clients != 0 {
		in := ClientIn{G: fn.G, NumVars: nv, Guide: sol.Sol, Kernel: o.Kernel}
		if o.Clients.Has(ClientAvailExpr) {
			in.U = availexpr.NewUniverse(fn.G, nv)
			res.AvailU = in.U
		}
		co, err := e.clientTier(ctx, fn, func() cacheKey {
			key := cacheKey{kind: kindClientsCFG, slice: e.cache.funcFP(fn).full()}
			if feasCFG.Mask() != nil {
				key.chain = e.cache.keyFeasibleCFG(fn).digest()
			}
			return key
		}, in, o.Clients, m)
		if err != nil {
			return nil, err
		}
		res.LiveCFG, res.AvailCFG = co.Live, co.Avail
		if co.Avail != nil {
			res.AvailU = co.Avail.U
		}
	}

	res.Hot = hot
	if len(hot) == 0 || train == nil {
		res.Hot = nil
		return e.finalize(ctx, fn, res, o, m, start)
	}

	// The qualification chain runs as four independently cached stages:
	// each replays from the cache tiers when its Merkle key survives the
	// edit (or sweep point) that brought us here, and recomputes
	// otherwise — the unit of reuse is the stage, not the chain.
	a, err := e.automatonStage(ctx, fn, train, hot, m)
	if err != nil {
		return nil, err
	}
	h, err := e.traceStage(ctx, fn, train, hot, a, m)
	if err != nil {
		return nil, err
	}
	var feasHPG *feasible.Edges
	if o.Feasible {
		feasHPG, err = e.feasibleTier(ctx, fn, h.G, nv, m, func() cacheKey {
			return e.cache.keyFeasibleHPG(fn, train, hot)
		})
		if err != nil {
			return nil, err
		}
		res.FeasHPG = feasHPG
	}
	hsol, err := e.analyzeStage(ctx, fn, train, hot, h, o.Kernel, feasHPG, m)
	if err != nil {
		return nil, err
	}
	hprof, err := e.translateStage(ctx, fn, train, hot, h, m)
	if err != nil {
		return nil, err
	}
	res.Auto, res.HPG, res.HPGSol, res.HPGProf = a, h, hsol, hprof

	r, err := e.reduced(ctx, fn, train, hot, h, hsol, hprof, o, m)
	if err != nil {
		return nil, err
	}
	res.Red, res.RedSol = r.Red, r.RedSol

	if o.Clients != 0 {
		in := ClientIn{G: h.G, NumVars: nv, Guide: hsol.Sol, U: res.AvailU, Kernel: o.Kernel}
		co, err := e.clientTier(ctx, fn, func() cacheKey {
			return cacheKey{kind: kindClientsHPG,
				chain: e.cache.keyAnalyzeMasked(fn, train, hot, feasHPG.Mask() != nil).digest()}
		}, in, o.Clients, m)
		if err != nil {
			return nil, err
		}
		res.LiveHPG, res.AvailHPG = co.Live, co.Avail

		in = ClientIn{G: r.Red.G, NumVars: nv, Guide: r.RedSol.Sol, U: res.AvailU, Kernel: o.Kernel}
		co, err = e.clientTier(ctx, fn, func() cacheKey {
			return cacheKey{kind: kindClientsRed,
				chain: e.cache.keyReduceFeasible(fn, train, hot, o.CR, o.Feasible).digest()}
		}, in, o.Clients, m)
		if err != nil {
			return nil, err
		}
		res.LiveRed, res.AvailRed = co.Live, co.Avail
	}
	return e.finalize(ctx, fn, res, o, m, start)
}

// finalize optionally runs the differential-oracle check stage, then
// stamps the timing projections. With Options.Verify set, any oracle
// violation fails the whole pipeline with a StageError for the check
// stage (the reports stay attached to the error's FuncResult-less
// context; use `pathflow check` or CheckFuncResult for a non-fatal
// inspection).
func (e *Engine) finalize(ctx context.Context, fn *cfg.Func, res *FuncResult, o Options, m *Metrics, start time.Time) (*FuncResult, error) {
	if o.Verify {
		reports, err := runStage(ctx, CheckStage, fn.Name, m, CheckIn{Res: res})
		if err != nil {
			return nil, err
		}
		res.Oracle = reports
		if verr := OracleErr(reports); verr != nil {
			return nil, &StageError{Stage: StageCheck, Func: fn.Name, Err: verr}
		}
	}
	return finish(res, start), nil
}

func finish(res *FuncResult, start time.Time) *FuncResult {
	res.Metrics.Wall = time.Since(start)
	res.Times = res.Metrics.Times()
	return res
}

// clientTier computes (or fetches) the requested client analyses for
// one graph tier. mkKey builds the tier's cache key (deferred so the
// cache-disabled path never touches fingerprint machinery); the client
// set lands in knob2, the key dimension reserved for it. Client bundles
// live in the memory cache tier only (no disk codec): they are cheap to
// recompute relative to their encoded size, and the disk tier's value
// is in the expensive qualification artifacts they derive from.
func (e *Engine) clientTier(ctx context.Context, fn *cfg.Func, mkKey func() cacheKey, in ClientIn, cs ClientSet, m *Metrics) (ClientOut, error) {
	if e.cache == nil || cs == 0 {
		return e.runClients(ctx, fn, in, cs, m)
	}
	key := mkKey()
	key.knob2 = uint64(cs)
	v, cost, src, dec, err := e.cache.do(key, nil, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		out, err := e.runClients(ctx, fn, in, cs, mm)
		return out, costs(mm), err
	})
	if err != nil {
		return ClientOut{}, err
	}
	m.merge(cost, src, dec)
	return v.(ClientOut), nil
}

// runClients executes the enabled client stages for one tier.
func (e *Engine) runClients(ctx context.Context, fn *cfg.Func, in ClientIn, cs ClientSet, m *Metrics) (ClientOut, error) {
	var out ClientOut
	if cs.Has(ClientLiveness) {
		lv, err := runStage(ctx, LivenessStage, fn.Name, m, in)
		if err != nil {
			return ClientOut{}, err
		}
		out.Live = lv
	}
	if cs.Has(ClientAvailExpr) {
		av, err := runStage(ctx, AvailExprStage, fn.Name, m, in)
		if err != nil {
			return ClientOut{}, err
		}
		out.Avail = av
	}
	return out, nil
}

// selectHot computes (or fetches) the hot-path set at coverage CA. A CR
// sweep re-selects an identical set at every point; caching it matters
// most for path-heavy functions (go's profile runs tens of thousands of
// paths through the selection sort).
func (e *Engine) selectHot(ctx context.Context, fn *cfg.Func, train *bl.Profile, ca float64, m *Metrics) ([]bl.Path, error) {
	in := SelectIn{Fn: fn, Train: train, CA: ca}
	if e.cache == nil {
		return runStage(ctx, SelectStage, fn.Name, m, in)
	}
	key := e.cache.keySelect(fn, train, ca)
	ops := e.diskOps(ctx, key, diskcache.KindSelect,
		func(v any, meta diskcache.Meta) []byte {
			return diskcache.EncodeSelect(meta, v.([]bl.Path))
		},
		func(data []byte) (any, map[StageName]time.Duration, error) {
			meta, hot, err := diskcache.DecodeSelect(data, fn.G)
			if err != nil {
				return nil, nil, err
			}
			return hot, costsFromDisk(meta.Costs), nil
		})
	v, cost, src, dec, err := e.cache.do(key, ops, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		hot, err := runStage(ctx, SelectStage, fn.Name, mm, in)
		return hot, costs(mm), err
	})
	if err != nil {
		return nil, err
	}
	m.merge(cost, src, dec)
	return v.([]bl.Path), nil
}

// feasibleTier computes (or fetches) the infeasible-edge set of one
// graph tier. mkKey builds the tier's cache key (deferred so the
// cache-disabled path never touches fingerprint machinery).
func (e *Engine) feasibleTier(ctx context.Context, fn *cfg.Func, g *cfg.Graph, nv int, m *Metrics, mkKey func() cacheKey) (*feasible.Edges, error) {
	in := FeasibleIn{G: g, NumVars: nv}
	if e.cache == nil {
		return runStage(ctx, FeasibleStage, fn.Name, m, in)
	}
	key := mkKey()
	ops := e.diskOps(ctx, key, diskcache.KindFeasible,
		func(v any, meta diskcache.Meta) []byte {
			return diskcache.EncodeFeasible(meta, v.(*feasible.Edges).Infeasible)
		},
		func(data []byte) (any, map[StageName]time.Duration, error) {
			meta, mask, err := diskcache.DecodeFeasible(data, g)
			if err != nil {
				return nil, nil, err
			}
			return feasible.FromMask(mask), costsFromDisk(meta.Costs), nil
		})
	v, cost, src, dec, err := e.cache.do(key, ops, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		ed, err := runStage(ctx, FeasibleStage, fn.Name, mm, in)
		return ed, costs(mm), err
	})
	if err != nil {
		return nil, err
	}
	m.merge(cost, src, dec)
	return v.(*feasible.Edges), nil
}

// baseline computes (or fetches) the CA = 0 Wegman-Zadek solution,
// masked by the CFG tier's feasibility artifact when one was computed.
func (e *Engine) baseline(ctx context.Context, fn *cfg.Func, kern dataflow.Kernel, feas *feasible.Edges, m *Metrics) (*constprop.Result, error) {
	in := AnalyzeIn{G: fn.G, NumVars: fn.NumVars(), Kernel: kern, Infeasible: feas.Mask()}
	if e.cache == nil {
		return runStage(ctx, BaselineStage, fn.Name, m, in)
	}
	key := e.cache.keyBaseline(fn)
	if in.Infeasible != nil {
		key.chain = e.cache.keyFeasibleCFG(fn).digest()
	}
	ops := e.diskOps(ctx, key, diskcache.KindBaseline,
		func(v any, meta diskcache.Meta) []byte {
			return diskcache.EncodeBaseline(meta, v.(*constprop.Result))
		},
		func(data []byte) (any, map[StageName]time.Duration, error) {
			meta, sol, err := diskcache.DecodeBaseline(data, fn.G, fn.NumVars())
			if err != nil {
				return nil, nil, err
			}
			return sol, costsFromDisk(meta.Costs), nil
		})
	v, cost, src, dec, err := e.cache.do(key, ops, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		sol, err := runStage(ctx, BaselineStage, fn.Name, mm, in)
		return sol, costs(mm), err
	})
	if err != nil {
		return nil, err
	}
	m.merge(cost, src, dec)
	return v.(*constprop.Result), nil
}

// automatonStage computes (or fetches) the Aho-Corasick qualification
// automaton. Its key chains the hot-set fingerprint (output-addressed),
// so any route to the same hot set — a different CA, an explicit
// AnalyzeFuncHot set, a counts-only edit that re-selects identically —
// shares the bundle.
func (e *Engine) automatonStage(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, m *Metrics) (*automaton.Automaton, error) {
	in := AutomatonIn{Fn: fn, R: train.R, Hot: hot}
	if e.cache == nil {
		return runStage(ctx, AutomatonStage, fn.Name, m, in)
	}
	key := e.cache.keyAutomaton(fn, train, hot)
	ops := e.diskOps(ctx, key, diskcache.KindAutomaton,
		func(v any, meta diskcache.Meta) []byte {
			return diskcache.EncodeAutomatonBundle(meta, v.(*automaton.Automaton))
		},
		func(data []byte) (any, map[StageName]time.Duration, error) {
			meta, a, err := diskcache.DecodeAutomatonBundle(data, train.R)
			if err != nil {
				return nil, nil, err
			}
			return a, costsFromDisk(meta.Costs), nil
		})
	v, cost, src, dec, err := e.cache.do(key, ops, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		a, err := runStage(ctx, AutomatonStage, fn.Name, mm, in)
		return a, costs(mm), err
	})
	if err != nil {
		return nil, err
	}
	m.merge(cost, src, dec)
	return v.(*automaton.Automaton), nil
}

// traceStage computes (or fetches) the Holley-Rosen traced HPG. Its
// slice includes block bodies (the HPG copies them into its nodes), so
// a body edit recomputes it; the decode attaches the stored graph
// structure to the live function and automaton via trace.Assemble.
func (e *Engine) traceStage(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, a *automaton.Automaton, m *Metrics) (*trace.HPG, error) {
	in := TraceIn{Fn: fn, Auto: a}
	if e.cache == nil {
		return runStage(ctx, TraceStage, fn.Name, m, in)
	}
	key := e.cache.keyTrace(fn, train, hot)
	ops := e.diskOps(ctx, key, diskcache.KindTrace,
		func(v any, meta diskcache.Meta) []byte {
			return diskcache.EncodeTrace(meta, v.(*trace.HPG))
		},
		func(data []byte) (any, map[StageName]time.Duration, error) {
			meta, h, err := diskcache.DecodeTrace(data, fn, a)
			if err != nil {
				return nil, nil, err
			}
			return h, costsFromDisk(meta.Costs), nil
		})
	v, cost, src, dec, err := e.cache.do(key, ops, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		h, err := runStage(ctx, TraceStage, fn.Name, mm, in)
		return h, costs(mm), err
	})
	if err != nil {
		return nil, err
	}
	m.merge(cost, src, dec)
	return v.(*trace.HPG), nil
}

// analyzeStage computes (or fetches) the Wegman-Zadek solution on the
// HPG. Pure chain key: its only input is the trace stage's output.
func (e *Engine) analyzeStage(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, h *trace.HPG, kern dataflow.Kernel, feas *feasible.Edges, m *Metrics) (*constprop.Result, error) {
	in := AnalyzeIn{G: h.G, NumVars: fn.NumVars(), Kernel: kern, Infeasible: feas.Mask()}
	if e.cache == nil {
		return runStage(ctx, AnalyzeStage, fn.Name, m, in)
	}
	key := e.cache.keyAnalyzeMasked(fn, train, hot, in.Infeasible != nil)
	ops := e.diskOps(ctx, key, diskcache.KindAnalyze,
		func(v any, meta diskcache.Meta) []byte {
			return diskcache.EncodeAnalyze(meta, v.(*constprop.Result))
		},
		func(data []byte) (any, map[StageName]time.Duration, error) {
			meta, sol, err := diskcache.DecodeAnalyze(data, h.G, fn.NumVars())
			if err != nil {
				return nil, nil, err
			}
			return sol, costsFromDisk(meta.Costs), nil
		})
	v, cost, src, dec, err := e.cache.do(key, ops, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		sol, err := runStage(ctx, AnalyzeStage, fn.Name, mm, in)
		return sol, costs(mm), err
	})
	if err != nil {
		return nil, err
	}
	m.merge(cost, src, dec)
	return v.(*constprop.Result), nil
}

// translateStage computes (or fetches) the training profile translated
// onto the HPG (Lemma 2). Its slice is shape + profile but *not* block
// bodies: an HPG's node/edge structure depends only on the CFG shape
// and the automaton, so a body-only edit replays the translation onto
// the freshly traced (body-updated) HPG — the stored bundle's edge IDs
// still line up.
func (e *Engine) translateStage(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, h *trace.HPG, m *Metrics) (*bl.Profile, error) {
	in := TranslateIn{Prof: train, Orig: fn.G, Overlay: h}
	if e.cache == nil {
		return runStage(ctx, TranslateStage, fn.Name, m, in)
	}
	key := e.cache.keyTranslate(fn, train, hot)
	ops := e.diskOps(ctx, key, diskcache.KindTranslate,
		func(v any, meta diskcache.Meta) []byte {
			return diskcache.EncodeTranslate(meta, v.(*bl.Profile))
		},
		func(data []byte) (any, map[StageName]time.Duration, error) {
			meta, hp, err := diskcache.DecodeTranslate(data, h.G)
			if err != nil {
				return nil, nil, err
			}
			return hp, costsFromDisk(meta.Costs), nil
		})
	v, cost, src, dec, err := e.cache.do(key, ops, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		hp, err := runStage(ctx, TranslateStage, fn.Name, mm, in)
		return hp, costs(mm), err
	})
	if err != nil {
		return nil, err
	}
	m.merge(cost, src, dec)
	return v.(*bl.Profile), nil
}

// reduced computes (or fetches) the reduced HPG and its solution. Pure
// chain key over the analyze and translate stages plus the CR knob.
func (e *Engine) reduced(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, h *trace.HPG, hsol *constprop.Result, hprof *bl.Profile, o Options, m *Metrics) (ReduceOut, error) {
	in := ReduceIn{HPG: h, Sol: hsol, Prof: hprof, CR: o.CR, NumVars: fn.NumVars(), Kernel: o.Kernel, Feasible: o.Feasible}
	if e.cache == nil {
		return runStage(ctx, ReduceStage, fn.Name, m, in)
	}
	key := e.cache.keyReduceFeasible(fn, train, hot, o.CR, o.Feasible)
	ops := e.diskOps(ctx, key, diskcache.KindReduced,
		func(v any, meta diskcache.Meta) []byte {
			r := v.(ReduceOut)
			return diskcache.EncodeReduced(meta, r.Red, r.RedSol)
		},
		func(data []byte) (any, map[StageName]time.Duration, error) {
			meta, red, sol, err := diskcache.DecodeReduced(data, h)
			if err != nil {
				return nil, nil, err
			}
			return ReduceOut{Red: red, RedSol: sol}, costsFromDisk(meta.Costs), nil
		})
	v, cost, src, dec, err := e.cache.do(key, ops, func() (any, map[StageName]time.Duration, error) {
		mm := NewMetrics()
		r, err := runStage(ctx, ReduceStage, fn.Name, mm, in)
		return r, costs(mm), err
	})
	if err != nil {
		return ReduceOut{}, err
	}
	m.merge(cost, src, dec)
	return v.(ReduceOut), nil
}

func costs(m *Metrics) map[StageName]time.Duration {
	out := make(map[StageName]time.Duration, len(m.Stages))
	for s, sm := range m.Stages {
		out[s] = sm.Duration
	}
	return out
}

// diskOps assembles the persistent-tier plumbing for one cache key, or
// returns nil when no disk tier is attached. The disk key reuses the
// in-memory key's (slice, chain, knob) fingerprints so the two tiers
// always agree on identity, and every write is stamped with the
// context's delta class (WithDeltaClass) as provenance.
func (e *Engine) diskOps(ctx context.Context, key cacheKey, kind diskcache.Kind,
	encode func(v any, meta diskcache.Meta) []byte,
	decode func(data []byte) (any, map[StageName]time.Duration, error)) *diskOps {
	if e.cache == nil || e.cache.disk == nil {
		return nil
	}
	class := deltaClassFrom(ctx)
	return &diskOps{
		key: diskcache.Key{Kind: kind, Slice: key.slice, Chain: key.chain, Knob: key.knob},
		encode: func(v any, cost map[StageName]time.Duration) []byte {
			return encode(v, diskcache.Meta{Costs: costsToDisk(cost), Class: class})
		},
		decode: decode,
	}
}

// costsToDisk and costsFromDisk translate stage-cost maps across the
// engine/diskcache boundary (diskcache cannot import engine's StageName
// without a cycle, so bundles carry plain strings).
func costsToDisk(m map[StageName]time.Duration) diskcache.Costs {
	out := make(diskcache.Costs, len(m))
	for s, d := range m {
		out[string(s)] = d
	}
	return out
}

func costsFromDisk(c diskcache.Costs) map[StageName]time.Duration {
	out := make(map[StageName]time.Duration, len(c))
	for s, d := range c {
		out[StageName(s)] = d
	}
	return out
}

// AnalyzeProgram runs the pipeline on every function of prog using the
// given training profile, analyzing independent functions in parallel on
// the engine's worker pool. Results are deterministic and keyed by
// function name.
func (e *Engine) AnalyzeProgram(ctx context.Context, prog *cfg.Program, train *bl.ProgramProfile, o Options) (*ProgramResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	frs, err := Map(ctx, e.workers, prog.Order, func(ctx context.Context, name string) (*FuncResult, error) {
		var tp *bl.Profile
		if train != nil {
			tp = train.Funcs[name]
		}
		return e.analyzeFunc(ctx, prog.Funcs[name], tp, o)
	})
	if err != nil {
		return nil, err
	}
	out := &ProgramResult{Prog: prog, Opt: o, Funcs: make(map[string]*FuncResult, len(frs))}
	for i, name := range prog.Order {
		out.Funcs[name] = frs[i]
	}
	return out, nil
}

// SweepProgram analyzes prog at every parameter point. Points run in
// order so that, with the cache enabled, each point reuses every
// artifact the earlier points already materialized (a CR sweep reuses
// the HPG and its solution; every point reuses the baseline).
func (e *Engine) SweepProgram(ctx context.Context, prog *cfg.Program, train *bl.ProgramProfile, opts []Options) ([]*ProgramResult, error) {
	out := make([]*ProgramResult, len(opts))
	for i, o := range opts {
		r, err := e.AnalyzeProgram(ctx, prog, train, o)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// ProfileAndAnalyze profiles prog on the training input, then analyzes it.
func (e *Engine) ProfileAndAnalyze(ctx context.Context, prog *cfg.Program, trainOpts interp.Options, o Options) (*ProgramResult, *bl.ProgramProfile, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	train, _, err := bl.ProfileProgram(prog, trainOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: training run failed: %w", err)
	}
	res, err := e.AnalyzeProgram(ctx, prog, train, o)
	if err != nil {
		return nil, nil, err
	}
	return res, train, nil
}
