// Package engine is the staged pipeline engine behind pathflow's
// qualification pipeline (Ammons & Larus, PLDI 1998):
//
//	select → automaton → trace → analyze → translate → weigh → reduce
//
// plus the CA = 0 baseline analysis (weigh is the CR-independent half
// of the paper's reduction). Every step — and the optional
// feasibility, client and check stages — runs through one generic
// cached-stage runner (cached): it checks the context, times the
// compute into per-stage Metrics, wraps failures in a StageError naming
// the stage and function, and, when the engine caches, makes the stage
// one single-flight bundle of the cross-run artifact cache (Cache), in
// memory and optionally on disk. The engine also owns sequencing and
// bounded parallel scheduling across independent functions (Map).
// Cache keys are Merkle-style and per stage: every stage's key hashes
// only the input slice it actually reads (CFG shape, block bodies,
// per-block instruction counts, recording edges, the training profile)
// plus the digests of its upstream stage keys — see the table above
// stageKeys. Each invocation derives each key once, from its parent
// stages' keys.
//
// Two reuse stories fall out of the slice keys. Parameter sweeps — the
// harness's Figures 9/11/12 and the CR ablation — recompute only the
// stages the swept knob can influence (the hot set, not CA, addresses
// everything downstream of selection, and the hot prefix k, not CR,
// addresses the reduction). And *incremental re-analysis*:
// an edited function re-keys exactly the stages whose input slices (or
// ancestors) the edit touched, so a warm cache replays the clean stages
// and recomputes only the dirtied suffix. DiffFunc classifies an edit
// (Delta); `pathflow analyze -baseline` reports the class beside the
// replay/recompute split the run observed.
package engine

import (
	"context"
	"fmt"

	"pathflow/internal/automaton"
	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/interp"
	"pathflow/internal/liveness"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
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
// runs without one. It is for callers that inspect the disk tier
// directly, such as perfbench's disk-read probe (Store.ReadBundle).
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
	iv := e.invoke(ctx, fn, train, o)
	var hot []bl.Path
	if train != nil && o.CA > 0 {
		var err error
		hot, err = iv.selectHot()
		if err != nil {
			return nil, err
		}
	}
	return iv.run(hot)
}

// AnalyzeFuncHot runs the pipeline with an explicitly chosen hot-path
// set, bypassing the coverage-based selection — used by ablations that
// compare selection strategies (e.g. edge-profile estimation against true
// path profiles).
func (e *Engine) AnalyzeFuncHot(ctx context.Context, fn *cfg.Func, train *bl.Profile, hot []bl.Path, o Options) (*FuncResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	iv := e.invoke(ctx, fn, train, o)
	return iv.run(hot)
}

// invoke returns the invocation by value, so callers keep it on the
// stack.
func (e *Engine) invoke(ctx context.Context, fn *cfg.Func, train *bl.Profile, o Options) invocation {
	return invocation{ctx: ctx, e: e, fn: fn, train: train, o: o, m: newMetrics(ctx, fn.Name), keys: e.cache.keys(fn, train)}
}

// run takes the invocation from the baseline to the reduced tier for
// the given hot set (none: the CA = 0 baseline only). Each stage's
// cache key is derived once, here, from the keys of its parent stages.
func (iv *invocation) run(hot []bl.Path) (*FuncResult, error) {
	fn, o, ks := iv.fn, iv.o, iv.keys
	res := &FuncResult{Fn: fn, Opt: o, Train: iv.train, Metrics: iv.m}
	var err error

	// Feasibility runs before the baseline so the CFG tier (and every
	// client on it) already analyzes through the pruned view.
	var feasCFG cacheKey
	if o.Feasible {
		feasCFG = ks.key(kindFeasible, ks.whole)
		if res.FeasCFG, err = iv.feasibleTier(feasCFG, fn.G); err != nil {
			return nil, err
		}
	}
	baseKey := ks.through(ks.key(kindBaseline, ks.whole), res.FeasCFG, feasCFG)
	if res.OrigSol, err = iv.baseline(baseKey, res.FeasCFG); err != nil {
		return nil, err
	}

	// CFG-tier client analyses run whether or not qualification will:
	// they are the baseline the HPG/rHPG tiers are compared against, and
	// the only tier at CA = 0. The expression universe comes from the CFG
	// tier's availexpr bundle, so a cache hit builds none.
	if o.Clients != 0 {
		key := ks.through(ks.key(kindClientsCFG, ks.whole), res.FeasCFG, feasCFG)
		if res.LiveCFG, res.AvailCFG, err = iv.clientTier(key, fn.G, res.OrigSol, nil); err != nil {
			return nil, err
		}
		if res.AvailCFG != nil {
			res.AvailU = res.AvailCFG.U
		}
	}

	if len(hot) == 0 || iv.train == nil {
		return iv.finalize(res)
	}
	res.Hot = hot

	// The qualification chain runs as independently cached stages: each
	// replays from the cache tiers when its Merkle key survives the edit
	// (or sweep point) that brought us here, and recomputes otherwise —
	// the unit of reuse is the stage, not the chain.
	autoKey := ks.automaton(hot)
	if res.Auto, err = iv.automaton(autoKey, hot); err != nil {
		return nil, err
	}
	traceKey := ks.key(kindTrace, ks.whole, autoKey)
	if res.HPG, err = iv.trace(traceKey, res.Auto); err != nil {
		return nil, err
	}
	var feasHPG cacheKey
	if o.Feasible {
		feasHPG = ks.key(kindFeasible, 0, traceKey)
		if res.FeasHPG, err = iv.feasibleTier(feasHPG, res.HPG.G); err != nil {
			return nil, err
		}
	}
	analyzeKey := ks.key(kindAnalyze, 0, traceKey)
	solKey := ks.through(analyzeKey, res.FeasHPG, feasHPG)
	if res.HPGSol, err = iv.analyze(solKey, res.HPG, res.FeasHPG); err != nil {
		return nil, err
	}
	translateKey := ks.key(kindTranslate, ks.translate, autoKey)
	if res.HPGProf, err = iv.translate(translateKey, res.HPG); err != nil {
		return nil, err
	}
	// The weigh key chains the unmasked analyze key: the HPG tier's
	// feasible key, folded in under Options.Feasible, stands for the mask.
	weighKey := ks.key(kindWeigh, 0, analyzeKey, translateKey, feasHPG)
	w, err := iv.weigh(weighKey, res.HPG, res.HPGSol, res.HPGProf)
	if err != nil {
		return nil, err
	}
	k := reduce.HotPrefix(w, o.CR)
	reduceKey := ks.key(kindReduced, 0, weighKey)
	reduceKey.knob = uint64(k)
	r, err := iv.reduce(reduceKey, res.HPG, res.HPGSol, w, k, res.FeasHPG)
	if err != nil {
		return nil, err
	}
	res.Red, res.RedSol, res.FeasRed = r.Red, r.RedSol, r.FeasRed

	if o.Clients != 0 {
		res.LiveHPG, res.AvailHPG, err = iv.clientTier(ks.key(kindClientsHPG, 0, solKey), res.HPG.G, res.HPGSol, res.AvailU)
		if err != nil {
			return nil, err
		}
		res.LiveRed, res.AvailRed, err = iv.clientTier(ks.key(kindClientsRed, 0, reduceKey), r.Red.G, r.RedSol, res.AvailU)
		if err != nil {
			return nil, err
		}
	}
	return iv.finalize(res)
}

// finalize optionally runs the differential-oracle check stage. With
// Options.Verify set, any oracle violation fails the whole pipeline with
// a StageError for the check stage (use `pathflow check` or
// CheckFuncResult for a non-fatal inspection).
func (iv *invocation) finalize(res *FuncResult) (*FuncResult, error) {
	if iv.o.Verify {
		var err error
		res.Oracle, err = cached(iv, StageCheck, cacheKey{}, nil, func() ([]*oracle.Report, error) {
			reports := CheckFuncResult(res)
			return reports, OracleErr(reports)
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// clientTier runs the requested client analyses on one graph tier,
// guided by the tier's constant-propagation solution. Each client is
// its own memory-tier bundle under the tier's key, with the client's
// bit in knob2. Like the baseline, select, trace and translate stages,
// clients have no disk codec: the disk tier keeps only what is cheaper
// to read than to recompute, and clients are cheap to recompute
// relative to their encoded size. A nil universe u (the CFG tier)
// builds one from g when availexpr computes.
func (iv *invocation) clientTier(key cacheKey, g *cfg.Graph, guide *constprop.Result, u *availexpr.Universe) (live *liveness.Result, avail *availexpr.Result, err error) {
	keyFor := func(c ClientSet) cacheKey {
		k := key
		k.knob2 = uint64(c)
		return k
	}
	k, nv := iv.o.Kernel, iv.fn.NumVars()
	if iv.o.Clients.Has(ClientLiveness) {
		live, err = cached(iv, StageLiveness, keyFor(ClientLiveness), nil, func() (*liveness.Result, error) {
			return solveLiveness(k, g, nv, guide.Sol), nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	if iv.o.Clients.Has(ClientAvailExpr) {
		avail, err = cached(iv, StageAvailExpr, keyFor(ClientAvailExpr), nil, func() (*availexpr.Result, error) {
			if u == nil {
				u = availexpr.NewUniverse(g, nv)
			}
			return solveAvailExpr(k, g, u, guide.Sol), nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return live, avail, nil
}

// selectHot picks the minimal hot-path set covering CA of the training
// run's dynamic instructions. A CR sweep re-selects an identical set at
// every point; caching it matters most for path-heavy functions (go's
// profile runs tens of thousands of paths through the selection sort).
// The stage is memory-only: reading a stored hot set back cost more than
// selecting it again.
func (iv *invocation) selectHot() ([]bl.Path, error) {
	fn, train, ca := iv.fn, iv.train, iv.o.CA
	key := iv.keys.key(kindSelect, iv.keys.sel)
	key.knob = knobBits(ca)
	return cached(iv, StageSelect, key, nil,
		func() ([]bl.Path, error) { return profile.SelectHot(train, fn.G, ca), nil })
}

// feasibleTier detects the infeasible edges of one graph tier.
func (iv *invocation) feasibleTier(key cacheKey, g *cfg.Graph) (*feasible.Edges, error) {
	return cached(iv, StageFeasible, key,
		&codec[*feasible.Edges]{diskcache.KindFeasible,
			func(meta diskcache.Meta, ed *feasible.Edges) []byte {
				return diskcache.EncodeFeasible(meta, ed.Infeasible)
			},
			func(b []byte) (diskcache.Meta, *feasible.Edges, error) {
				meta, mask, err := diskcache.DecodeFeasible(b, g)
				return meta, feasible.FromMask(mask), err
			}},
		func() (*feasible.Edges, error) { return feasible.Detect(g, iv.fn.NumVars()), nil })
}

// baseline runs Wegman-Zadek on the original graph: the CA = 0
// solution, masked by the CFG tier's feasibility artifact when one was
// computed. The stage is memory-only: one solve on the CFG costs less
// than reading its solution back from disk.
func (iv *invocation) baseline(key cacheKey, feas *feasible.Edges) (*constprop.Result, error) {
	fn := iv.fn
	return cached(iv, StageBaseline, key, nil, func() (*constprop.Result, error) {
		return solveConstprop(iv.o.Kernel, fn.G, fn.NumVars(), feas.Mask()), nil
	})
}

// automaton builds the Aho-Corasick qualification automaton over the
// trimmed hot paths. Its key chains the hot-set fingerprint
// (output-addressed), so any route to the same hot set — a different
// CA, an explicit AnalyzeFuncHot set, a counts-only edit that
// re-selects identically — shares the bundle.
func (iv *invocation) automaton(key cacheKey, hot []bl.Path) (*automaton.Automaton, error) {
	fn, train := iv.fn, iv.train
	return cached(iv, StageAutomaton, key,
		&codec[*automaton.Automaton]{diskcache.KindAutomaton, diskcache.EncodeAutomatonBundle,
			func(b []byte) (diskcache.Meta, *automaton.Automaton, error) {
				return diskcache.DecodeAutomatonBundle(b, train.R)
			}},
		func() (*automaton.Automaton, error) { return automaton.New(fn.G, train.R, hot) })
}

// trace applies Holley-Rosen data-flow tracing, producing the HPG. Its
// slice includes block bodies (the HPG copies them into its nodes), so
// a body edit recomputes it. The stage is memory-only, as are baseline,
// select, translate and the client analyses: trace.Build is
// deterministic and takes less time than decoding a stored graph did,
// so after a restart the HPG is rebuilt from the (decoded) automaton
// with the node and edge IDs the persisted analyze, weigh and reduce
// bundles were written against.
func (iv *invocation) trace(key cacheKey, a *automaton.Automaton) (*trace.HPG, error) {
	return cached(iv, StageTrace, key, nil, func() (*trace.HPG, error) { return trace.Build(iv.fn, a) })
}

// analyze runs Wegman-Zadek on the HPG. Pure chain key: its only input
// is the trace stage's output (and the HPG tier's feasibility mask).
func (iv *invocation) analyze(key cacheKey, h *trace.HPG, feas *feasible.Edges) (*constprop.Result, error) {
	fn := iv.fn
	return cached(iv, StageAnalyze, key,
		&codec[*constprop.Result]{diskcache.KindAnalyze, diskcache.EncodeAnalyze,
			func(b []byte) (diskcache.Meta, *constprop.Result, error) {
				return diskcache.DecodeAnalyze(b, h.G, fn.NumVars())
			}},
		func() (*constprop.Result, error) {
			return solveConstprop(iv.o.Kernel, h.G, fn.NumVars(), feas.Mask()), nil
		})
}

// translate re-expresses the training profile on the HPG (Lemma 2). Its
// slice is shape + profile but *not* block bodies: an HPG's node/edge
// structure depends only on the CFG shape and the automaton, so a
// body-only edit replays the translation onto the freshly traced
// (body-updated) HPG — the cached profile's edge IDs still line up.
// The stage is memory-only: reading a stored profile back cost more than
// translating it again.
func (iv *invocation) translate(key cacheKey, h *trace.HPG) (*bl.Profile, error) {
	fn, train := iv.fn, iv.train
	return cached(iv, StageTranslate, key, nil,
		func() (*bl.Profile, error) { return profile.Translate(train, fn.G, h) })
}

// weigh computes the CR-independent half of the reduction: the benefit
// weight of every HPG node and their order. Pure chain key over the
// analyze and translate stages (and the HPG mask under
// Options.Feasible), so a CR sweep weighs each HPG once.
func (iv *invocation) weigh(key cacheKey, h *trace.HPG, hsol *constprop.Result, hprof *bl.Profile) (*reduce.Weights, error) {
	return cached(iv, StageWeigh, key,
		&codec[*reduce.Weights]{diskcache.KindWeigh, diskcache.EncodeWeigh,
			func(b []byte) (diskcache.Meta, *reduce.Weights, error) { return diskcache.DecodeWeigh(b, h.G) }},
		func() (*reduce.Weights, error) { return reduce.Weigh(h, hsol, hprof), nil })
}

// reduce partitions the HPG with the first k nodes of w's order hot
// (the prefix the cutoff CR selects) and re-analyzes the quotient. Its
// key chains the weigh key with k as the knob, so every CR that selects
// the same prefix shares the bundle. Under Options.Feasible it projects
// the HPG tier's mask feas onto the quotient (feasible.Project) and
// re-analyzes through that pruned view. The projection is a cheap pass
// over the partition, so the disk bundle does not store it: decoding
// re-projects from the stored partition.
func (iv *invocation) reduce(key cacheKey, h *trace.HPG, hsol *constprop.Result, w *reduce.Weights, k int, feas *feasible.Edges) (ReduceOut, error) {
	fn, o := iv.fn, iv.o
	project := func(red *reduce.Reduced) *feasible.Edges {
		if !o.Feasible {
			return nil
		}
		return feasible.Project(red, feas)
	}
	return cached(iv, StageReduce, key,
		&codec[ReduceOut]{diskcache.KindReduced,
			func(meta diskcache.Meta, r ReduceOut) []byte { return diskcache.EncodeReduced(meta, r.Red, r.RedSol) },
			func(b []byte) (diskcache.Meta, ReduceOut, error) {
				meta, red, sol, err := diskcache.DecodeReduced(b, h, w, k)
				if err != nil {
					return meta, ReduceOut{}, err
				}
				return meta, ReduceOut{Red: red, RedSol: sol, FeasRed: project(red)}, nil
			}},
		func() (ReduceOut, error) {
			red, err := reduce.Partition(h, hsol, w, k)
			if err != nil {
				return ReduceOut{}, err
			}
			feasRed := project(red)
			sol := solveConstprop(o.Kernel, red.G, fn.NumVars(), feasRed.Mask())
			return ReduceOut{Red: red, RedSol: sol, FeasRed: feasRed}, nil
		})
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
