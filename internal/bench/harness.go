package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/classify"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/machine"
	"pathflow/internal/opt"
	"pathflow/internal/profile"
)

// CoverageLevels is the CA sweep the paper's Figures 9, 11 and 12 report
// ("three quarters of the program's execution, then seven eighths, and so
// forth"), plus the endpoints.
var CoverageLevels = []float64{0, 0.75, 0.875, 0.9375, 0.97, 1.0}

// DefaultEngine returns the engine configuration the harness uses unless
// the caller supplies one: all cores, artifact cache on. The experiment
// sweeps are exactly the workload the cache is built for — every figure
// revisits the same functions at different CA/CR points.
func DefaultEngine() *engine.Engine {
	return engine.New(engine.Config{Workers: 0, Cache: true})
}

// Instance is one benchmark with its profiles collected, plus a memo of
// analyses per parameter point.
type Instance struct {
	B   *Benchmark
	Eng *engine.Engine

	Prog *cfg.Program
	// Train and Ref are the path profiles of the train and ref runs.
	Train, Ref *bl.ProgramProfile
	// TrainRes and RefRes are the corresponding interpreter results.
	TrainRes, RefRes *interp.Result
	// CompileTime and TrainTime correspond to Table 1's compile column:
	// the front-end plus the instrumented training run.
	CompileTime time.Duration
	TrainTime   time.Duration

	mu       sync.Mutex
	analyses map[string]*engine.ProgramResult
}

// Load compiles and profiles a benchmark and attaches eng (nil means
// DefaultEngine) for its analyses.
func Load(b *Benchmark, eng *engine.Engine) (*Instance, error) {
	if eng == nil {
		eng = DefaultEngine()
	}
	t0 := time.Now()
	prog, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	compileTime := time.Since(t0)

	t0 = time.Now()
	train, tres, err := bl.ProfileProgram(prog, b.TrainOptions())
	if err != nil {
		return nil, fmt.Errorf("bench %s train: %w", b.Name, err)
	}
	trainTime := time.Since(t0)

	ref, rres, err := bl.ProfileProgram(prog, b.RefOptions())
	if err != nil {
		return nil, fmt.Errorf("bench %s ref: %w", b.Name, err)
	}
	return &Instance{
		B: b, Eng: eng, Prog: prog,
		Train: train, Ref: ref,
		TrainRes: tres, RefRes: rres,
		CompileTime: compileTime, TrainTime: trainTime,
		analyses: map[string]*engine.ProgramResult{},
	}, nil
}

// Analyze runs (or returns the memoized) pipeline at the given options.
func (in *Instance) Analyze(ctx context.Context, o engine.Options) (*engine.ProgramResult, error) {
	key := fmt.Sprintf("%.6f/%.6f/%d/%t/%t", o.CA, o.CR, o.Clients, o.Verify, o.Feasible)
	in.mu.Lock()
	if r, ok := in.analyses[key]; ok {
		in.mu.Unlock()
		return r, nil
	}
	in.mu.Unlock()
	r, err := in.Eng.AnalyzeProgram(ctx, in.Prog, in.Train, o)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", in.B.Name, err)
	}
	in.mu.Lock()
	in.analyses[key] = r
	in.mu.Unlock()
	return r, nil
}

// AnalyzeGraph is one graph the analyze stage solves, with enough
// context to re-run every client on it. Exported so the root kernel
// benchmark times exactly the graph set the engine analyzes.
type AnalyzeGraph struct {
	Func    string
	G       *cfg.Graph
	NumVars int
}

// AnalyzeGraphs returns the analysis-tier graph set for in at the
// paper's recommended operating point (CA=0.97, CR=0.95): the HPG of
// every qualified function, the original CFG otherwise.
func AnalyzeGraphs(ctx context.Context, in *Instance) ([]AnalyzeGraph, error) {
	res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
	if err != nil {
		return nil, err
	}
	var graphs []AnalyzeGraph
	for _, name := range in.Prog.Order {
		fr := res.Funcs[name]
		g := fr.Fn.G
		if fr.Qualified() {
			g = fr.HPG.G
		}
		graphs = append(graphs, AnalyzeGraph{Func: name, G: g, NumVars: in.Prog.Funcs[name].NumVars()})
	}
	return graphs, nil
}

// EvalMetrics summarizes one analysis under the ref profile.
type EvalMetrics struct {
	// TotalDyn is the ref run's dynamic instruction count.
	TotalDyn int64
	// ConstDyn counts dynamic instructions with constant results
	// (including local constants); NonlocalConstDyn excludes them.
	ConstDyn, NonlocalConstDyn int64
	// Node counts for the growth figures.
	OrigNodes, HPGNodes, RedNodes int
}

// Evaluate weighs an analysis with the ref profile.
func (in *Instance) Evaluate(res *engine.ProgramResult) (*EvalMetrics, error) {
	m := &EvalMetrics{}
	for _, name := range in.Prog.Order {
		fr := res.Funcs[name]
		fn := in.Prog.Funcs[name]
		refProf := in.Ref.Funcs[name]
		m.OrigNodes += fn.G.NumNodes()
		if fr.Qualified() {
			m.HPGNodes += fr.HPG.G.NumNodes()
			m.RedNodes += fr.Red.G.NumNodes()
		} else {
			m.HPGNodes += fn.G.NumNodes()
			m.RedNodes += fn.G.NumNodes()
		}
		ep, err := fr.TranslateEval(refProf)
		if err != nil {
			return nil, fmt.Errorf("bench %s/%s: %w", in.B.Name, name, err)
		}
		g := fr.FinalGraph()
		freq := profile.NodeFrequencies(ep, g)
		m.TotalDyn += ep.DynInstrs(g)
		m.ConstDyn += classify.SiteConstDyn(g, fr.FinalSol(), freq, false)
		m.NonlocalConstDyn += classify.SiteConstDyn(g, fr.FinalSol(), freq, true)
	}
	return m, nil
}

// --- Table 1 -------------------------------------------------------------

// Table1Row mirrors the paper's Table 1.
type Table1Row struct {
	Name     string
	Nodes    int // CFG nodes in the original program
	Paths    int // Ball-Larus paths executed in the training run
	HotPaths int // paths needed to cover 97% of the training run
	// CompileTime is front-end + instrumented training run; AnalTime is
	// constant propagation with CA = 0.
	CompileTime time.Duration
	AnalTime    time.Duration
}

// Table1 regenerates the paper's Table 1 over the suite.
func Table1(ctx context.Context, instances []*Instance) ([]Table1Row, error) {
	var rows []Table1Row
	for _, in := range instances {
		res, err := in.Analyze(ctx, engine.Options{CA: 0, CR: 0.95})
		if err != nil {
			return nil, err
		}
		hot := 0
		for _, name := range in.Prog.Order {
			p := in.Train.Funcs[name]
			hot += len(profile.SelectHot(p, in.Prog.Funcs[name].G, 0.97))
		}
		st := res.Stats()
		rows = append(rows, Table1Row{
			Name:        in.B.Name,
			Nodes:       in.Prog.NumNodes(),
			Paths:       in.Train.TotalPaths(),
			HotPaths:    hot,
			CompileTime: in.CompileTime + in.TrainTime,
			AnalTime:    st.BaselineTime,
		})
	}
	return rows, nil
}

// --- Figure 9 ------------------------------------------------------------

// Fig9Point is one (benchmark, coverage) measurement.
type Fig9Point struct {
	Name string
	CA   float64
	// ConstIncrease is the relative increase in dynamic instructions
	// with constant results over the CA = 0 baseline (the paper's
	// Figure 9 y-axis; its headline "1-7%" numbers).
	ConstIncrease float64
	// NonlocalRatio is qualified non-local constants over baseline
	// non-local constants (the paper's headline "2-112 times").
	NonlocalRatio float64
}

// Fig9 sweeps coverage and reports constant increases.
func Fig9(ctx context.Context, instances []*Instance, cas []float64, cr float64) ([]Fig9Point, error) {
	var pts []Fig9Point
	for _, in := range instances {
		base, err := in.Analyze(ctx, engine.Options{CA: 0, CR: cr})
		if err != nil {
			return nil, err
		}
		bm, err := in.Evaluate(base)
		if err != nil {
			return nil, err
		}
		for _, ca := range cas {
			res, err := in.Analyze(ctx, engine.Options{CA: ca, CR: cr})
			if err != nil {
				return nil, err
			}
			m, err := in.Evaluate(res)
			if err != nil {
				return nil, err
			}
			pt := Fig9Point{Name: in.B.Name, CA: ca}
			if bm.ConstDyn > 0 {
				pt.ConstIncrease = float64(m.ConstDyn-bm.ConstDyn) / float64(bm.ConstDyn)
			}
			if bm.NonlocalConstDyn > 0 {
				pt.NonlocalRatio = float64(m.NonlocalConstDyn) / float64(bm.NonlocalConstDyn)
			} else if m.NonlocalConstDyn > 0 {
				pt.NonlocalRatio = float64(m.NonlocalConstDyn) // baseline zero: report absolute
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// --- Figure 7 ------------------------------------------------------------

// Fig7Row is one benchmark's cumulative constant distribution by block.
type Fig7Row struct {
	Name   string
	Points []classify.CumulativePoint
}

// Fig7 computes, at full coverage, the distribution of dynamic non-local
// constant executions over (HPG) basic blocks.
func Fig7(ctx context.Context, instances []*Instance) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, in := range instances {
		res, err := in.Analyze(ctx, engine.Options{CA: 1.0, CR: 0.95})
		if err != nil {
			return nil, err
		}
		var weights []int64
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			if !fr.Qualified() {
				continue
			}
			ep, err := profile.Translate(in.Ref.Funcs[name], fn.G, fr.HPG)
			if err != nil {
				return nil, err
			}
			freq := profile.NodeFrequencies(ep, fr.HPG.G)
			weights = append(weights, classify.BlockConstWeights(fr.HPG.G, fr.HPGSol, freq)...)
		}
		rows = append(rows, Fig7Row{Name: in.B.Name, Points: classify.CumulativeDistribution(weights)})
	}
	return rows, nil
}

// --- Figure 10 -----------------------------------------------------------

// Fig10Row is one benchmark's Figure 13 category breakdown at CA = 1.
type Fig10Row struct {
	Name   string
	Report *classify.Report
}

// Fig10 classifies every instruction at full coverage.
func Fig10(ctx context.Context, instances []*Instance) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, in := range instances {
		res, err := in.Analyze(ctx, engine.Options{CA: 1.0, CR: 0.95})
		if err != nil {
			return nil, err
		}
		total := &classify.Report{}
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			ci := classify.Input{
				Fn:          fn,
				EvalProfile: in.Ref.Funcs[name],
				OrigSol:     fr.OrigSol,
			}
			if fr.Qualified() {
				ci.Overlay = fr.Red
				ci.OverlaySol = fr.RedSol
				ci.OverlayOrigNode = func(n cfg.NodeID) cfg.NodeID { return fr.Red.OrigNode[n] }
				op, err := fr.TranslateEval(in.Ref.Funcs[name])
				if err != nil {
					return nil, err
				}
				ci.OverlayProfile = op
			}
			total.Add(classify.Classify(ci))
		}
		rows = append(rows, Fig10Row{Name: in.B.Name, Report: total})
	}
	return rows, nil
}

// --- Figure 11 -----------------------------------------------------------

// Fig11Point is a (benchmark, coverage) graph-growth measurement.
type Fig11Point struct {
	Name string
	CA   float64
	// HPGGrowth and RedGrowth are relative node-count increases of the
	// HPG (before reduction) and rHPG (after minimization) over the
	// original program.
	HPGGrowth, RedGrowth float64
}

// Fig11 sweeps coverage and reports growth before and after reduction.
func Fig11(ctx context.Context, instances []*Instance, cas []float64, cr float64) ([]Fig11Point, error) {
	var pts []Fig11Point
	for _, in := range instances {
		for _, ca := range cas {
			res, err := in.Analyze(ctx, engine.Options{CA: ca, CR: cr})
			if err != nil {
				return nil, err
			}
			m, err := in.Evaluate(res)
			if err != nil {
				return nil, err
			}
			o := float64(m.OrigNodes)
			pts = append(pts, Fig11Point{
				Name:      in.B.Name,
				CA:        ca,
				HPGGrowth: (float64(m.HPGNodes) - o) / o,
				RedGrowth: (float64(m.RedNodes) - o) / o,
			})
		}
	}
	return pts, nil
}

// --- Figure 12 -----------------------------------------------------------

// Fig12Point is a (benchmark, coverage) analysis-time measurement.
type Fig12Point struct {
	Name string
	CA   float64
	// TimeRatio is total qualified analysis time over the CA = 0
	// baseline analysis time.
	TimeRatio float64
	// Iterations is the solver-iteration analog (deterministic, unlike
	// wall clock): qualified solver iterations / baseline iterations.
	Iterations float64
}

// Fig12 sweeps coverage and reports analysis-cost growth.
func Fig12(ctx context.Context, instances []*Instance, cas []float64, cr float64) ([]Fig12Point, error) {
	var pts []Fig12Point
	for _, in := range instances {
		base, err := in.Analyze(ctx, engine.Options{CA: 0, CR: cr})
		if err != nil {
			return nil, err
		}
		bst := base.Stats()
		baseIters := solverIterations(base)
		for _, ca := range cas {
			res, err := in.Analyze(ctx, engine.Options{CA: ca, CR: cr})
			if err != nil {
				return nil, err
			}
			st := res.Stats()
			pt := Fig12Point{Name: in.B.Name, CA: ca}
			if bst.BaselineTime > 0 {
				pt.TimeRatio = float64(st.BaselineTime+st.QualifiedTime) / float64(bst.BaselineTime)
			}
			if baseIters > 0 {
				pt.Iterations = float64(solverIterations(res)) / float64(baseIters)
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

func solverIterations(res *engine.ProgramResult) int64 {
	var n int64
	for _, fr := range res.Funcs {
		n += int64(fr.OrigSol.Sol.Iterations)
		if fr.HPGSol != nil {
			n += int64(fr.HPGSol.Sol.Iterations)
		}
		if fr.RedSol != nil {
			n += int64(fr.RedSol.Sol.Iterations)
		}
	}
	return n
}

// --- Table 2 -------------------------------------------------------------

// Table2Row mirrors the paper's Table 2: modeled run time of the
// Wegman-Zadek-optimized program versus the path-qualified one.
type Table2Row struct {
	Name string
	// BaseCycles and OptCycles are modeled run times on the ref input.
	BaseCycles, OptCycles int64
	// Speedup is (base - opt) / base; negative values are slowdowns.
	Speedup float64
	// BaseFolded / OptFolded count statically rewritten instructions
	// (all optimizer passes); BaseCounts / OptCounts break them down.
	BaseFolded, OptFolded int
	BaseCounts, OptCounts opt.Counts
	// Footprints in instruction slots (code growth drives the i-cache
	// component).
	BaseFootprint, OptFootprint int64
	// Cost components, for diagnosing where time went.
	BaseSim, OptSim *machine.Simulation
}

// Table2 regenerates the running-time experiment at CA = 0.97, CR = 0.95.
func Table2(ctx context.Context, instances []*Instance) ([]Table2Row, error) {
	cm := machine.DefaultCostModel()
	cc := machine.DefaultICache()
	var rows []Table2Row
	for _, in := range instances {
		res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
		if err != nil {
			return nil, err
		}
		// Table 2 reproduces the paper's experiment exactly, so it uses
		// the paper's pass (constant folding only). The extended passes
		// (interval folds, dead-store deletion) shrink both programs and
		// wash out the code-growth slowdowns the paper reports; they are
		// exercised by `pathflow opt` and the opt tests instead.
		baseProg, baseFolded := engine.BaselineProgram(in.Prog, opt.PassConst)
		optProg, optFolded := res.OptimizedProgram(opt.PassConst)

		baseOpts := in.B.RefOptions()
		baseOpts.CollectOutput = true
		baseSim, baseRes, err := machine.Simulate(baseProg, baseOpts, cm, cc)
		if err != nil {
			return nil, fmt.Errorf("bench %s base sim: %w", in.B.Name, err)
		}
		optOpts := in.B.RefOptions()
		optOpts.CollectOutput = true
		optSim, optRes, err := machine.Simulate(optProg, optOpts, cm, cc)
		if err != nil {
			return nil, fmt.Errorf("bench %s opt sim: %w", in.B.Name, err)
		}
		// The optimized program must be observationally identical: any
		// divergence is an analysis soundness bug.
		if len(baseRes.Output) != len(optRes.Output) {
			return nil, fmt.Errorf("bench %s: optimized output length diverged", in.B.Name)
		}
		for i := range baseRes.Output {
			if baseRes.Output[i] != optRes.Output[i] {
				return nil, fmt.Errorf("bench %s: optimized output diverged at %d (base %d, opt %d)",
					in.B.Name, i, baseRes.Output[i], optRes.Output[i])
			}
		}
		rows = append(rows, Table2Row{
			Name:          in.B.Name,
			BaseCycles:    baseSim.Cycles,
			OptCycles:     optSim.Cycles,
			Speedup:       float64(baseSim.Cycles-optSim.Cycles) / float64(baseSim.Cycles),
			BaseFolded:    baseFolded.Total(),
			OptFolded:     optFolded.Total(),
			BaseCounts:    baseFolded,
			OptCounts:     optFolded,
			BaseFootprint: baseSim.Footprint,
			OptFootprint:  optSim.Footprint,
			BaseSim:       baseSim,
			OptSim:        optSim,
		})
	}
	return rows, nil
}

// LoadAll loads the whole suite, profiling independent benchmarks in
// parallel on eng's worker pool (nil means DefaultEngine). All instances
// share the one engine, so artifact reuse spans the whole suite.
func LoadAll(ctx context.Context, eng *engine.Engine) ([]*Instance, error) {
	if eng == nil {
		eng = DefaultEngine()
	}
	benchmarks := All() // already sorted by name
	return engine.Map(ctx, eng.Workers(), benchmarks, func(_ context.Context, b *Benchmark) (*Instance, error) {
		return Load(b, eng)
	})
}
