// Benchmark harness: one testing.B benchmark per table and figure of
// Ammons & Larus (PLDI 1998). Each benchmark regenerates its experiment
// over the built-in SPEC95-analog suite, logs the rows the paper reports,
// and exports the headline quantities as benchmark metrics.
//
//	go test -bench=. -benchmem
//
// The same rows are printed by `go run ./cmd/pathflow exp all`.
package pathflow

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/classify"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/profile"
	"pathflow/internal/profile/stream"
	"pathflow/internal/trace"
	"pathflow/internal/tupling"
)

var benchCtx = context.Background()

var (
	suiteOnce sync.Once
	suiteIns  []*bench.Instance
	suiteErr  error
)

func suite(b *testing.B) []*bench.Instance {
	b.Helper()
	suiteOnce.Do(func() { suiteIns, suiteErr = bench.LoadAll(benchCtx, nil) })
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteIns
}

// BenchmarkTable1 regenerates Table 1: benchmark sizes, executed paths,
// hot paths at 97% coverage, and compile/analysis times.
func BenchmarkTable1(b *testing.B) {
	ins := suite(b)
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Table1(benchCtx, ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	totalPaths := 0
	for _, r := range rows {
		b.Logf("Table1 %-9s nodes=%5d paths=%5d hot@0.97=%4d compile=%v anal=%v",
			r.Name, r.Nodes, r.Paths, r.HotPaths, r.CompileTime.Round(time.Microsecond),
			r.AnalTime.Round(time.Microsecond))
		totalPaths += r.Paths
	}
	b.ReportMetric(float64(totalPaths), "paths")
}

// BenchmarkTable2 regenerates Table 2: modeled run time of the baseline
// versus the path-qualified program at CA=0.97, CR=0.95, including the
// built-in differential output check.
func BenchmarkTable2(b *testing.B) {
	ins := suite(b)
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Table2(benchCtx, ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	var best float64
	for _, r := range rows {
		b.Logf("Table2 %-9s base=%10d opt=%10d speedup=%+6.2f%% folds=%d/%d code=%d/%d",
			r.Name, r.BaseCycles, r.OptCycles, 100*r.Speedup,
			r.BaseFolded, r.OptFolded, r.BaseFootprint, r.OptFootprint)
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	b.ReportMetric(100*best, "best-speedup-%")
}

// BenchmarkFig7 regenerates Figure 7: the cumulative distribution of
// dynamic non-local constant executions over basic blocks.
func BenchmarkFig7(b *testing.B) {
	ins := suite(b)
	var rows []bench.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig7(benchCtx, ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		need := func(f float64) int {
			for _, p := range r.Points {
				if p.Fraction >= f {
					return p.Blocks
				}
			}
			return 0
		}
		b.Logf("Fig7 %-9s blocks=%5d for50%%=%4d for90%%=%4d for99%%=%4d",
			r.Name, len(r.Points), need(0.5), need(0.9), need(0.99))
	}
}

// BenchmarkFig9 regenerates Figure 9: the increase in dynamic constant
// instructions versus path coverage, plus the non-local ratio headline.
func BenchmarkFig9(b *testing.B) {
	ins := suite(b)
	var pts []bench.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.Fig9(benchCtx, ins, bench.CoverageLevels, 0.95)
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxIncrease float64
	for _, p := range pts {
		b.Logf("Fig9 %-9s ca=%.4f increase=%+6.2f%% nonlocal-ratio=%6.1fx",
			p.Name, p.CA, 100*p.ConstIncrease, p.NonlocalRatio)
		if p.ConstIncrease > maxIncrease {
			maxIncrease = p.ConstIncrease
		}
	}
	b.ReportMetric(100*maxIncrease, "max-increase-%")
}

// BenchmarkFig10 regenerates Figure 10: the Figure 13 taxonomy of dynamic
// instructions at full coverage.
func BenchmarkFig10(b *testing.B) {
	ins := suite(b)
	var rows []bench.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig10(benchCtx, ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		line := fmt.Sprintf("Fig10 %-9s", r.Name)
		for c := classify.Category(0); c < classify.NumCategories; c++ {
			line += fmt.Sprintf(" %s=%.2f%%", c, 100*r.Report.Frac(c))
		}
		b.Log(line)
	}
}

// BenchmarkFig11 regenerates Figure 11: HPG and rHPG growth versus
// coverage.
func BenchmarkFig11(b *testing.B) {
	ins := suite(b)
	var pts []bench.Fig11Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.Fig11(benchCtx, ins, bench.CoverageLevels, 0.95)
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxGrowth float64
	for _, p := range pts {
		b.Logf("Fig11 %-9s ca=%.4f hpg=%+7.1f%% rhpg=%+7.1f%%",
			p.Name, p.CA, 100*p.HPGGrowth, 100*p.RedGrowth)
		if p.HPGGrowth > maxGrowth {
			maxGrowth = p.HPGGrowth
		}
	}
	b.ReportMetric(100*maxGrowth, "max-hpg-growth-%")
}

// BenchmarkFig12 regenerates Figure 12: analysis cost versus coverage.
func BenchmarkFig12(b *testing.B) {
	ins := suite(b)
	var pts []bench.Fig12Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.Fig12(benchCtx, ins, bench.CoverageLevels, 0.95)
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxIters float64
	for _, p := range pts {
		b.Logf("Fig12 %-9s ca=%.4f time=%5.2fx iters=%5.2fx", p.Name, p.CA, p.TimeRatio, p.Iterations)
		if p.Iterations > maxIters {
			maxIters = p.Iterations
		}
	}
	b.ReportMetric(maxIters, "max-iter-ratio")
}

// BenchmarkAblationCR sweeps the reduction benefit cutoff (DESIGN.md's
// reduction ablation): precision preserved vs reduced size.
func BenchmarkAblationCR(b *testing.B) {
	ins := suite(b)
	var pts []bench.CRPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.CRSweep(benchCtx, ins, []float64{0, 0.5, 0.9, 0.95, 1.0})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.Logf("CR %-9s cr=%.2f preserved=%6.1f%% nodes=%d", p.Name, p.CR, 100*p.Preserved, p.RedNodes)
	}
}

// BenchmarkAblationBranches measures decided branches (§7's
// Mueller-Whalley connection).
func BenchmarkAblationBranches(b *testing.B) {
	ins := suite(b)
	var rows []bench.BranchRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Branches(benchCtx, ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("Branches %-9s base=%d qualified=%d (sites %d -> %d)",
			r.Name, r.BaseDyn, r.QualDyn, r.BaseStatic, r.QualStatic)
	}
}

// BenchmarkAblationSigns measures the second data-flow client (§8).
func BenchmarkAblationSigns(b *testing.B) {
	ins := suite(b)
	var rows []bench.SignsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Signs(benchCtx, ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("Signs %-9s base=%d qualified=%d gain=%+.2f%%", r.Name, r.BaseDyn, r.QualDyn, 100*r.Gain)
	}
}

// BenchmarkFeasible regenerates the two-axis precision ablation behind
// `exp feasible`: per benchmark and client, the original CFG vertices
// whose facts are strictly improved by the frequency axis alone
// (unmasked reduced HPG), the feasibility axis alone (infeasible-edge
// pruning on the CFG, no profile), and the combined configuration —
// plus the correlation-detection and masked re-solve cost.
func BenchmarkFeasible(b *testing.B) {
	ins := suite(b)
	var rows []bench.FeasibleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Feasible(benchCtx, ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	var detect, solve time.Duration
	var freq, feas, both int
	for _, r := range rows {
		detect += r.DetectTime
		solve += r.SolveTime
		for _, c := range r.Clients {
			freq += c.FreqOnly
			feas += c.FeasOnly
			both += c.Both
			b.Logf("Feasible %-9s %-9s freq=%d feas=%d both=%d edges=%d/%d",
				r.Name, c.Client, c.FreqOnly, c.FeasOnly, c.Both, r.InfeasibleCFG, r.InfeasibleRed)
		}
	}
	b.ReportMetric(float64(freq), "freq-improved")
	b.ReportMetric(float64(feas), "feas-improved")
	b.ReportMetric(float64(both), "both-improved")
	b.ReportMetric(float64(detect.Milliseconds()), "detect-ms")
	b.ReportMetric(float64(solve.Milliseconds()), "masked-solve-ms")
}

// BenchmarkTracingVsTupling compares the two qualification methods of
// §4.3 on every benchmark function: Holley-Rosen data-flow tracing
// (expand the graph, then solve) versus context tupling (solve a tupled
// problem over the original graph). The paper reports tupling is no
// faster; this benchmark lets the reader check.
func BenchmarkTracingVsTupling(b *testing.B) {
	ins := suite(b)
	run := func(b *testing.B, tuple bool) {
		for i := 0; i < b.N; i++ {
			for _, in := range ins {
				for _, name := range in.Prog.Order {
					fn := in.Prog.Funcs[name]
					pr := in.Train.Funcs[name]
					if pr == nil || pr.NumPaths() == 0 {
						continue
					}
					hot := profile.SelectHot(pr, fn.G, 0.97)
					if len(hot) == 0 {
						continue
					}
					a, err := automaton.New(fn.G, pr.R, hot)
					if err != nil {
						b.Fatal(err)
					}
					if tuple {
						tupling.Analyze(fn.G, fn.NumVars(), a, true)
					} else {
						h, err := trace.Build(fn, a)
						if err != nil {
							b.Fatal(err)
						}
						constprop.AnalyzeBoxed(h.G, fn.NumVars(), true)
					}
				}
			}
		}
	}
	b.Run("tracing", func(b *testing.B) { run(b, false) })
	b.Run("tupling", func(b *testing.B) { run(b, true) })
}

// BenchmarkProfilers compares the two Ball-Larus profiler
// implementations' run-time overhead on the compress training run.
func BenchmarkProfilers(b *testing.B) {
	bm, err := bench.Get("compress")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bm.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := interp.Run(prog, bm.TrainOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tracker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bl.ProfileProgram(prog, bm.TrainOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ips := map[string]*bl.Instrumented{}
			for name, fn := range prog.Funcs {
				ip, err := bl.NewInstrumented(fn, bl.RecordingEdges(fn.G))
				if err != nil {
					b.Fatal(err)
				}
				ips[name] = ip
			}
			opts := bm.TrainOptions()
			opts.OnEnter = func(fn *cfg.Func) { ips[fn.Name].Enter() }
			opts.OnEdge = func(fn *cfg.Func, e cfg.EdgeID) { ips[fn.Name].Edge(e) }
			opts.OnExit = func(fn *cfg.Func) { ips[fn.Name].Exit() }
			if _, err := interp.Run(prog, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipeline measures the full per-benchmark pipeline (profile
// through reduction) at the paper's recommended parameters — the cost a
// compiler would pay to adopt the technique.
func BenchmarkPipeline(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog, err := bm.Program()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_, _, err := engine.Serial().ProfileAndAnalyze(benchCtx, prog, bm.TrainOptions(), engine.Options{CA: 0.97, CR: 0.95})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalysisOnly measures just the analysis stages (no training
// run) per benchmark, separating the cost Figure 12 charts.
func BenchmarkAnalysisOnly(b *testing.B) {
	ins := suite(b)
	for _, in := range ins {
		in := in
		b.Run(in.B.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := engine.Serial().AnalyzeProgram(benchCtx, in.Prog, in.Train, engine.Options{CA: 0.97, CR: 0.95})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSweep measures the engine's parameter-sweep cost under
// three configurations: the legacy-equivalent serial engine, bounded
// parallel scheduling across functions, and parallel scheduling plus the
// cross-run artifact cache (each iteration starts a cold cache, so the
// reported win is intra-sweep reuse only). The sweep is the harness's
// workload shape: every CA level at CR=0.95 (Figures 9/11/12), a CR
// sweep at CA=0.97 (the reduction ablation), and the recommended point
// once per ablation (Branches/Signs/Ranges/Propagation/EdgeSelection/CR
// all start from CA=0.97, CR=0.95).
//
// Compare with benchstat:
//
//	go test -run - -bench EngineSweep -count 10 | tee new.txt
//	benchstat old.txt new.txt
func BenchmarkEngineSweep(b *testing.B) {
	ins := suite(b)
	var opts []engine.Options
	for _, ca := range bench.CoverageLevels {
		opts = append(opts, engine.Options{CA: ca, CR: 0.95})
	}
	for cr := 0.0; cr <= 1.0; cr += 0.1 {
		opts = append(opts, engine.Options{CA: 0.97, CR: cr})
	}
	// The ablation suite re-analyzes the recommended point once per
	// ablation; repeats are where a cache shines brightest.
	for i := 0; i < 6; i++ {
		opts = append(opts, engine.DefaultOptions())
	}
	run := func(b *testing.B, cfg engine.Config) {
		for b.Loop() {
			eng := engine.New(cfg)
			for _, in := range ins {
				if _, err := eng.SweepProgram(benchCtx, in.Prog, in.Train, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, engine.Config{Workers: 1}) })
	b.Run("parallel", func(b *testing.B) { run(b, engine.Config{Workers: 0}) })
	b.Run("cached", func(b *testing.B) { run(b, engine.Config{Workers: 0, Cache: true}) })
}

// BenchmarkEngineWarmStart measures the persistent tier's replay win on
// the full-suite sweep (same workload as EngineSweep):
//
//   - cold: a fresh engine with an empty cache every iteration — every
//     artifact is computed from scratch.
//   - memwarm: one long-lived engine; after a priming sweep each
//     iteration replays entirely from the in-memory tier. The upper
//     bound for any warm start.
//   - diskwarm: a CacheDir is populated once; each iteration then models
//     a process restart by calling engine.Open on the directory with an
//     empty memory tier, so every artifact is read and decoded from
//     disk. The tentpole contract is diskwarm ≥ 2x faster than cold
//     (recorded in BENCH_warm_start.json).
//
// Compare with benchstat:
//
//	go test -run - -bench EngineWarmStart -count 10 | tee new.txt
//	benchstat old.txt new.txt
func BenchmarkEngineWarmStart(b *testing.B) {
	ins := suite(b)
	var opts []engine.Options
	for _, ca := range bench.CoverageLevels {
		opts = append(opts, engine.Options{CA: ca, CR: 0.95})
	}
	for cr := 0.0; cr <= 1.0; cr += 0.1 {
		opts = append(opts, engine.Options{CA: 0.97, CR: cr})
	}
	sweep := func(b *testing.B, eng *engine.Engine) {
		b.Helper()
		for _, in := range ins {
			if _, err := eng.SweepProgram(benchCtx, in.Prog, in.Train, opts); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		for b.Loop() {
			sweep(b, engine.New(engine.Config{Workers: 1}))
		}
	})
	b.Run("memwarm", func(b *testing.B) {
		eng := engine.New(engine.Config{Workers: 1, Cache: true})
		sweep(b, eng) // prime outside the timed region (b.Loop resets)
		for b.Loop() {
			sweep(b, eng)
		}
	})
	b.Run("diskwarm", func(b *testing.B) {
		dir := b.TempDir()
		prime, err := engine.Open(engine.Config{Workers: 1, CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		sweep(b, prime) // populate the directory, untimed
		for b.Loop() {
			eng, err := engine.Open(engine.Config{Workers: 1, CacheDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			sweep(b, eng)
			st := eng.CacheStats()
			if st.Disk.Hits == 0 || st.Disk.Writes != 0 {
				b.Fatalf("disk-warm iteration not served from disk: %+v", st.Disk)
			}
		}
	})
}

// BenchmarkEngineIncremental measures the edit-analyze loop: one
// iteration walks the seven benchmarks in turn, applies a one-block
// body-only edit to a profiled function of that benchmark (an
// instruction constant moves; counts, shape and profile do not), and
// re-analyzes the whole suite at the recommended point — seven
// edit-then-reanalyze rounds per iteration, each with exactly one
// edited function in the workload.
//
//   - cold: a fresh engine with an empty cache — every round computes
//     every artifact of every program from scratch, the
//     pre-incremental cost of any edit.
//   - incremental: the cache is warmed with the *original* suite
//     (untimed, rebuilt every iteration so edited artifacts never
//     accumulate); the timed rounds re-analyze the suite with one
//     program swapped for its edited clone. The per-stage Merkle keys
//     replay the six untouched programs and every untouched function
//     of the edited one completely and, within the edited function,
//     replay select, automaton and translate (their input slices
//     exclude block bodies) — only baseline, trace, analyze and
//     reduce recompute.
//
// The tentpole contract — a body edit replays ≥ 3 stages of the edited
// function and the suite re-analysis is ≥ 3x faster than cold — is
// asserted here and recorded in BENCH_incremental.json.
//
// Compare with benchstat:
//
//	go test -run - -bench EngineIncremental -count 10 | tee new.txt
//	benchstat old.txt new.txt
func BenchmarkEngineIncremental(b *testing.B) {
	ins := suite(b)
	o := engine.DefaultOptions()

	// Build the edited variants: deep-clone each benchmark program
	// (Program() is memoized, so the original must stay untouched) and
	// bump an instruction constant in one of its profiled functions.
	edited := make([]*cfg.Program, len(ins))
	for i, in := range ins {
		prog := cfg.NewProgram()
		for _, name := range in.Prog.Order {
			prog.Add(in.Prog.Funcs[name].CloneFunc())
		}
		// Edit the least-profiled function that still qualifies: the
		// typical incremental workload is an edit to one modest function
		// of a large program, with the expensive hot functions untouched
		// (and hence fully replayed).
		target := ""
		best := int(^uint(0) >> 1)
		for _, name := range prog.Order {
			if pr := in.Train.Funcs[name]; pr != nil && pr.NumPaths() > 0 && pr.NumPaths() < best {
				target, best = name, pr.NumPaths()
			}
		}
		if target == "" {
			b.Fatalf("%s: no profiled function to edit", in.B.Name)
		}
		fn := prog.Funcs[target]
		edit := false
		for _, nd := range fn.G.Nodes {
			if len(nd.Instrs) > 0 {
				nd.Instrs[0].K++
				edit = true
				break
			}
		}
		if !edit {
			b.Fatalf("%s/%s: no instruction to edit", in.B.Name, target)
		}
		d := engine.DiffFunc(in.Prog.Funcs[target], fn, in.Train.Funcs[target], in.Train.Funcs[target])
		if d.Class != engine.DeltaBody {
			b.Fatalf("%s/%s: edit classified %q, want body", in.B.Name, target, d.Class)
		}
		edited[i] = prog
	}

	analyzeAll := func(b *testing.B, eng *engine.Engine, progs []*cfg.Program) {
		b.Helper()
		for i, in := range ins {
			if _, err := eng.AnalyzeProgram(benchCtx, progs[i], in.Train, o); err != nil {
				b.Fatal(err)
			}
		}
	}
	originals := make([]*cfg.Program, len(ins))
	for i, in := range ins {
		originals[i] = in.Prog
	}
	// round k of an iteration analyzes the suite with only benchmark k
	// swapped for its edited clone.
	mixed := func(k int) []*cfg.Program {
		progs := make([]*cfg.Program, len(ins))
		copy(progs, originals)
		progs[k] = edited[k]
		return progs
	}

	// Contract check (outside the timed runs): the edited functions
	// replay at least three pipeline stages on a warm cache.
	{
		eng := engine.New(engine.Config{Workers: 1, Cache: true})
		analyzeAll(b, eng, originals)
		for i, in := range ins {
			res, err := eng.AnalyzeProgram(benchCtx, edited[i], in.Train, o)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range edited[i].Order {
				if engine.FingerprintFunc(edited[i].Funcs[name]) == engine.FingerprintFunc(in.Prog.Funcs[name]) {
					continue // untouched function
				}
				replayed := 0
				for _, s := range engine.PipelineStages {
					if res.Funcs[name].Metrics.Stages[s].CacheHits > 0 {
						replayed++
					}
				}
				if res.Funcs[name].Qualified() && replayed < 3 {
					b.Fatalf("%s/%s: body edit replayed only %d stages, want >= 3", in.B.Name, name, replayed)
				}
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		eng := engine.New(engine.Config{Workers: 1})
		for b.Loop() {
			for k := range ins {
				analyzeAll(b, eng, mixed(k))
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := engine.New(engine.Config{Workers: 1, Cache: true})
			analyzeAll(b, eng, originals) // warm with the pre-edit suite
			b.StartTimer()
			for k := range ins {
				analyzeAll(b, eng, mixed(k))
			}
		}
	})
}

// BenchmarkAnalyzeKernels compares the boxed reference solver against
// the packed SoA kernel on the largest analysis-tier HPGs of the suite
// (the graphs `pathflow exp` actually solves). Three configurations:
//
//	boxed    one boxed constprop solve per graph per iteration
//	packed   one packed solve per graph per iteration (includes domain
//	         construction and solution materialization)
//	resolve  Run() on pre-built packed solvers — the steady-state path
//	         the engine's hot loop pays for; must report 0 allocs/op
//	         (ci.sh greps for exactly that)
func BenchmarkAnalyzeKernels(b *testing.B) {
	ins := suite(b)
	var graphs []bench.AnalyzeGraph
	for _, in := range ins {
		gs, err := bench.AnalyzeGraphs(benchCtx, in)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, gs...)
	}
	sort.Slice(graphs, func(i, j int) bool { return graphs[i].G.NumNodes() > graphs[j].G.NumNodes() })
	if len(graphs) > 8 {
		graphs = graphs[:8]
	}
	nodes := 0
	for _, g := range graphs {
		nodes += g.G.NumNodes()
	}

	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				constprop.AnalyzeBoxed(g.G, g.NumVars, true)
			}
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				constprop.AnalyzePacked(g.G, g.NumVars, true)
			}
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("resolve", func(b *testing.B) {
		solvers := make([]*kernel.Solver, len(graphs))
		for i, g := range graphs {
			solvers[i] = constprop.PackedSolver(g.G, g.NumVars, true)
			solvers[i].Run() // warm: arenas sized before the timer starts
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range solvers {
				s.Run()
			}
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
}

// BenchmarkStreamingDrift times the streaming ingest → drift → requalify
// loop against full cold re-analysis. One iteration walks the suite: for
// each benchmark, four hot-set-flipping counter batches land on a
// decaying accumulator set (stream.Set) and the program re-analyzes
// against the live profile.
//
//	cold   fresh engine per benchmark, every round recomputes the whole
//	       program against the live profile
//	drift  cache warmed (untimed) with the training profile; timed rounds
//	       replay every untouched function and recompute only the drifted
//	       function's StageSelect-downstream suffix
//
// The untimed contract check asserts exactly that split: in a drift
// round the untouched functions compute zero stages, and the drifted
// function replays its baseline stage (profile-clean) while recomputing
// select onward.
func BenchmarkStreamingDrift(b *testing.B) {
	ins := suite(b)
	o := engine.DefaultOptions()
	const rounds = 4

	// runRounds drives one benchmark's drift trajectory on eng: apply
	// the flip, materialize the live profile, re-analyze the program.
	// Returns the last round's drifted function and program result.
	runRounds := func(b *testing.B, eng *engine.Engine, in *bench.Instance) (string, *engine.ProgramResult) {
		b.Helper()
		set := stream.NewSet(in.Prog, in.Train)
		prev := in.Train
		var lastFn string
		var lastRes *engine.ProgramResult
		for round := 1; round <= rounds; round++ {
			fn, path := bench.StreamFlipTarget(prev, in.Prog.Order)
			if fn == "" {
				b.Fatalf("%s: no multi-path function to drift", in.B.Name)
			}
			if _, err := set.Apply(&stream.Batch{Source: "bench", Funcs: []stream.FuncDelta{{
				Func: fn, Seq: uint64(round),
				Paths: []stream.PathDelta{{Path: path, Count: int64(10_000_000 * round)}},
			}}}); err != nil {
				b.Fatal(err)
			}
			live := set.Profile()
			res, err := eng.AnalyzeProgram(benchCtx, in.Prog, live, o)
			if err != nil {
				b.Fatal(err)
			}
			prev, lastFn, lastRes = live, fn, res
		}
		return lastFn, lastRes
	}

	// Contract check (outside the timed runs): with a warm cache, a
	// drift round computes stages only in the drifted function, and even
	// there the baseline stage replays — the profile delta dirties
	// select onward, nothing upstream.
	for _, in := range ins {
		eng := engine.New(engine.Config{Workers: 1, Cache: true})
		if _, err := eng.AnalyzeProgram(benchCtx, in.Prog, in.Train, o); err != nil {
			b.Fatal(err)
		}
		drifted, res := runRounds(b, eng, in)
		for _, name := range in.Prog.Order {
			computed := 0
			for _, s := range engine.PipelineStages {
				sm := res.Funcs[name].Metrics.Stages[s]
				computed += sm.Runs - sm.CacheHits
			}
			if name != drifted && computed != 0 {
				b.Fatalf("%s/%s: untouched function computed %d stages in a drift round", in.B.Name, name, computed)
			}
		}
		fm := res.Funcs[drifted].Metrics.Stages
		if bs := fm[engine.StageBaseline]; bs.Runs != bs.CacheHits {
			b.Fatalf("%s/%s: drifted function recomputed baseline (profile deltas dirty select onward only)", in.B.Name, drifted)
		}
		if ss := fm[engine.StageSelect]; ss.Runs == ss.CacheHits {
			b.Fatalf("%s/%s: drifted function never recomputed select despite a flipped hot set", in.B.Name, drifted)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for b.Loop() {
			for _, in := range ins {
				eng := engine.New(engine.Config{Workers: 1})
				runRounds(b, eng, in)
			}
		}
	})
	b.Run("drift", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			engines := make([]*engine.Engine, len(ins))
			for j, in := range ins {
				engines[j] = engine.New(engine.Config{Workers: 1, Cache: true})
				if _, err := engines[j].AnalyzeProgram(benchCtx, in.Prog, in.Train, o); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			for j, in := range ins {
				runRounds(b, engines[j], in)
			}
		}
	})
}
