package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"pathflow/internal/bench"
	"pathflow/internal/classify"
	"pathflow/internal/engine"
)

// cmdExp regenerates the paper's tables and figures over the benchmark
// suite. The experiments run on a shared engine: functions are analyzed
// in parallel on -workers workers and every artifact a sweep point can
// reuse comes from the cross-run cache (disable with -nocache to measure
// cold costs). Ctrl-C cancels the sweep promptly.
func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "parallel function analyses (0 = NumCPU)")
	nocache := fs.Bool("nocache", false, "disable the cross-run artifact cache")
	verbose := fs.Bool("v", false, "print per-stage cache provenance (computed/memory/disk) after the run")
	kernelFlag := fs.String("kernel", "packed", "data-flow solver backend: packed (the production kernels); boxed is the test reference, not a production choice")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after the experiment) to this file")
	cflags := addCacheFlags(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: pathflow exp [-workers n] [-nocache] [-cachedir dir] [-cachemax size] [-kernel packed|boxed] [-cpuprofile f] [-memprofile f] [-v] <table1|table2|fig7|fig9|fig10|fig11|fig12|ablation|clients|kernels|feasible|streaming|all>")
	}
	what := fs.Arg(0)
	kern, err := engine.ParseKernel(*kernelFlag)
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("exp: -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("exp: -cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pathflow: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pathflow: -memprofile:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ecfg, err := cflags.engineConfig(*workers, !*nocache)
	if err != nil {
		return err
	}
	eng, err := engine.Open(ecfg)
	if err != nil {
		return err
	}
	var prov provTracker
	if *verbose {
		ctx = prov.install(ctx)
	}
	ins, err := bench.LoadAll(ctx, eng)
	if err != nil {
		return err
	}
	for _, in := range ins {
		in.Kernel = kern
	}
	exps := map[string]func(context.Context, []*bench.Instance) error{
		"table1": expTable1, "table2": expTable2, "fig7": expFig7,
		"fig9": expFig9, "fig10": expFig10, "fig11": expFig11,
		"fig12": expFig12, "ablation": expAblation, "clients": expClients,
		"kernels": expKernels, "feasible": expFeasible, "streaming": expStreaming,
	}
	switch {
	case what == "all":
		for _, f := range []func(context.Context, []*bench.Instance) error{
			expTable1, expFig7, expFig9, expFig10, expFig11, expFig12, expTable2, expAblation, expClients, expKernels, expFeasible, expStreaming,
		} {
			if err := f(ctx, ins); err != nil {
				return err
			}
			fmt.Println()
		}
		printCacheStats(eng.CacheStats())
	case exps[what] != nil:
		if err := exps[what](ctx, ins); err != nil {
			return err
		}
		if *verbose {
			printCacheStats(eng.CacheStats())
		}
	default:
		return fmt.Errorf("unknown experiment %q", what)
	}
	if *verbose {
		prov.print()
	}
	return nil
}

func expAblation(ctx context.Context, ins []*bench.Instance) error {
	fmt.Println("Ablation A: reduction cutoff CR at CA=0.97")
	fmt.Println("(constants preserved relative to CR=1, and reduced graph size)")
	crs := []float64{0, 0.5, 0.9, 0.95, 1.0}
	pts, err := bench.CRSweep(ctx, ins, crs)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %8s", "Program", "")
	for _, cr := range crs {
		fmt.Printf(" %11.2f", cr)
	}
	fmt.Println()
	byName := map[string][]bench.CRPoint{}
	var order []string
	for _, p := range pts {
		if _, ok := byName[p.Name]; !ok {
			order = append(order, p.Name)
		}
		byName[p.Name] = append(byName[p.Name], p)
	}
	for _, name := range order {
		fmt.Printf("%-10s %8s", name, "kept")
		for _, p := range byName[name] {
			fmt.Printf("      %5.1f%%", 100*p.Preserved)
		}
		fmt.Println()
		fmt.Printf("%-10s %8s", "", "nodes")
		for _, p := range byName[name] {
			fmt.Printf(" %11d", p.RedNodes)
		}
		fmt.Println()
	}

	fmt.Println("\nAblation B: branches with constant conditions (§7, Mueller-Whalley)")
	brs, err := bench.Branches(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %14s %14s %12s %12s\n", "Program", "base dyn", "qualified dyn", "base sites", "qual sites")
	for _, r := range brs {
		fmt.Printf("%-10s %14d %14d %12d %12d\n", r.Name, r.BaseDyn, r.QualDyn, r.BaseStatic, r.QualStatic)
	}

	fmt.Println("\nAblation C: qualified sign analysis (§8: other data-flow problems)")
	srs, err := bench.Signs(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %14s %14s %9s\n", "Program", "base dyn", "qualified dyn", "gain")
	for _, r := range srs {
		fmt.Printf("%-10s %14d %14d %+8.2f%%\n", r.Name, r.BaseDyn, r.QualDyn, 100*r.Gain)
	}

	fmt.Println("\nAblation C2: qualified value-range analysis (widening lattice)")
	rrs, err := bench.Ranges(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %14s %14s %9s\n", "Program", "base dyn", "qualified dyn", "gain")
	for _, r := range rrs {
		fmt.Printf("%-10s %14d %14d %+8.2f%%\n", r.Name, r.BaseDyn, r.QualDyn, 100*r.Gain)
	}

	fmt.Println("\nAblation D: Wegman-Zadek conditional vs plain iterative propagation on the rHPG")
	prs, err := bench.Propagation(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %14s %14s\n", "Program", "plain dyn", "conditional")
	for _, r := range prs {
		fmt.Printf("%-10s %14d %14d\n", r.Name, r.PlainDyn, r.CondDyn)
	}

	fmt.Println("\nAblation E: hot paths from true path profiles vs edge-profile estimation")
	ers, err := bench.EdgeSelection(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %14s %14s %10s %16s\n", "Program", "path-prof dyn", "edge-est dyn", "paths p/e", "real edge paths")
	for _, r := range ers {
		fmt.Printf("%-10s %14d %14d %5d/%-5d %10d/%d\n",
			r.Name, r.PathDyn, r.EdgeDyn, r.PathHot, r.EdgeHot, r.EdgeReal, r.EdgeHot)
	}
	return nil
}

// expClients extends the Figure-7 methodology to the non-constant
// clients: dynamically-weighted dead stores (backward liveness) and
// redundant recomputations (forward available expressions), CFG vs the
// reduced hot path graph.
func expClients(ctx context.Context, ins []*bench.Instance) error {
	rows, err := bench.Clients(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Println("Client analyses on the rHPG: dead stores (backward liveness)")
	fmt.Println("and redundant expressions (forward availability), weighted by")
	fmt.Println("the ref profile (CA=0.97, CR=0.95)")
	fmt.Printf("%-10s %25s %25s\n", "", "dead stores dyn", "redundant exprs dyn")
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "Program", "CFG", "rHPG", "CFG", "rHPG")
	for _, r := range rows {
		fmt.Printf("%-10s %12d %12d %12d %12d\n",
			r.Name, r.LiveBaseDyn, r.LiveQualDyn, r.AvailBaseDyn, r.AvailQualDyn)
	}
	return nil
}

// expFeasible runs the two-axis precision ablation: for every client,
// the number of original CFG vertices about which an axis combination
// learned something strictly more precise than the plain CFG solution —
// the frequency axis alone (unmasked rHPG), the feasibility axis alone
// (infeasible-edge-masked CFG — no profile), and both composed (the
// combined configuration's artifacts: masked CFG plus masked rHPG).
// All three columns count on the shared CFG-vertex universe, so they
// compare directly; see bench.FeasibleClient.
func expFeasible(ctx context.Context, ins []*bench.Instance) error {
	rows, err := bench.Feasible(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Println("Feasible-path qualification: CFG vertices with strictly improved facts")
	fmt.Println("(per client; freq = unmasked reduced HPG at CA=0.97/CR=0.95, feas =")
	fmt.Println(" infeasible-edge pruning on the original CFG — no profile, both =")
	fmt.Println(" masked CFG + masked reduced HPG combined; all columns count")
	fmt.Println(" original CFG vertices; 'edges' = infeasible edges found cfg/rhpg)")
	fmt.Printf("%-10s %-10s %8s %8s %8s %12s %11s\n",
		"Program", "client", "freq", "feas", "both", "edges", "detect")
	for _, r := range rows {
		for i, c := range r.Clients {
			name, edges, det := "", "", ""
			if i == 0 {
				name = r.Name
				edges = fmt.Sprintf("%d/%d", r.InfeasibleCFG, r.InfeasibleRed)
				det = r.DetectTime.Round(10 * time.Microsecond).String()
			}
			fmt.Printf("%-10s %-10s %8d %8d %8d %12s %11s\n",
				name, c.Client, c.FreqOnly, c.FeasOnly, c.Both, edges, det)
		}
	}
	return nil
}

// expStreaming measures drift-triggered requalification: per benchmark,
// a cold analysis fills a fresh engine's cache, then four streamed
// hot-set-flipping counter batches land on a decaying accumulator set
// and the program re-analyzes under per-function delta classes. The
// contract the table makes visible: every round's 'computed' stays far
// below the cold run's while 'replayed' absorbs the rest — only the
// drifted function's StageSelect-downstream suffix recomputes.
func expStreaming(ctx context.Context, ins []*bench.Instance) error {
	rows, err := bench.Streaming(ctx, ins, 4)
	if err != nil {
		return err
	}
	fmt.Println("Streaming drift requalification (CA=0.97, CR=0.95; 4 rounds of")
	fmt.Println("hot-set-flipping counter deltas per benchmark; computed/replayed")
	fmt.Println("count pipeline stage executions — fresh vs served from cache)")
	fmt.Printf("%-10s %6s %7s %7s %9s %9s %11s\n",
		"Program", "round", "drift", "requal", "computed", "replayed", "time")
	for _, r := range rows {
		fmt.Printf("%-10s %6s %7s %7s %9d %9s %11s\n",
			r.Name, "cold", "-", "-", r.ColdComputed, "-",
			r.ColdTime.Round(10*time.Microsecond))
		for _, sr := range r.Rounds {
			fmt.Printf("%-10s %6d %7d %7d %9d %9d %11s\n",
				"", sr.Round, sr.Drifted, sr.Requalified, sr.Computed, sr.Replayed,
				sr.Time.Round(10*time.Microsecond))
		}
	}
	return nil
}

func expTable1(ctx context.Context, ins []*bench.Instance) error {
	rows, err := bench.Table1(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Println("Table 1: general information about the benchmarks")
	fmt.Println("(Nodes: CFG nodes; Paths: Ball-Larus paths executed in training;")
	fmt.Println(" Hot Paths: paths covering 97% of training instructions;")
	fmt.Println(" Compile: front end + instrumented training run; Anal.: CA=0 analysis)")
	fmt.Printf("%-10s %7s %7s %10s %12s %12s\n", "Program", "Nodes", "Paths", "Hot Paths", "Compile", "Anal. Time")
	for _, r := range rows {
		fmt.Printf("%-10s %7d %7d %10d %12s %12s\n",
			r.Name, r.Nodes, r.Paths, r.HotPaths,
			r.CompileTime.Round(time.Microsecond), r.AnalTime.Round(time.Microsecond))
	}
	return nil
}

func expTable2(ctx context.Context, ins []*bench.Instance) error {
	rows, err := bench.Table2(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Println("Table 2: effect of path-qualified constant propagation on run time")
	fmt.Println("(modeled cycles on the ref input; CA=0.97, CR=0.95;")
	fmt.Println(" Base: Wegman-Zadek folding; Optimized: path-qualified folding)")
	fmt.Printf("%-10s %12s %12s %9s %11s %10s\n", "Program", "Base", "Optimized", "Speedup", "Folds(b/o)", "Code(b/o)")
	for _, r := range rows {
		fmt.Printf("%-10s %12d %12d %+8.2f%% %5d/%-5d %4d/%-4d\n",
			r.Name, r.BaseCycles, r.OptCycles, 100*r.Speedup,
			r.BaseFolded, r.OptFolded, r.BaseFootprint, r.OptFootprint)
	}
	return nil
}

func expFig7(ctx context.Context, ins []*bench.Instance) error {
	rows, err := bench.Fig7(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Println("Figure 7: cumulative distribution of dynamic executions of")
	fmt.Println("non-local constant instructions by (HPG) basic block, CA=1")
	fmt.Printf("%-10s %7s | blocks needed for coverage of\n", "Program", "blocks")
	fmt.Printf("%-10s %7s | %6s %6s %6s %6s\n", "", "w/const", "50%", "90%", "99%", "100%")
	for _, r := range rows {
		need := func(f float64) int {
			for _, p := range r.Points {
				if p.Fraction >= f {
					return p.Blocks
				}
			}
			return 0
		}
		fmt.Printf("%-10s %7d | %6d %6d %6d %6d\n",
			r.Name, len(r.Points), need(0.5), need(0.9), need(0.99), need(1.0))
	}
	return nil
}

func expFig9(ctx context.Context, ins []*bench.Instance) error {
	pts, err := bench.Fig9(ctx, ins, bench.CoverageLevels, 0.95)
	if err != nil {
		return err
	}
	fmt.Println("Figure 9: increase in dynamic instructions with constant results")
	fmt.Println("vs. path coverage CA (baseline: Wegman-Zadek at CA=0); the")
	fmt.Println("'ratio' column is qualified/baseline non-local constants")
	fmt.Printf("%-10s", "Program")
	for _, ca := range bench.CoverageLevels {
		fmt.Printf(" %8.4f", ca)
	}
	fmt.Printf(" %10s\n", "ratio@1.0")
	byName := map[string][]bench.Fig9Point{}
	var order []string
	for _, p := range pts {
		if _, ok := byName[p.Name]; !ok {
			order = append(order, p.Name)
		}
		byName[p.Name] = append(byName[p.Name], p)
	}
	for _, name := range order {
		fmt.Printf("%-10s", name)
		var ratio float64
		for _, p := range byName[name] {
			fmt.Printf(" %+7.2f%%", 100*p.ConstIncrease)
			if p.CA == 1.0 {
				ratio = p.NonlocalRatio
			}
		}
		fmt.Printf(" %9.1fx\n", ratio)
	}
	return nil
}

func expFig10(ctx context.Context, ins []*bench.Instance) error {
	rows, err := bench.Fig10(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Println("Figure 10: fraction of dynamic instructions per Figure 13")
	fmt.Println("category (qualified analysis at CA=1)")
	fmt.Printf("%-10s", "Program")
	for c := classify.Category(0); c < classify.NumCategories; c++ {
		fmt.Printf(" %10s", c)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s", r.Name)
		for c := classify.Category(0); c < classify.NumCategories; c++ {
			fmt.Printf(" %9.2f%%", 100*r.Report.Frac(c))
		}
		fmt.Println()
	}
	return nil
}

func expFig11(ctx context.Context, ins []*bench.Instance) error {
	pts, err := bench.Fig11(ctx, ins, bench.CoverageLevels, 0.95)
	if err != nil {
		return err
	}
	fmt.Println("Figure 11: increase in CFG nodes before (HPG) and after (rHPG)")
	fmt.Println("reduction vs. path coverage CA")
	fmt.Printf("%-10s %8s", "Program", "graph")
	for _, ca := range bench.CoverageLevels {
		fmt.Printf(" %8.4f", ca)
	}
	fmt.Println()
	byName := map[string][]bench.Fig11Point{}
	var order []string
	for _, p := range pts {
		if _, ok := byName[p.Name]; !ok {
			order = append(order, p.Name)
		}
		byName[p.Name] = append(byName[p.Name], p)
	}
	for _, name := range order {
		fmt.Printf("%-10s %8s", name, "HPG")
		for _, p := range byName[name] {
			fmt.Printf(" %+7.1f%%", 100*p.HPGGrowth)
		}
		fmt.Println()
		fmt.Printf("%-10s %8s", "", "rHPG")
		for _, p := range byName[name] {
			fmt.Printf(" %+7.1f%%", 100*p.RedGrowth)
		}
		fmt.Println()
	}
	return nil
}

func expFig12(ctx context.Context, ins []*bench.Instance) error {
	pts, err := bench.Fig12(ctx, ins, bench.CoverageLevels, 0.95)
	if err != nil {
		return err
	}
	fmt.Println("Figure 12: qualified analysis cost vs. path coverage CA")
	fmt.Println("(relative to CA=0; 'iters' rows use deterministic solver")
	fmt.Println("iteration counts, 'time' rows wall clock)")
	fmt.Printf("%-10s %6s", "Program", "")
	for _, ca := range bench.CoverageLevels {
		fmt.Printf(" %8.4f", ca)
	}
	fmt.Println()
	byName := map[string][]bench.Fig12Point{}
	var order []string
	for _, p := range pts {
		if _, ok := byName[p.Name]; !ok {
			order = append(order, p.Name)
		}
		byName[p.Name] = append(byName[p.Name], p)
	}
	for _, name := range order {
		fmt.Printf("%-10s %6s", name, "iters")
		for _, p := range byName[name] {
			fmt.Printf(" %7.2fx", p.Iterations)
		}
		fmt.Println()
		fmt.Printf("%-10s %6s", "", "time")
		for _, p := range byName[name] {
			fmt.Printf(" %7.2fx", p.TimeRatio)
		}
		fmt.Println()
	}
	return nil
}

// expKernels compares the packed arena kernels against the boxed
// reference solver on every benchmark's analysis-tier graphs, with the
// oracle's differential gate asserting pointwise-identical solutions
// for all four clients before any timing is believed.
func expKernels(ctx context.Context, ins []*bench.Instance) error {
	rows, err := bench.Kernels(ctx, ins)
	if err != nil {
		return err
	}
	fmt.Println("Kernel backends: boxed reference vs packed arena kernels")
	fmt.Println("(constant propagation over each benchmark's analyze-stage graphs;")
	fmt.Println(" 'checked' vertices passed the 4-client pointwise differential gate;")
	fmt.Println(" speedup = boxed/packed)")
	fmt.Printf("%-10s %7s %12s %12s %8s %9s\n",
		"Program", "nodes", "boxed", "packed", "speedup", "checked")
	for _, r := range rows {
		fmt.Printf("%-10s %7d %12s %12s %7.2fx %9d\n",
			r.Name, r.Nodes, r.Boxed.Round(10*time.Microsecond), r.Packed.Round(10*time.Microsecond),
			r.Speedup, r.Checked)
	}
	return nil
}
