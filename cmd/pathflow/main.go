// Command pathflow is the driver for the path-profile-guided data-flow
// analysis library. It runs and profiles programs (the built-in SPEC95
// analog suite or a source file), runs the qualification pipeline, and
// regenerates every table and figure of Ammons & Larus (PLDI 1998).
//
// Usage:
//
//	pathflow list
//	pathflow source  <benchmark>
//	pathflow run     <benchmark>|-src file [-ref] [-args a,b,...] [-seed n]
//	pathflow profile <benchmark>|-src file [-ref] [-top n]
//	pathflow analyze <benchmark>|-src file [-ca 0.97] [-cr 0.95] [-clients all] [-verify] [-feasible] [-baseline prev.pf]
//	pathflow opt     <benchmark>|-src file [-ref]
//	pathflow check   <benchmark>|-src file [-ca 0.97] [-cr 0.95] [-feasible]
//	pathflow exp     table1|table2|fig7|fig9|fig10|fig11|fig12|ablation|clients|feasible|all
//	pathflow watch   -src file [-profile prof.pf] [-interval d] [-rounds n]
//	pathflow serve   [-addr host:port] [-maxjobs n] [-workers n] [-timeout d]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"pathflow/internal/availexpr"
	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/liveness"
	"pathflow/internal/profile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "source":
		err = cmdSource(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "opt":
		err = cmdOpt(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pathflow: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathflow:", err)
		// Typed errors carry their own remediation hints; the serving
		// layer embeds the very same text in its JSON error bodies.
		var h interface{ Hint() string }
		if errors.As(err, &h) {
			fmt.Fprintln(os.Stderr, "pathflow:", h.Hint())
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "pathflow: interrupted")
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `pathflow — path-profile-guided data-flow analysis (Ammons & Larus, PLDI 1998)

commands:
  list                           list the built-in benchmarks
  source  <bench>                print a benchmark's source
  run     <bench>|-src f [...]   execute a program and print its output
  profile <bench>|-src f [...]   collect and print a Ball-Larus path profile
  analyze <bench>|-src f [...]   run the full qualification pipeline
                                 (-baseline prev: classify the edit vs a
                                 previous source version and report which
                                 stages replayed from cache)
  opt     <bench>|-src f [...]   optimize and compare modeled run time
  check   <bench>|-src f [...]   run the precision differential oracle
                                 (every client, every graph tier)
  exp     <table1|table2|fig7|fig9|fig10|fig11|fig12|ablation|clients|feasible|streaming|all>
                                 regenerate the paper's tables and figures
  watch   -src f [...]           watch a source file (and optional saved
                                 profile) and re-analyze incrementally on
                                 every change, reporting per function which
                                 stages replayed vs recomputed
  serve   [-addr host:port] [...] run the long-running analysis service
                                 (shared artifact cache, job manager,
                                 live per-stage metrics; see README)
`)
}

// target resolves a program plus run options from command arguments.
type target struct {
	name string
	prog *cfg.Program
	opts interp.Options
	// fresh returns a new copy of opts with a rewound input stream, for
	// commands that need several independent runs.
	fresh func() interp.Options
}

func parseTarget(fs *flag.FlagSet, args []string) (*target, error) {
	srcFile := fs.String("src", "", "analyze this source file instead of a benchmark")
	ref := fs.Bool("ref", false, "use the benchmark's ref input (default: train)")
	argList := fs.String("args", "", "comma-separated arg(k) values (with -src)")
	seed := fs.Uint64("seed", 1, "input stream seed (with -src)")
	inputLen := fs.Int("inputlen", 4096, "input stream length (with -src)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *srcFile != "" {
		data, err := os.ReadFile(*srcFile)
		if err != nil {
			return nil, err
		}
		prog, err := lang.Compile(string(data))
		if err != nil {
			return nil, err
		}
		var vals []ir.Value
		if *argList != "" {
			for _, s := range strings.Split(*argList, ",") {
				v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad -args entry %q: %w", s, err)
				}
				vals = append(vals, v)
			}
		}
		fresh := func() interp.Options {
			return interp.Options{
				Args:  vals,
				Input: &interp.SliceInput{Values: bench.InputValues(*seed, *inputLen)},
			}
		}
		return &target{name: *srcFile, prog: prog, opts: fresh(), fresh: fresh}, nil
	}
	rest := fs.Args()
	if len(rest) != 1 {
		return nil, fmt.Errorf("expected one benchmark name or -src file")
	}
	b, err := bench.Get(rest[0])
	if err != nil {
		return nil, err
	}
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	fresh := func() interp.Options {
		if *ref {
			return b.RefOptions()
		}
		return b.TrainOptions()
	}
	return &target{name: b.Name, prog: prog, opts: fresh(), fresh: fresh}, nil
}

func cmdList() error {
	for _, b := range bench.All() {
		prog, err := b.Program()
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %4d nodes, %2d functions, %5d static instructions\n",
			b.Name, prog.NumNodes(), len(prog.Order), prog.NumInstrs())
	}
	return nil
}

func cmdSource(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: pathflow source <benchmark>")
	}
	b, err := bench.Get(args[0])
	if err != nil {
		return err
	}
	fmt.Print(b.Source)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	tg, err := parseTarget(fs, args)
	if err != nil {
		return err
	}
	tg.opts.CollectOutput = true
	res, err := interp.Run(tg.prog, tg.opts)
	if err != nil {
		return err
	}
	for _, v := range res.Output {
		fmt.Println(v)
	}
	fmt.Printf("# %s: %d dynamic instructions, %d blocks, %d calls, return %d\n",
		tg.name, res.DynInstrs, res.Steps, res.Calls, res.Ret)
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	top := fs.Int("top", 10, "show the hottest N paths per function")
	outFile := fs.String("o", "", "also save the profile as JSON to this file")
	tg, err := parseTarget(fs, args)
	if err != nil {
		return err
	}
	pp, res, err := bl.ProfileProgram(tg.prog, tg.opts)
	if err != nil {
		return err
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		if err := pp.Save(f, tg.prog); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("# profile saved to %s\n", *outFile)
	}
	fmt.Printf("%s: %d dynamic instructions, %d distinct paths\n\n",
		tg.name, res.DynInstrs, pp.TotalPaths())
	for _, name := range tg.prog.Order {
		pr := pp.Funcs[name]
		g := tg.prog.Funcs[name].G
		if pr.NumPaths() == 0 {
			fmt.Printf("func %s: never executed\n", name)
			continue
		}
		fmt.Printf("func %s: %d paths, %d traversals, %d dynamic instructions\n",
			name, pr.NumPaths(), pr.TotalCount(), pr.DynInstrs(g))
		for i, e := range pr.SortedEntries(g) {
			if i >= *top {
				fmt.Printf("  ... %d more\n", pr.NumPaths()-*top)
				break
			}
			fmt.Printf("  %8d × %3d instrs  %s\n", e.Count, e.Path.NumInstrs(g), e.Path.String(g))
		}
	}
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	ca := fs.Float64("ca", 0.97, "hot-path coverage CA")
	cr := fs.Float64("cr", 0.95, "reduction benefit cutoff CR")
	workers := fs.Int("workers", 0, "parallel function analyses (0 = NumCPU)")
	showConsts := fs.Bool("consts", false, "list discovered non-local constants")
	profFile := fs.String("profile", "", "use a saved profile instead of running the training input")
	clientsFlag := fs.String("clients", "none", "extra data-flow clients to run: none, liveness, availexpr, all")
	kernelFlag := fs.String("kernel", "packed", "data-flow solver backend: packed (the production kernels); boxed is the test reference, not a production choice")
	verify := fs.Bool("verify", false, "run the precision differential oracle as a final stage")
	feasible := fs.Bool("feasible", false, "run the feasible-path qualification pass: detect branch correlations, prune infeasible edges, and analyze every client on the pruned graphs")
	baseFile := fs.String("baseline", "", "previous source version: warm the cache with its analysis, classify the edit per function, and report which stages replayed vs recomputed")
	cflags := addCacheFlags(fs, "")
	tg, err := parseTarget(fs, args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ecfg, err := cflags.engineConfig(*workers, true)
	if err != nil {
		return err
	}
	eng, err := engine.Open(ecfg)
	if err != nil {
		return err
	}
	clients, err := engine.ParseClients(*clientsFlag)
	if err != nil {
		return err
	}
	kern, err := engine.ParseKernel(*kernelFlag)
	if err != nil {
		return err
	}
	o := engine.Options{CA: *ca, CR: *cr, Clients: clients, Verify: *verify, Kernel: kern, Feasible: *feasible}
	if err := o.Validate(); err != nil {
		return err
	}
	var res *engine.ProgramResult
	var deltas []*engine.Delta
	switch {
	case *baseFile != "":
		res, deltas, err = analyzeIncremental(ctx, eng, tg, *baseFile, *profFile, o)
		if err != nil {
			return err
		}
	case *profFile != "":
		train, err := loadProfile(*profFile, tg.prog)
		if err != nil {
			return err
		}
		res, err = eng.AnalyzeProgram(ctx, tg.prog, train, o)
		if err != nil {
			return err
		}
	default:
		res, _, err = eng.ProfileAndAnalyze(ctx, tg.prog, tg.opts, o)
		if err != nil {
			return err
		}
	}
	fmt.Printf("%s @ CA=%.2f CR=%.2f\n\n", tg.name, *ca, *cr)
	fmt.Printf("%-12s %6s %6s %6s %6s %8s %9s\n",
		"function", "nodes", "hpg", "rhpg", "hot", "states", "time")
	for _, name := range tg.prog.Order {
		fr := res.Funcs[name]
		hpg, rhpg, states := fr.Fn.G.NumNodes(), fr.Fn.G.NumNodes(), 0
		if fr.Qualified() {
			hpg = fr.HPG.G.NumNodes()
			rhpg = fr.Red.G.NumNodes()
			states = fr.Auto.NumStates()
		}
		fmt.Printf("%-12s %6d %6d %6d %6d %8d %9s\n",
			name, fr.Fn.G.NumNodes(), hpg, rhpg, len(fr.Hot), states,
			(fr.Metrics.Duration(engine.StageBaseline) + fr.Metrics.Qualification()).Round(10*time.Microsecond))
		if *showConsts {
			for _, c := range fr.Consts() {
				fmt.Printf("    %s: %s = %d\n", c.Node.Name, renderInstr(fr, c.Instr), c.Value)
			}
		}
		if clients != 0 {
			printClients(fr)
		}
		if *verify {
			for _, r := range fr.Oracle {
				fmt.Printf("    %s\n", r.String())
			}
		}
	}
	st := res.Stats()
	fmt.Printf("\ntotal: %d nodes -> %d HPG (%+.1f%%) -> %d reduced (%+.1f%%); %d hot paths\n",
		st.OrigNodes, st.HPGNodes,
		100*float64(st.HPGNodes-st.OrigNodes)/float64(st.OrigNodes),
		st.RedNodes,
		100*float64(st.RedNodes-st.OrigNodes)/float64(st.OrigNodes),
		st.HotPaths)
	if deltas != nil {
		printIncremental(*baseFile, deltas, res)
	}
	return nil
}

// printClients renders the optional clients' dynamically-weighted
// metrics per graph tier: dead stores found by liveness and redundant
// recomputations found by available expressions. Rising numbers from
// cfg to hpg/rhpg are the qualified analyses' precision wins.
func printClients(fr *engine.FuncResult) {
	type tier struct {
		name  string
		g     *cfg.Graph
		freq  []int64
		live  *liveness.Result
		avail *availexpr.Result
	}
	var tiers []tier
	if fr.Train != nil && (fr.LiveCFG != nil || fr.AvailCFG != nil) {
		tiers = append(tiers, tier{"cfg", fr.Fn.G,
			profile.NodeFrequencies(fr.Train, fr.Fn.G), fr.LiveCFG, fr.AvailCFG})
	}
	if fr.Qualified() && fr.HPGProf != nil {
		tiers = append(tiers, tier{"hpg", fr.HPG.G,
			profile.NodeFrequencies(fr.HPGProf, fr.HPG.G), fr.LiveHPG, fr.AvailHPG})
		if ep, err := fr.TranslateEval(fr.Train); err == nil {
			tiers = append(tiers, tier{"rhpg", fr.Red.G,
				profile.NodeFrequencies(ep, fr.Red.G), fr.LiveRed, fr.AvailRed})
		}
	}
	for _, t := range tiers {
		line := fmt.Sprintf("    clients %-5s", t.name)
		if t.live != nil {
			s, d := liveness.DeadStoreCount(t.g, t.live, t.freq)
			line += fmt.Sprintf("  dead stores %3d (dyn %8d)", s, d)
		}
		if t.avail != nil {
			s, d := availexpr.RedundantCount(t.g, t.avail, t.freq)
			line += fmt.Sprintf("  redundant exprs %3d (dyn %8d)", s, d)
		}
		fmt.Println(line)
	}
}

func renderInstr(fr *engine.FuncResult, in *ir.Instr) string {
	s := in.String()
	if i := strings.Index(s, " ="); i > 0 {
		return fr.Fn.VarName(in.Dst) + s[i:]
	}
	return s
}
