package main

import (
	"context"
	"flag"
	"fmt"

	"pathflow/internal/engine"
	"pathflow/internal/machine"
	"pathflow/internal/opt"
)

// cmdOpt runs the end-to-end optimization: profile on the training
// input, qualify, fold constants, and compare the modeled run time of
// the Wegman-Zadek baseline against the path-qualified program (a
// single-program Table 2, with cost components broken out).
func cmdOpt(args []string) error {
	fs := flag.NewFlagSet("opt", flag.ContinueOnError)
	ca := fs.Float64("ca", 0.97, "hot-path coverage CA")
	cr := fs.Float64("cr", 0.95, "reduction benefit cutoff CR")
	tg, err := parseTarget(fs, args)
	if err != nil {
		return err
	}
	res, _, err := engine.Serial().ProfileAndAnalyze(context.Background(), tg.prog, tg.opts, engine.Options{CA: *ca, CR: *cr})
	if err != nil {
		return err
	}
	baseProg, baseFolds := engine.BaselineProgram(tg.prog, opt.PassesAll)
	optProg, optFolds := res.OptimizedProgram(opt.PassesAll)

	cm := machine.DefaultCostModel()
	cc := machine.DefaultICache()
	// Each simulation gets a fresh copy of the input stream.
	evalOpts := tg.fresh()
	evalOpts.CollectOutput = true
	baseSim, baseRes, err := machine.Simulate(baseProg, evalOpts, cm, cc)
	if err != nil {
		return err
	}
	evalOpts2 := tg.fresh()
	evalOpts2.CollectOutput = true
	optSim, optRes, err := machine.Simulate(optProg, evalOpts2, cm, cc)
	if err != nil {
		return err
	}
	if len(baseRes.Output) != len(optRes.Output) {
		return fmt.Errorf("optimized output diverged: %d vs %d values", len(baseRes.Output), len(optRes.Output))
	}
	for i := range baseRes.Output {
		if baseRes.Output[i] != optRes.Output[i] {
			return fmt.Errorf("optimized output diverged at %d: %d vs %d", i, baseRes.Output[i], optRes.Output[i])
		}
	}
	fmt.Printf("%s @ CA=%.2f CR=%.2f (output verified identical: %v)\n\n", tg.name, *ca, *cr, optRes.Output)
	fmt.Printf("%-22s %15s %15s\n", "", "Wegman-Zadek", "path-qualified")
	row := func(label string, a, b int64) { fmt.Printf("%-22s %15d %15d\n", label, a, b) }
	row("const folds", int64(baseFolds.Const), int64(optFolds.Const))
	row("interval folds", int64(baseFolds.Interval), int64(optFolds.Interval))
	row("dead deleted", int64(baseFolds.Dead), int64(optFolds.Dead))
	row("rewritten total", int64(baseFolds.Total()), int64(optFolds.Total()))
	row("code size (slots)", baseSim.Footprint, optSim.Footprint)
	row("compute cycles", baseSim.ComputeCycles, optSim.ComputeCycles)
	row("i-cache misses", baseSim.Misses, optSim.Misses)
	row("broken fallthroughs", baseSim.TakenTransfers, optSim.TakenTransfers)
	row("total cycles", baseSim.Cycles, optSim.Cycles)
	fmt.Printf("\nspeedup: %+.2f%%\n",
		100*float64(baseSim.Cycles-optSim.Cycles)/float64(baseSim.Cycles))
	return nil
}
