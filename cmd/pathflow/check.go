package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"pathflow/internal/engine"
)

// cmdCheck runs the precision differential oracle over a target: it
// analyzes the program with every client enabled, then statically
// verifies — per function, per derived graph tier, per client — that
// the hot-path solution projected through the trace correspondence is
// pointwise at least as precise as the CFG solution. A violation makes
// the command fail, so CI can use `pathflow check` as a soundness gate.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	ca := fs.Float64("ca", 0.97, "hot-path coverage CA")
	cr := fs.Float64("cr", 0.95, "reduction benefit cutoff CR")
	workers := fs.Int("workers", 0, "parallel function analyses (0 = NumCPU)")
	kernelFlag := fs.String("kernel", "packed", "data-flow solver backend: packed (arena kernels) or boxed (reference)")
	quiet := fs.Bool("q", false, "print only violations and the final verdict")
	feasible := fs.Bool("feasible", false, "also run feasible-path qualification and its extended soundness gates (masked ⊒ unmasked per tier, plus the executed-edge trace gate)")
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
	kern, err := engine.ParseKernel(*kernelFlag)
	if err != nil {
		return err
	}
	o := engine.Options{CA: *ca, CR: *cr, Clients: engine.ClientsAll, Kernel: kern, Feasible: *feasible}
	if err := o.Validate(); err != nil {
		return err
	}
	res, _, err := eng.ProfileAndAnalyze(ctx, tg.prog, tg.opts, o)
	if err != nil {
		return err
	}

	fmt.Printf("%s @ CA=%.2f CR=%.2f — precision differential oracle\n", tg.name, *ca, *cr)
	if !*quiet {
		fmt.Println()
	}
	var firstErr error
	checked, violations := 0, 0
	for _, name := range tg.prog.Order {
		fr := res.Funcs[name]
		reports := engine.CheckFuncResult(fr)
		if len(reports) == 0 {
			if !*quiet {
				fmt.Printf("func %-12s not qualified; nothing to compare\n", name)
			}
			continue
		}
		for _, r := range reports {
			checked += r.Checked
			violations += len(r.Violations)
			if !r.OK() || !*quiet {
				fmt.Printf("func %-12s %s\n", name, r.String())
			}
			if err := r.Err(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	if !*quiet {
		fmt.Println()
	}
	fmt.Printf("checked %d vertex facts, %d violation(s)\n", checked, violations)
	if firstErr != nil {
		return firstErr
	}
	fmt.Println("ok: every derived solution is pointwise at least as precise as the CFG's")
	return nil
}
