package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/watch"
)

// cmdWatch implements `pathflow watch -src file`: continuous
// re-analysis of a source file under edit. One engine (and artifact
// cache) lives across rounds; every detected change is diffed against
// the previous round and each function re-analyzes under its
// classified delta, so the printed report shows exactly which stages
// an edit replayed versus recomputed — the interactive form of
// `analyze -baseline`.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	ca := fs.Float64("ca", 0.97, "hot-path coverage CA")
	cr := fs.Float64("cr", 0.95, "reduction benefit cutoff CR")
	workers := fs.Int("workers", 0, "parallel function analyses (0 = NumCPU)")
	clientsFlag := fs.String("clients", "none", "extra data-flow clients to run: none, liveness, availexpr, all")
	kernelFlag := fs.String("kernel", "packed", "data-flow solver backend: packed (the production kernels); boxed is the test reference, not a production choice")
	feasible := fs.Bool("feasible", false, "run the feasible-path qualification pass")
	profFile := fs.String("profile", "", "watch this saved profile (bl JSON) too and re-analyze when it changes")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll period for file changes")
	rounds := fs.Int("rounds", 0, "exit after N change-triggered re-analyses (0 = watch until interrupted)")
	cflags := addCacheFlags(fs, "")
	tg, err := parseTarget(fs, args)
	if err != nil {
		return err
	}
	srcPath := fs.Lookup("src").Value.String()
	if srcPath == "" {
		return fmt.Errorf("watch requires -src <file> (a file to watch for edits)")
	}
	clients, err := engine.ParseClients(*clientsFlag)
	if err != nil {
		return err
	}
	kern, err := engine.ParseKernel(*kernelFlag)
	if err != nil {
		return err
	}
	o := engine.Options{CA: *ca, CR: *cr, Clients: clients, Kernel: kern, Feasible: *feasible}
	if err := o.Validate(); err != nil {
		return err
	}
	ecfg, err := cflags.engineConfig(*workers, true)
	if err != nil {
		return err
	}
	eng, err := engine.Open(ecfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("watching %s @ CA=%.2f CR=%.2f (poll %s)\n", srcPath, *ca, *cr, *interval)
	fmt.Printf("%-5s %-12s %-8s %-6s %9s %10s  %s\n",
		"round", "function", "delta", "requal", "replayed", "recomputed", "replayed stages")
	r := watch.NewRunner(eng, watch.Config{
		SrcPath:     srcPath,
		ProfilePath: *profFile,
		Train: func(prog *cfg.Program) (*bl.ProgramProfile, error) {
			pp, _, err := bl.ProfileProgram(prog, tg.fresh())
			return pp, err
		},
		Interval: *interval,
		Rounds:   *rounds,
		Options:  o,
		OnRound: func(round int, changed []string) {
			fmt.Printf("round %d: changed %s\n", round, strings.Join(changed, ", "))
		},
		OnEvent: func(ev watch.Event) {
			requal := "-"
			if ev.Requalify {
				requal = "yes"
			}
			fmt.Printf("%-5d %-12s %-8s %-6s %9d %10d  %s\n",
				ev.Round, ev.Func, ev.Class, requal, ev.Replayed, ev.Recomputed,
				strings.Join(ev.ReplayedStages, ","))
		},
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "pathflow: watch: %v (still watching)\n", err)
		},
	})
	return r.Run(ctx)
}
