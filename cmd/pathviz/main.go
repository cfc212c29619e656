// Command pathviz renders pipeline artifacts as Graphviz DOT: the
// original CFG with its recording edges, the qualification automaton's
// retrieval tree, the hot path graph, and the reduced hot path graph.
//
// Usage:
//
//	pathviz [-bench name | -src file] [-fn main] [-stage cfg|trie|hpg|rhpg]
//	        [-ca 0.97] [-cr 0.95] [-instrs]
//
// The DOT text is written to stdout; pipe it into `dot -Tsvg`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
)

func main() {
	benchName := flag.String("bench", "", "benchmark to render")
	srcFile := flag.String("src", "", "source file to render (instead of -bench)")
	fnName := flag.String("fn", "main", "function to render")
	stage := flag.String("stage", "cfg", "artifact: cfg, trie, hpg, or rhpg")
	ca := flag.Float64("ca", 0.97, "hot-path coverage CA")
	cr := flag.Float64("cr", 0.95, "reduction benefit cutoff CR")
	instrs := flag.Bool("instrs", false, "include instructions in node labels")
	flag.Parse()

	if err := run(*benchName, *srcFile, *fnName, *stage, *ca, *cr, *instrs); err != nil {
		fmt.Fprintln(os.Stderr, "pathviz:", err)
		os.Exit(1)
	}
}

func run(benchName, srcFile, fnName, stage string, ca, cr float64, instrs bool) error {
	var prog *cfg.Program
	var opts interp.Options
	switch {
	case benchName != "":
		b, err := bench.Get(benchName)
		if err != nil {
			return err
		}
		prog, err = b.Program()
		if err != nil {
			return err
		}
		opts = b.TrainOptions()
	case srcFile != "":
		data, err := os.ReadFile(srcFile)
		if err != nil {
			return err
		}
		prog, err = lang.Compile(string(data))
		if err != nil {
			return err
		}
		opts = interp.Options{Input: &interp.SliceInput{Values: bench.InputValues(1, 4096)}}
	default:
		return fmt.Errorf("one of -bench or -src is required")
	}
	fn, ok := prog.Funcs[fnName]
	if !ok {
		return fmt.Errorf("no function %q (have %v)", fnName, prog.Order)
	}

	if stage == "cfg" {
		fmt.Print(fn.G.Dot(cfg.DotOptions{
			Instrs:    instrs,
			VarNames:  fn.VarNames,
			Recording: bl.RecordingEdges(fn.G),
		}))
		return nil
	}

	res, _, err := engine.Serial().ProfileAndAnalyze(context.Background(), prog, opts, engine.Options{CA: ca, CR: cr})
	if err != nil {
		return err
	}
	fr := res.Funcs[fnName]
	if !fr.Qualified() {
		return fmt.Errorf("function %q was not qualified (no hot paths at CA=%v)", fnName, ca)
	}
	switch stage {
	case "trie":
		fmt.Print(fr.Auto.Dot(fn.G))
	case "hpg":
		fmt.Print(fr.HPG.G.Dot(cfg.DotOptions{
			Instrs:    instrs,
			VarNames:  fn.VarNames,
			Recording: fr.HPG.Recording,
		}))
	case "rhpg":
		fmt.Print(fr.Red.G.Dot(cfg.DotOptions{
			Instrs:    instrs,
			VarNames:  fn.VarNames,
			Recording: fr.Red.Recording,
		}))
	default:
		return fmt.Errorf("unknown stage %q (want cfg, trie, hpg, or rhpg)", stage)
	}
	return nil
}
