package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/opt"
	"pathflow/internal/serve"
)

// golden mirrors one entry of internal/bench/testdata/metrics.golden.json.
type golden struct {
	TrainPaths    int   `json:"train_paths"`
	HotAt97       int   `json:"hot_at_97"`
	OrigNodes     int   `json:"orig_nodes"`
	HPGNodes      int   `json:"hpg_nodes"`
	RedNodes      int   `json:"red_nodes"`
	TotalDyn      int64 `json:"total_dyn"`
	ConstDyn0     int64 `json:"const_dyn_0"`
	ConstDyn97    int64 `json:"const_dyn_97"`
	NonlocalDyn0  int64 `json:"nonlocal_dyn_0"`
	NonlocalDyn97 int64 `json:"nonlocal_dyn_97"`
}

// checkGolden recomputes the golden metrics of every named program from
// the warm-up pass's results at CA = 0 and CA = 0.97 and compares them
// with the checked-in golden file.
func checkGolden(b *Batch, t *tally) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.fail("golden file: " + err.Error())
		return
	}
	var want map[string]golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.fail("golden file: " + err.Error())
		return
	}
	for _, in := range b.ins {
		if in.Named == nil {
			continue
		}
		base, res := b.first[key(in, 0)], b.first[key(in, 4)]
		if base == nil || res == nil {
			t.fail(in.Name + ": no warm-up result to check")
			continue
		}
		ref, _, err := bl.ProfileProgram(in.Prog, in.refOptions())
		if err != nil {
			t.fail(in.Name + ": ref run: " + err.Error())
			continue
		}
		inst := &bench.Instance{B: in.Named, Prog: in.Prog, Train: in.Train, Ref: ref}
		bm, err1 := inst.Evaluate(base)
		m, err2 := inst.Evaluate(res)
		if err1 != nil || err2 != nil {
			t.fail(fmt.Sprintf("%s: evaluate: %v %v", in.Name, err1, err2))
			continue
		}
		hot := 0
		for _, fr := range res.Funcs {
			hot += len(fr.Hot)
		}
		got := golden{
			TrainPaths: in.Train.TotalPaths(), HotAt97: hot,
			OrigNodes: m.OrigNodes, HPGNodes: m.HPGNodes, RedNodes: m.RedNodes, TotalDyn: m.TotalDyn,
			ConstDyn0: bm.ConstDyn, ConstDyn97: m.ConstDyn,
			NonlocalDyn0: bm.NonlocalConstDyn, NonlocalDyn97: m.NonlocalConstDyn,
		}
		if !reflect.DeepEqual(got, want[in.Name]) {
			t.wrong(fmt.Sprintf("%s: golden metrics differ: got %+v want %+v", in.Name, got, want[in.Name]))
		}
	}
}

// checkOracle runs the precision oracle (engine.CheckFuncResult) on every
// warm-up result of the feasible workload: masked facts must be at
// least as precise as unmasked ones and no edge the training run took
// may be marked infeasible. The pass is timed as the check layer.
func checkOracle(b *Batch, t *tally, tr *Tracer) {
	type job struct {
		what string
		fr   *engine.FuncResult
		err  error
	}
	var jobs []*job
	for _, in := range b.ins {
		res := b.first[key(in, 0)]
		if res == nil {
			t.fail(in.Name + ": no warm-up result to check")
			continue
		}
		for _, name := range in.Prog.Order {
			jobs = append(jobs, &job{what: in.Name + "/" + name, fr: res.Funcs[name]})
		}
	}
	// One goroutine per CPU, like the engine's worker pool.
	var wg sync.WaitGroup
	for w := 0; w < b.env.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += b.env.workers {
				t0 := time.Now()
				jobs[i].err = engine.OracleErr(engine.CheckFuncResult(jobs[i].fr))
				tr.Add("check.oracle", -1, t0, time.Now())
			}
		}(w)
	}
	wg.Wait()
	for _, j := range jobs {
		if j.err != nil {
			t.wrong(j.what + ": oracle: " + j.err.Error())
		}
	}
}

// checkOptimized interprets each input's optimized program next to the
// original on the evaluation input: outputs and return values must be
// the same. The reference is the interpreter, independent of the
// analysis.
func checkOptimized(b *Batch, t *tally) {
	for _, in := range b.ins {
		res := b.first[key(in, b.defaultPoint())]
		if res == nil {
			t.fail(in.Name + ": no warm-up result to check")
			continue
		}
		if msg := sameBehaviour(in, res); msg != "" {
			t.wrong(in.Name + ": " + msg)
		}
	}
}

func sameBehaviour(in *Input, res *engine.ProgramResult) string {
	optProg, _ := res.OptimizedProgram(opt.PassesAll)
	o1 := in.refOptions()
	o1.CollectOutput = true
	want, err := interp.Run(in.Prog, o1)
	if err != nil {
		return "original run: " + err.Error()
	}
	o2 := in.refOptions()
	o2.CollectOutput = true
	got, err := interp.Run(optProg, o2)
	if err != nil {
		return "optimized run: " + err.Error()
	}
	if got.Ret != want.Ret || !reflect.DeepEqual(got.Output, want.Output) {
		return fmt.Sprintf("optimized program behaves differently (ret %d vs %d, %d vs %d outputs)",
			got.Ret, want.Ret, len(got.Output), len(want.Output))
	}
	return ""
}

// project renders an in-process result in the daemon's wire form
// (serve.AnalyzeResult), so a daemon reply can be compared with it
// byte for byte.
func project(name string, o engine.Options, res *engine.ProgramResult) *serve.AnalyzeResult {
	out := &serve.AnalyzeResult{Program: name, Options: serve.OptionsSpec{CA: o.CA, CR: o.CR, Verify: o.Verify, Feasible: o.Feasible}}
	if o.Clients != 0 {
		out.Options.Clients = o.Clients.String()
	}
	if o.Kernel != dataflow.KernelPacked {
		out.Options.Kernel = o.Kernel.String()
	}
	for _, fname := range res.Prog.Order {
		fr := res.Funcs[fname]
		fs := serve.FuncSummary{
			Name: fname, Nodes: fr.Fn.G.NumNodes(), HPGNodes: fr.Fn.G.NumNodes(),
			ReducedNodes: fr.Fn.G.NumNodes(), HotPaths: len(fr.Hot), Qualified: fr.Qualified(),
		}
		if fr.Qualified() {
			fs.HPGNodes = fr.HPG.G.NumNodes()
			fs.ReducedNodes = fr.Red.G.NumNodes()
			fs.AutomatonStates = fr.Auto.NumStates()
			fs.Consts = consts(fr)
		}
		out.Totals.Consts += len(fs.Consts)
		out.Functions = append(out.Functions, fs)
	}
	st := res.Stats()
	out.Totals.OrigNodes, out.Totals.HPGNodes, out.Totals.ReducedNodes = st.OrigNodes, st.HPGNodes, st.RedNodes
	out.Totals.HotPaths, out.Totals.TrainPaths = st.HotPaths, st.TrainPaths
	return out
}

// consts lists the non-local constants on the reduced graph.
func consts(fr *engine.FuncResult) []serve.ConstFact {
	g, sol, nv := fr.Red.G, fr.RedSol, fr.Fn.NumVars()
	var out []serve.ConstFact
	for _, nd := range g.Nodes {
		if !sol.Reached(nd.ID) {
			continue
		}
		flags := constprop.ConstFlags(g, nd.ID, sol.EnvAt(nd.ID), nv, true)
		vals := sol.InstrValues(nd.ID)
		for i := range nd.Instrs {
			if flags[i] {
				out = append(out, serve.ConstFact{
					Node: int(nd.ID), Block: nd.Name, Var: fr.Fn.VarName(nd.Instrs[i].Dst), Value: vals[i].K,
				})
			}
		}
	}
	return out
}
