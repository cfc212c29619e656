package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"pathflow/internal/bench"
	"pathflow/internal/engine"
)

// sweepPoints is BenchmarkEngineSweep's 23-point grid: every CA level at
// CR = 0.95 (Figures 9, 11 and 12), a CR sweep at CA = 0.97 (the
// reduction ablation), and the recommended point once per ablation.
func sweepPoints() []engine.Options {
	var opts []engine.Options
	for _, ca := range bench.CoverageLevels {
		opts = append(opts, engine.Options{CA: ca, CR: 0.95})
	}
	for cr := 0.0; cr <= 1.0; cr += 0.1 {
		opts = append(opts, engine.Options{CA: 0.97, CR: cr})
	}
	for i := 0; i < 6; i++ {
		opts = append(opts, engine.DefaultOptions())
	}
	return opts
}

// feasibleOptions is `analyze -feasible -clients=all` at the paper's
// recommended point.
func feasibleOptions() engine.Options {
	o := engine.DefaultOptions()
	o.Feasible = true
	o.Clients = engine.ClientsAll
	return o
}

// Batch runs one of the three batch workloads: passes of in-process
// AnalyzeProgram calls, each pass on a fresh engine.
type Batch struct {
	env    *Env
	kind   string // "sweep", "feasible" or "replay"
	ins    []*Input
	points []engine.Options
	dir    string // replay: the filled cache directory

	// want holds each (input, point)'s result digest: from the fill
	// for replay, else from its first computation.
	want map[string]uint64
	// first keeps the warm-up pass's results for the deep checks.
	first map[string]*engine.ProgramResult
	tally tally
}

func key(in *Input, i int) string { return fmt.Sprintf("%s/%d", in.Name, i) }

// newBatch loads the named programs and the generated ones drawn into
// env.gen and, for replay, fills its cache directory. It is the
// workload's set-up.
func newBatch(env *Env, kind string, tr *Tracer, parent int) (*Batch, error) {
	b := &Batch{env: env, kind: kind, want: map[string]uint64{}, first: map[string]*engine.ProgramResult{}}
	ins := named()
	for _, in := range env.gen {
		c := *in // each set-up compiles and trains its own copy
		ins = append(ins, &c)
	}
	switch kind {
	case "sweep":
		b.points = sweepPoints()
	case "feasible":
		b.points = []engine.Options{feasibleOptions()}
	case "replay":
		b.points = sweepPoints()
	default:
		return nil, fmt.Errorf("unknown batch workload %q", kind)
	}
	if err := load(ins, tr, parent); err != nil {
		return nil, err
	}
	b.ins = ins
	if kind == "replay" {
		dir, err := os.MkdirTemp(env.dir, "replay-")
		if err != nil {
			return nil, err
		}
		b.dir = dir
		t0 := time.Now()
		eng, err := engine.Open(engine.Config{Workers: env.workers, CacheDir: dir})
		if err != nil {
			return nil, fmt.Errorf("open cache dir: %w", err)
		}
		for _, in := range ins {
			for i, o := range b.points {
				res, err := eng.AnalyzeProgram(context.Background(), in.Prog, in.Train, o)
				if err != nil {
					return nil, fmt.Errorf("fill %s: %w", in.Name, err)
				}
				b.want[key(in, i)] = digest(res)
			}
		}
		tr.Add("engine.fill", parent, t0, time.Now())
	}
	return b, nil
}

func (b *Batch) Close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

func (b *Batch) Inputs() []*Input { return b.ins }

// Loop runs a warm-up pass, whose results the deep checks read, and
// then measures passes for the given length. Each pass visits the
// programs in a seeded order of its own, so a pass the deadline cuts
// short still samples the whole mix. With a tracer, odd passes are
// traced and even ones are not, so the two can be compared for the
// tracing overhead.
func (b *Batch) Loop(length time.Duration, tr *Tracer) *LoopResult {
	rng := splitmix(b.env.seed ^ hashString("order"))
	order := func() []*Input {
		out := make([]*Input, len(b.ins))
		for i, j := range permutation(&rng, len(b.ins)) {
			out[i] = b.ins[j]
		}
		return out
	}
	// The warm-up pass lets the heap and the runtime settle before
	// timing; its operations are checked but not measured.
	b.pass(0, order(), nil, -1, nil, time.Time{})
	lr := newLoopResult()
	deadline := lr.start.Add(length)
	for pass := 1; pass == 1 || time.Now().Before(deadline); pass++ {
		var ptr *Tracer
		if tr != nil && pass%2 == 0 {
			ptr = tr
		}
		t0, c0 := time.Now(), cpuTime()
		root := ptr.Begin("bench.pass", -1)
		done := b.pass(pass, order(), ptr, root, lr, deadline)
		ptr.End(root)
		if ptr != nil {
			lr.tracedUnits++
		} else if done {
			lr.passes = append(lr.passes, float64(time.Since(t0))/1e6)
			lr.cpus = append(lr.cpus, float64(cpuTime()-c0)/1e6)
		}
	}
	lr.finish()
	return lr
}

// Summary reports the named programs, whose inputs are the same for
// every seed, in CPU time (cpu true) or wall time. The generated
// programs run in the same passes, so their cost lengthens the passes,
// and the report shows them as their own class.
func (b *Batch) Summary(lr *LoopResult, cpu bool) Summary { return lr.passSummary("named", cpu) }

// permutation returns a seeded random order of 0..n-1.
func permutation(rng *splitmix, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pass analyzes every program at every point on a fresh engine, or
// stops between programs once the deadline has passed. The warm-up pass
// and the first measured pass always complete, so every run has a pass
// to report. It reports whether the pass completed.
func (b *Batch) pass(pass int, order []*Input, tr *Tracer, root int, lr *LoopResult, deadline time.Time) bool {
	var eng *engine.Engine
	if b.kind == "replay" {
		// A process restart: the disk tier is warm, the memory tier empty.
		t0 := time.Now()
		var err error
		eng, err = engine.Open(engine.Config{Workers: b.env.workers, CacheDir: b.dir})
		tr.Add("engine.Open", root, t0, time.Now())
		if err != nil {
			b.tally.refused("engine.Open", err)
			return false
		}
	} else {
		eng = engine.New(engine.Config{Workers: b.env.workers, Cache: true})
	}
	for _, in := range order {
		if pass > 1 && time.Now().After(deadline) {
			return false
		}
		for i, o := range b.points {
			ctx := context.Background()
			id := tr.Begin("engine.AnalyzeProgram", root)
			if tr != nil {
				ctx = engine.WithStageObserver(ctx, lr.stages.observer(tr, id))
			}
			t0, c0 := time.Now(), cpuTime()
			res, err := eng.AnalyzeProgram(ctx, in.Prog, in.Train, o)
			d, cpu := time.Since(t0), cpuTime()-c0
			tr.End(id)
			if err != nil {
				b.tally.refused(key(in, i), err)
				continue
			}
			b.tally.ok()
			class := "generated"
			if in.Named != nil {
				class = "named"
			}
			if lr != nil {
				lr.add(key(in, i), class, d, cpu, tr != nil)
			}
			b.verify(pass, in, i, res)
		}
	}
	return true
}

// verify compares a result's digest with the reference digest for its
// (input, point) and keeps the warm-up pass's results for the deep checks.
func (b *Batch) verify(pass int, in *Input, i int, res *engine.ProgramResult) {
	k := key(in, i)
	d := digest(res)
	want, ok := b.want[k]
	if !ok {
		b.want[k] = d
	} else if d != want {
		b.tally.wrong(k + ": result differs from its first computation")
	}
	if pass == 0 && b.keepFirst(i) {
		b.first[k] = res
	}
}

// keepFirst selects the points the deep checks read: CA = 0 (sweep grid
// index 0, for the golden file) and the recommended point.
func (b *Batch) keepFirst(i int) bool { return i == 0 || i == b.defaultPoint() }

// defaultPoint is the index of the recommended point in b.points: 4 in
// the sweep grid, the only point of the feasible workload.
func (b *Batch) defaultPoint() int {
	if b.kind == "feasible" {
		return 0
	}
	return 4
}

// digest fingerprints the deterministic parts of a program result:
// per-function graph sizes, hot paths, infeasible edges and solver
// effort, in program order.
func digest(res *engine.ProgramResult) uint64 {
	h := fnv.New64a()
	for _, name := range res.Prog.Order {
		fr := res.Funcs[name]
		fmt.Fprintf(h, "%s|%d|%t|%d", name, len(fr.Hot), fr.Qualified(), fr.OrigSol.Sol.Iterations)
		if fr.Qualified() {
			fmt.Fprintf(h, "|%d|%d|%d|%d|%d", fr.HPG.G.NumNodes(), fr.Red.G.NumNodes(),
				fr.Auto.NumStates(), fr.HPGSol.Sol.Iterations, fr.RedSol.Sol.Iterations)
		}
		if fr.FeasCFG != nil {
			fmt.Fprintf(h, "|f%d", fr.FeasCFG.Count)
		}
		if fr.FeasHPG != nil {
			fmt.Fprintf(h, "|h%d", fr.FeasHPG.Count)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Check runs the untimed correctness gates on the warm-up pass's results.
func (b *Batch) Check(tr *Tracer) tally {
	t := b.tally
	if b.kind != "feasible" {
		checkGolden(b, &t)
	} else {
		checkOracle(b, &t, tr)
	}
	checkOptimized(b, &t)
	return t
}

// goldenPath is the checked-in golden metrics file, relative to the
// checkout root the benchmark runs from.
var goldenPath = filepath.Join("internal", "bench", "testdata", "metrics.golden.json")
