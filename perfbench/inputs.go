package main

import (
	"context"
	"fmt"
	"time"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/progen"
)

// splitmix is the benchmark's own deterministic generator: every input
// derives from the --seed argument through it.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// Input is one program the benchmark analyzes: its source, how its
// training and evaluation runs are driven, and (after load) the
// compiled program and training profile.
type Input struct {
	Name string
	Src  string
	// Named is the built-in benchmark this input is, or nil for a
	// generated program.
	Named *bench.Benchmark
	// Args, Seed and InputLen drive the training run exactly as the
	// daemon drives an inline source (serve.TargetSpec).
	Args     []int64
	Seed     uint64
	InputLen int

	Prog  *cfg.Program
	Train *bl.ProgramProfile
}

// trainOptions returns fresh interpreter options for the training run.
func (in *Input) trainOptions() interp.Options {
	if in.Named != nil {
		return in.Named.TrainOptions()
	}
	return interp.Options{
		Args:  append([]ir.Value(nil), in.Args...),
		Input: &interp.SliceInput{Values: bench.InputValues(in.Seed, in.InputLen)},
	}
}

// refOptions returns the evaluation run's options: the benchmark's ref
// input, or for a generated program a second seeded input stream.
func (in *Input) refOptions() interp.Options {
	if in.Named != nil {
		return in.Named.RefOptions()
	}
	return interp.Options{
		Args:  append([]ir.Value(nil), in.Args...),
		Input: &interp.SliceInput{Values: bench.InputValues(in.Seed^0x5eed, in.InputLen)},
	}
}

// named returns the seven built-in benchmarks as inputs. Their train
// inputs are fixed, so the golden metrics file can check them.
func named() []*Input {
	var out []*Input
	for _, b := range bench.All() {
		out = append(out, &Input{
			Name: b.Name, Src: b.Source, Named: b,
			Args: append([]int64(nil), b.TrainArgs...), Seed: b.TrainSeed, InputLen: b.InputLen,
		})
	}
	return out
}

// GenSpec shapes a workload's generated programs.
type GenSpec struct {
	Tag        string // prefix of the programs' names, mixed into the seed
	Count      int    // programs
	Funcs      int    // functions besides main
	MaxDepth   int
	Correlated int // percent of ifs in correlated form (progen.Config)
	// MinNodes and MaxNodes bound the largest function's node count,
	// MinPaths and MaxPaths the training run's distinct paths; candidates
	// outside either band are skipped, so the spread of sizes, and of
	// analysis cost, is about the same from seed to seed. MaxPaths 0
	// leaves paths unbounded.
	MinNodes, MaxNodes int
	MinPaths, MaxPaths int
	// Budget, when positive, replaces Count: programs are added until
	// their summed weight reaches it, and a candidate heavier than
	// MaxWeight is skipped. A program's weight is the size of the graphs
	// and solver work of one analysis at CA = 1 (the sweep's most
	// expensive point), a deterministic stand-in for its analysis cost,
	// so the generated share of the work stays about the same from seed
	// to seed.
	Budget, MaxWeight int
}

// weight is a program's analysis-cost stand-in: HPG plus reduced-graph
// nodes plus constant-propagation transfers, at CA = 1.
func weight(prog *cfg.Program, train *bl.ProgramProfile) (int, error) {
	res, err := engine.Serial().AnalyzeProgram(context.Background(), prog, train, engine.Options{CA: 1, CR: 0.95})
	if err != nil {
		return 0, err
	}
	st := res.Stats()
	w := st.HPGNodes + st.RedNodes
	for _, fr := range res.Funcs {
		w += fr.OrigSol.Sol.Iterations
		if fr.Qualified() {
			w += fr.HPGSol.Sol.Iterations + fr.RedSol.Sol.Iterations
		}
	}
	return w, nil
}

// generate returns spec.Count programs derived from seed. The same seed
// gives byte-identical sources, arguments and input seeds.
func generate(seed uint64, spec GenSpec) ([]*Input, error) {
	tag := spec.Tag
	rng := splitmix(seed ^ hashString(tag))
	var out []*Input
	total := 0
	for tries := 0; len(out) < spec.Count && (spec.Budget == 0 || total < spec.Budget); tries++ {
		if tries > 100*spec.Count {
			return nil, fmt.Errorf("generate %s: only %d of %d programs fit %d..%d nodes",
				tag, len(out), spec.Count, spec.MinNodes, spec.MaxNodes)
		}
		cfgGen := progen.Config{
			Seed: rng.next(), Funcs: spec.Funcs, MaxStmts: 6, MaxDepth: spec.MaxDepth,
			MaxVars: 6, Correlated: spec.Correlated,
		}
		src := progen.Generate(cfgGen)
		prog, err := lang.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("generate %s: progen seed %d: %w", tag, cfgGen.Seed, err)
		}
		in := &Input{
			Name: fmt.Sprintf("%s%02d", tag, len(out)),
			Src:  src,
			Args: []int64{int64(rng.intn(100)), int64(rng.intn(100)), int64(rng.intn(100))},
			Seed: rng.next()>>1 | 1, InputLen: 4096,
		}
		if big := largestFunc(prog); big < spec.MinNodes || big > spec.MaxNodes {
			continue
		}
		if spec.MinPaths == 0 && spec.MaxPaths == 0 && spec.Budget == 0 {
			out = append(out, in) // no band needs the training run
			continue
		}
		train, _, err := bl.ProfileProgram(prog, in.trainOptions())
		if err != nil {
			return nil, fmt.Errorf("generate %s: progen seed %d: training: %w", tag, cfgGen.Seed, err)
		}
		if n := train.TotalPaths(); n < spec.MinPaths || (spec.MaxPaths > 0 && n > spec.MaxPaths) {
			continue
		}
		if spec.Budget > 0 {
			w, err := weight(prog, train)
			if err != nil {
				return nil, fmt.Errorf("generate %s: progen seed %d: %w", tag, cfgGen.Seed, err)
			}
			if w > spec.MaxWeight {
				continue
			}
			total += w
		}
		out = append(out, in)
	}
	return out, nil
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func largestFunc(prog *cfg.Program) int {
	big := 0
	for _, f := range prog.Funcs {
		big = max(big, f.G.NumNodes())
	}
	return big
}

// load compiles every input and runs its training run, recording both
// calls as spans under parent.
func load(ins []*Input, tr *Tracer, parent int) error {
	for _, in := range ins {
		if err := in.load(tr, parent); err != nil {
			return err
		}
	}
	return nil
}

func (in *Input) load(tr *Tracer, parent int) error {
	t0 := time.Now()
	prog, err := lang.Compile(in.Src)
	t1 := time.Now()
	tr.Add("lang.compile", parent, t0, t1)
	if err != nil {
		return fmt.Errorf("compile %s: %w", in.Name, err)
	}
	train, _, err := bl.ProfileProgram(prog, in.trainOptions())
	tr.Add("bl.train", parent, t1, time.Now())
	if err != nil {
		return fmt.Errorf("train %s: %w", in.Name, err)
	}
	in.Prog, in.Train = prog, train
	return nil
}

// InputStats describes a workload's programs, so a change that helps
// only some kinds of input can cite the share of each workload that has
// them.
type InputStats struct {
	Programs, Named, Generated int
	Nodes                      int // CFG nodes over all functions
	LargestFunc                int // nodes in the largest function
	Paths                      int // distinct training paths
}

func describe(b *Batch) InputStats {
	var st InputStats
	for _, c := range b.ins {
		st.Programs++
		if c.Named != nil {
			st.Named++
		} else {
			st.Generated++
		}
		for _, f := range c.Prog.Funcs {
			st.Nodes += f.G.NumNodes()
		}
		st.LargestFunc = max(st.LargestFunc, largestFunc(c.Prog))
		st.Paths += c.Train.TotalPaths()
	}
	return st
}
