package engine_test

import (
	"regexp"
	"strconv"
	"testing"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/progen"
)

// fuzzInput derives a deterministic training-input stream from a seed.
func fuzzInput(seed uint64) *interp.SliceInput {
	vals := make([]ir.Value, 64)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0xffff)
	}
	return &interp.SliceInput{Values: vals}
}

var fuzzLiteral = regexp.MustCompile(`\b\d+\b`)

// mutateConstant bumps the pick-th standalone integer literal of src,
// producing a body-class (often also profile-class) edit that keeps the
// program compilable. Identity when src holds no literals.
func mutateConstant(src string, pick uint64) string {
	locs := fuzzLiteral.FindAllStringIndex(src, -1)
	if len(locs) == 0 {
		return src
	}
	loc := locs[pick%uint64(len(locs))]
	n, err := strconv.Atoi(src[loc[0]:loc[1]])
	if err != nil {
		return src
	}
	return src[:loc[0]] + strconv.Itoa((n+1)%100) + src[loc[1]:]
}

func fuzzProfile(prog *cfg.Program, seed uint64) (*bl.ProgramProfile, error) {
	train, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:     []ir.Value{3, 7, 11},
		Input:    fuzzInput(seed),
		MaxSteps: 2_000_000,
	})
	return train, err
}

// FuzzDelta is the incremental-replay fuzzer: for arbitrary pairs of
// generated programs — unrelated, constant-mutated, input-shifted, or
// identical — incremental re-analysis on a cache warmed by the old
// version must be byte-identical to a cold analysis of the new version,
// and every function's Delta class must agree with the replay observed
// on that run. This is the load-bearing guarantee behind
// `analyze -baseline`.
func FuzzDelta(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0), uint64(5))  // unrelated programs
	f.Add(uint64(3), uint64(4), uint8(1), uint64(5))  // constant mutation
	f.Add(uint64(7), uint64(0), uint8(2), uint64(9))  // input shift
	f.Add(uint64(11), uint64(0), uint8(3), uint64(5)) // identical
	f.Add(uint64(42), uint64(17), uint8(1), uint64(1))
	f.Add(uint64(19), uint64(19), uint8(0), uint64(3))

	o := engine.Options{CA: 0.97, CR: 0.95}
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, mode uint8, inputSeed uint64) {
		srcA := progen.Generate(progen.DefaultConfig(seedA))
		var srcB string
		inputB := inputSeed
		switch mode % 4 {
		case 0:
			srcB = progen.Generate(progen.DefaultConfig(seedB))
		case 1:
			srcB = mutateConstant(srcA, seedB)
		case 2:
			srcB = srcA
			inputB = inputSeed + 1
		default:
			srcB = srcA
		}

		progA, err := lang.Compile(srcA)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seedA, err)
		}
		progB, err := lang.Compile(srcB)
		if err != nil {
			t.Fatalf("mutated program does not compile: %v\n%s", err, srcB)
		}
		trainA, err := fuzzProfile(progA, inputSeed)
		if err != nil {
			t.Skip("training run A did not terminate in budget")
		}
		trainB, err := fuzzProfile(progB, inputB)
		if err != nil {
			t.Skip("training run B did not terminate in budget")
		}

		coldRes, err := engine.New(engine.Config{Workers: 1}).AnalyzeProgram(ctx, progB, trainB, o)
		if err != nil {
			t.Fatalf("cold analysis failed: %v", err)
		}
		cold := summarize(coldRes)

		eng := engine.New(engine.Config{Workers: 1, Cache: true})
		if _, err := eng.AnalyzeProgram(ctx, progA, trainA, o); err != nil {
			t.Fatalf("warm-up analysis failed: %v", err)
		}
		res, err := eng.AnalyzeProgram(ctx, progB, trainB, o)
		if err != nil {
			t.Fatalf("incremental analysis failed: %v", err)
		}
		if got := summarize(res); got != cold {
			t.Fatalf("incremental result differs from cold recompute\nold source:\n%s\nnew source:\n%s", srcA, srcB)
		}

		// Each class must agree with the replay the run observed: an
		// untouched function replays every pipeline stage it ran, and a
		// shape edit (or a function with no prior version) recomputes
		// its baseline.
		for _, d := range engine.DiffPrograms(progA, progB, trainA, trainB) {
			fr := res.Funcs[d.Func]
			switch d.Class {
			case engine.DeltaNone:
				for _, s := range engine.PipelineStages {
					if sm := fr.Metrics.Stages[s]; sm.CacheHits != sm.Runs {
						t.Errorf("%s/%s: class none but %d/%d runs hit the cache\nold:\n%s\nnew:\n%s",
							d.Func, s, sm.CacheHits, sm.Runs, srcA, srcB)
					}
				}
			case engine.DeltaShape, engine.DeltaCold:
				if sm := fr.Metrics.Stages[engine.StageBaseline]; sm.Runs == 0 || sm.CacheHits != 0 {
					t.Errorf("%s: class %s but baseline was not recomputed (%d/%d runs hit)",
						d.Func, d.Class, sm.CacheHits, sm.Runs)
				}
			}
		}
	})
}
