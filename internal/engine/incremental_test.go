package engine_test

import (
	"strings"
	"testing"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
)

// --- Incremental re-analysis: edit-class differential ---------------------

// The base program for edit-class testing. main has a hot loop (so the
// qualification suffix runs and its per-stage cache keys matter) and
// helper branches on training input (so a pure input change moves its
// profile without touching main's).
const incrBase = `
func helper(k) {
	m = input() % 10;
	if (m < 9) { s = 4; } else { s = 7; }
	return k * s;
}
func main() {
	n = arg(0);
	i = 0;
	t = 0;
	while (i < n) {
		if (i % 3 == 0) { t = t + 5; } else { t = t - 1; }
		t = t + helper(i);
		i = i + 1;
	}
	print(t);
}
`

// incrProfile compiles src and collects its training profile under the
// given argument vector and input seed.
func incrProfile(t *testing.T, src string, arg int64, seed uint64) (*cfg.Program, *bl.ProgramProfile) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:  []ir.Value{ir.Value(arg)},
		Input: &interp.SliceInput{Values: stream(seed)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog, train
}

// stageNames renders a stage list for error messages.
func stageNames(ss []engine.StageName) string {
	strs := make([]string, len(ss))
	for i, s := range ss {
		strs[i] = string(s)
	}
	return strings.Join(strs, ",")
}

// replayedStages returns the pipeline stages of fr served from the cache.
func replayedStages(fr *engine.FuncResult) []engine.StageName {
	var out []engine.StageName
	for _, s := range engine.PipelineStages {
		if fr.Metrics.Stages[s].CacheHits > 0 {
			out = append(out, s)
		}
	}
	return out
}

// TestIncrementalEditClasses is the tentpole's differential contract.
// For every edit class, re-analyzing the edited program on a cache warmed
// by the base version must (a) produce results byte-identical to a cold
// analysis of the edited program, (b) classify the edit as expected, and
// (c) replay exactly the pipeline stages whose cache keys the edit left
// in place.
func TestIncrementalEditClasses(t *testing.T) {
	o := engine.Options{CA: 0.97, CR: 0.95}
	cases := []struct {
		name string
		src  string // edited source (base is incrBase)
		arg  int64
		seed uint64
		// want maps function name to the expected delta class.
		want map[string]engine.DeltaClass
		// wantReplay pins the observed replay set per function
		// (functions not named are not checked).
		wantReplay map[string][]engine.StageName
	}{
		{
			// A constant tweak inside a block: bodies move, counts and
			// shape do not, and control flow (hence the profile) is
			// untouched. The cheapest class: select, automaton and
			// translate all replay.
			name: "body",
			src:  strings.Replace(incrBase, "t = t + 5;", "t = t + 9;", 1),
			arg:  60, seed: 7,
			want: map[string]engine.DeltaClass{"helper": engine.DeltaNone, "main": engine.DeltaBody},
			wantReplay: map[string][]engine.StageName{
				"main": {engine.StageSelect, engine.StageAutomaton, engine.StageTranslate},
			},
		},
		{
			// An inserted instruction: per-block counts move (selection's
			// slice), so selection re-runs. It re-picks the same hot set,
			// and the hot-set-addressed automaton and translation replay.
			name: "counts",
			src:  strings.Replace(incrBase, "i = i + 1;", "i = i + 1; i = i + 0;", 1),
			arg:  60, seed: 7,
			want: map[string]engine.DeltaClass{"helper": engine.DeltaNone, "main": engine.DeltaCounts},
			wantReplay: map[string][]engine.StageName{
				"main": {engine.StageAutomaton, engine.StageTranslate},
			},
		},
		{
			// A new branch: the CFG shape itself moves and everything
			// recomputes.
			name: "shape",
			src:  strings.Replace(incrBase, "print(t);", "if (t > 1000) { t = 0; }\n\tprint(t);", 1),
			arg:  60, seed: 7,
			want:       map[string]engine.DeltaClass{"helper": engine.DeltaNone, "main": engine.DeltaShape},
			wantReplay: map[string][]engine.StageName{"main": nil},
		},
		{
			// Untouched source, new training input: helper's branch
			// distribution shifts (profile class) while main's paths are
			// input-independent and replay completely. helper re-selects
			// the same hot set, so only select, translate and reduce
			// (which read the profile) recompute.
			name: "profile",
			src:  incrBase,
			arg:  60, seed: 11,
			want: map[string]engine.DeltaClass{"helper": engine.DeltaProfile, "main": engine.DeltaNone},
			wantReplay: map[string][]engine.StageName{
				"helper": {engine.StageBaseline, engine.StageAutomaton, engine.StageTrace, engine.StageAnalyze},
				"main":   append([]engine.StageName(nil), engine.PipelineStages...),
			},
		},
	}

	baseProg, baseTrain := incrProfile(t, incrBase, 60, 7)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			editProg, editTrain := incrProfile(t, tc.src, tc.arg, tc.seed)

			// Cold reference on the edited version.
			coldRes, err := engine.New(engine.Config{Workers: 1}).AnalyzeProgram(ctx, editProg, editTrain, o)
			if err != nil {
				t.Fatal(err)
			}
			cold := summarize(coldRes)

			// Warm incremental: analyze the base, then the edit, on one
			// cached engine.
			eng := engine.New(engine.Config{Workers: 1, Cache: true})
			if _, err := eng.AnalyzeProgram(ctx, baseProg, baseTrain, o); err != nil {
				t.Fatal(err)
			}
			res, err := eng.AnalyzeProgram(ctx, editProg, editTrain, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := summarize(res); got != cold {
				t.Errorf("incremental result differs from cold recompute\nincremental:\n%s\ncold:\n%s", got, cold)
			}

			deltas := engine.DiffPrograms(baseProg, editProg, baseTrain, editTrain)
			if len(deltas) != len(editProg.Order) {
				t.Fatalf("DiffPrograms returned %d deltas for %d functions", len(deltas), len(editProg.Order))
			}
			for _, d := range deltas {
				if want, ok := tc.want[d.Func]; ok && d.Class != want {
					t.Errorf("%s classified %q, want %q", d.Func, d.Class, want)
				}
				if want, ok := tc.wantReplay[d.Func]; ok {
					if got := stageNames(replayedStages(res.Funcs[d.Func])); got != stageNames(want) {
						t.Errorf("%s replayed [%s], want [%s]", d.Func, got, stageNames(want))
					}
				}
			}

			// The headline: a body-only edit replays at least three
			// pipeline stages of the qualified function.
			if tc.name == "body" {
				fr := res.Funcs["main"]
				if !fr.Qualified() {
					t.Fatal("main did not qualify; the body-edit replay claim needs hot paths")
				}
				replayed := replayedStages(fr)
				if len(replayed) < 3 {
					t.Errorf("body edit replayed only [%s], want >= 3 stages", stageNames(replayed))
				}
				for _, s := range []engine.StageName{engine.StageSelect, engine.StageAutomaton, engine.StageTranslate} {
					if sm := fr.Metrics.Stages[s]; sm.CacheHits == 0 {
						t.Errorf("body edit recomputed %s (want cache replay): %+v", s, sm)
					}
				}
				// And the recomputed stages must NOT claim cache hits.
				for _, s := range []engine.StageName{engine.StageTrace, engine.StageAnalyze, engine.StageReduce} {
					if sm := fr.Metrics.Stages[s]; sm.CacheHits != 0 {
						t.Errorf("body edit claims a cache hit for dirty stage %s: %+v", s, sm)
					}
				}
			}
		})
	}
}

// TestDiffFuncCold: with no prior version the class is DeltaCold.
func TestDiffFuncCold(t *testing.T) {
	prog, train := incrProfile(t, incrBase, 60, 7)
	d := engine.DiffFunc(nil, prog.Funcs["main"], nil, train.Funcs["main"])
	if d.Class != engine.DeltaCold {
		t.Errorf("cold diff classified %q", d.Class)
	}
}

// --- Decode-time split regression -----------------------------------------

// TestDecodeSplitDiskReplay pins the decode-cost accounting: a stage
// replayed from the persistent tier reports (a) Duration equal to the
// stored compute cost of the run that produced the artifact — decode time
// is never folded in — and (b) a separate, nonzero Decode. Memory hits
// and fresh computes carry zero Decode.
func TestDecodeSplitDiskReplay(t *testing.T) {
	prog, train := fixture(t)
	o := sweepOpts[2]
	dir := t.TempDir()

	writer := mustOpen(t, dir, 1)
	base, err := writer.AnalyzeProgram(ctx, prog, train, o)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh computes and memory hits never pay a decode.
	for name, fr := range base.Funcs {
		for s, sm := range fr.Metrics.Stages {
			if sm.Decode != 0 {
				t.Errorf("%s/%s: populating run reports decode %v", name, s, sm.Decode)
			}
		}
	}

	// Fresh engine, same directory: every pipeline artifact revives from
	// disk.
	reader := mustOpen(t, dir, 1)
	res, err := reader.AnalyzeProgram(ctx, prog, train, o)
	if err != nil {
		t.Fatal(err)
	}
	diskStages := 0
	for name, fr := range res.Funcs {
		for s, sm := range fr.Metrics.Stages {
			switch {
			case sm.DiskHits > 0:
				diskStages++
				if sm.Decode <= 0 {
					t.Errorf("%s/%s: disk replay reports no decode cost: %+v", name, s, sm)
				}
				if sm.DecodeNanos() != sm.Decode.Nanoseconds() {
					t.Errorf("%s/%s: DecodeNanos()=%d, Decode=%v", name, s, sm.DecodeNanos(), sm.Decode)
				}
				want := base.Funcs[name].Metrics.Stages[s].Duration
				if sm.Duration != want {
					t.Errorf("%s/%s: replay Duration %v != stored compute cost %v (decode folded in?)",
						name, s, sm.Duration, want)
				}
			case sm.Decode != 0:
				t.Errorf("%s/%s: non-disk stage carries decode cost %v", name, s, sm.Decode)
			}
		}
	}
	if diskStages == 0 {
		t.Fatal("disk-warm run decoded nothing from the persistent tier")
	}
}
