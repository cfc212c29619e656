package watch

import (
	"context"
	"fmt"
	"os"
	"time"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/lang"
	"pathflow/internal/profile/stream"
)

// Event is one function's outcome in one re-analysis round: the
// classified delta the edit produced, whether the function's hot-set
// selection at CA changed (Requalify — its StageSelect-downstream
// artifacts re-keyed), and the replay/recompute split actually
// observed across the pipeline stages.
type Event struct {
	Round          int
	Func           string
	Class          engine.DeltaClass
	Requalify      bool
	Replayed       int
	Recomputed     int
	ReplayedStages []string
}

// Config configures a Runner. SrcPath is required; everything else has
// a usable zero value.
type Config struct {
	// SrcPath is the mini-language source file to watch and re-analyze.
	SrcPath string
	// ProfilePath, when set, is a saved profile (bl JSON) watched and
	// reloaded alongside the source; otherwise each round runs the
	// training input via Train.
	ProfilePath string
	// Train produces a training profile for a freshly compiled program
	// (ignored when ProfilePath is set).
	Train func(prog *cfg.Program) (*bl.ProgramProfile, error)
	// Interval is the poll period (default 500ms).
	Interval time.Duration
	// Rounds, when > 0, stops the runner after that many
	// change-triggered re-analysis rounds (the initial cold analysis is
	// round 0 and does not count).
	Rounds int
	// Options are the pipeline knobs for every round.
	Options engine.Options
	// OnRound is called when a change is detected, before the round
	// runs (round >= 1; changed lists the modified files).
	OnRound func(round int, changed []string)
	// OnEvent receives one Event per function per round, in program
	// order (including round 0, where every class is "cold").
	OnEvent func(Event)
	// OnError receives non-fatal round errors — a source file that does
	// not compile mid-edit, an unreadable profile — after which the
	// runner keeps watching. When nil, such errors stop the runner.
	OnError func(error)
}

// Runner drives the watch loop: one engine (and artifact cache) for
// all rounds, the previous round's program and profile as the diff
// baseline for the next.
type Runner struct {
	cfg       Config
	eng       *engine.Engine
	prevProg  *cfg.Program
	prevTrain *bl.ProgramProfile
	rounds    int
}

// NewRunner returns a runner using eng's cache across rounds.
func NewRunner(eng *engine.Engine, cfg Config) *Runner {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	return &Runner{cfg: cfg, eng: eng}
}

// Run performs the initial cold analysis, then polls until ctx is
// cancelled or the configured round budget is spent, re-analyzing on
// every source/profile change. Returns nil on a clean stop.
func (r *Runner) Run(ctx context.Context) error {
	if err := r.initial(ctx); err != nil {
		return err
	}
	paths := []string{r.cfg.SrcPath}
	if r.cfg.ProfilePath != "" {
		paths = append(paths, r.cfg.ProfilePath)
	}
	poller := NewPoller(paths...)
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		changed := poller.Poll()
		if len(changed) == 0 {
			continue
		}
		if cb := r.cfg.OnRound; cb != nil {
			cb(r.rounds+1, changed)
		}
		if err := r.round(ctx); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if r.cfg.OnError == nil {
				return err
			}
			r.cfg.OnError(err)
			continue
		}
		if r.cfg.Rounds > 0 && r.rounds >= r.cfg.Rounds {
			return nil
		}
	}
}

// load compiles the watched source and produces its training profile.
func (r *Runner) load() (*cfg.Program, *bl.ProgramProfile, error) {
	data, err := os.ReadFile(r.cfg.SrcPath)
	if err != nil {
		return nil, nil, err
	}
	prog, err := lang.Compile(string(data))
	if err != nil {
		return nil, nil, fmt.Errorf("watch: compiling %s: %w", r.cfg.SrcPath, err)
	}
	var train *bl.ProgramProfile
	if r.cfg.ProfilePath != "" {
		f, err := os.Open(r.cfg.ProfilePath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		train, err = bl.Load(f, prog)
		if err != nil {
			return nil, nil, fmt.Errorf("watch: loading %s: %w", r.cfg.ProfilePath, err)
		}
	} else {
		train, err = r.cfg.Train(prog)
		if err != nil {
			return nil, nil, err
		}
	}
	return prog, train, nil
}

// initial is round 0: a cold analysis establishing the cache and the
// diff baseline.
func (r *Runner) initial(ctx context.Context) error {
	prog, train, err := r.load()
	if err != nil {
		return err
	}
	res, err := r.eng.AnalyzeProgram(ctx, prog, train, r.cfg.Options)
	if err != nil {
		return err
	}
	for _, name := range prog.Order {
		r.emit(0, name, engine.DeltaCold, true, res.Funcs[name])
	}
	r.prevProg, r.prevTrain = prog, train
	return nil
}

// round re-analyzes after a change: re-analyze the program (the warm
// cache replays every stage whose key survived), classify each function
// against the previous round, advance the baseline.
func (r *Runner) round(ctx context.Context) error {
	prog, train, err := r.load()
	if err != nil {
		return err
	}
	r.rounds++
	res, err := r.eng.AnalyzeProgram(ctx, prog, train, r.cfg.Options)
	if err != nil {
		return err
	}
	for _, d := range engine.DiffPrograms(r.prevProg, prog, r.prevTrain, train) {
		r.emit(r.rounds, d.Func, d.Class, r.requalify(d.Func, d.Class, prog, train), res.Funcs[d.Func])
	}
	r.prevProg, r.prevTrain = prog, train
	return nil
}

// requalify reports whether the function's hot-set selection at CA
// changed this round. A structural edit re-keys everything downstream
// anyway (trivially true); an untouched function trivially keeps its
// selection; only a pure profile drift needs the actual comparison —
// on the unchanged graph, so both profiles select against the same
// node set.
func (r *Runner) requalify(name string, class engine.DeltaClass, prog *cfg.Program, train *bl.ProgramProfile) bool {
	switch class {
	case engine.DeltaNone:
		return false
	case engine.DeltaProfile, engine.DeltaCounts:
		g := prog.Funcs[name].G
		var prev *bl.Profile
		if r.prevTrain != nil {
			prev = r.prevTrain.Funcs[name]
		}
		return stream.HotKey(prev, g, r.cfg.Options.CA) != stream.HotKey(train.Funcs[name], g, r.cfg.Options.CA)
	}
	return true
}

// emit projects one function result onto an Event: which pipeline
// stages replayed from cache and which recomputed.
func (r *Runner) emit(round int, name string, class engine.DeltaClass, requalify bool, fr *engine.FuncResult) {
	if r.cfg.OnEvent == nil {
		return
	}
	ev := Event{Round: round, Func: name, Class: class, Requalify: requalify}
	replayed, recomputed := fr.Replayed()
	for _, s := range replayed {
		ev.ReplayedStages = append(ev.ReplayedStages, string(s))
	}
	ev.Replayed, ev.Recomputed = len(replayed), recomputed
	r.cfg.OnEvent(ev)
}
