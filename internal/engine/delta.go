package engine

import (
	"fmt"
	"strings"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
)

// DeltaClass names the kind of edit DiffFunc found between two versions
// of a function, from the cheapest (nothing changed) to the most
// invalidating (the CFG shape moved). The class is a report only — it
// is printed by `analyze -baseline` and `watch` and sent as serve's
// `delta` events — and never participates in any cache key.
type DeltaClass string

// The delta classes. Classification picks the *dominant* change — a
// shape edit usually perturbs counts and body too — so the classes are
// ordered: Shape ⊃ Counts ⊃ Body, with Profile covering pure
// profile-input changes and Cold meaning there was no prior version to
// diff against.
const (
	// DeltaNone: both versions fingerprint identically on every slice.
	DeltaNone DeltaClass = "none"
	// DeltaBody: block bodies changed but per-block instruction counts
	// and the CFG shape did not (e.g. a constant tweak inside a block).
	// The cheapest interesting class: select, automaton and translate
	// keys all survive it.
	DeltaBody DeltaClass = "body"
	// DeltaCounts: an instruction was inserted or deleted (per-block
	// counts moved) but the CFG shape is intact. Selection re-runs; if
	// it re-selects the same hot set the qualification suffix still
	// replays (the automaton is keyed by the hot set, not the counts).
	DeltaCounts DeltaClass = "counts"
	// DeltaShape: the CFG itself changed — nodes, edges, terminator
	// kinds or names. Everything recomputes.
	DeltaShape DeltaClass = "shape"
	// DeltaProfile: the function is untouched but its training profile
	// changed (new counts, new recording edges, a different training
	// input).
	DeltaProfile DeltaClass = "profile"
	// DeltaCold: no baseline version existed; nothing to diff.
	DeltaCold DeltaClass = "cold"
)

// Delta is the classified difference between two versions of one
// function (plus their training profiles) and the per-stage dirtiness it
// implies. The dirty-set prediction mirrors the per-stage cache-key
// table in cache.go exactly:
//
//	stage      dirty iff
//	baseline   shape ∨ body
//	select     shape ∨ counts ∨ prof
//	automaton  shape ∨ rec ∨ dirty(select)
//	trace      shape ∨ body ∨ dirty(automaton)
//	analyze    dirty(trace)
//	translate  shape ∨ prof ∨ dirty(automaton)
//	reduce     dirty(analyze) ∨ dirty(translate)
//
// Soundness: each stage's cache key hashes exactly the slices in its
// row plus its ancestors' keys, so "every slice bit clean and every
// ancestor clean" implies the key is bit-identical — and the pipeline
// is a pure function of the key's inputs, so the cached artifact equals
// what a recompute would produce. The prediction is conservative in one
// place: a dirty select marks the automaton dirty even though selection
// may re-pick the identical hot set, in which case the engine's
// output-addressed automaton key still hits at run time (the prediction
// under-promises, never over-promises). The prediction assumes the
// analysis knobs (CA, CR) are held fixed across the two versions.
type Delta struct {
	// Func is the function name (taken from the new version).
	Func string
	// Class is the dominant edit class.
	Class DeltaClass
	// The per-slice change bits the class was derived from.
	Shape, Counts, Body, Prof, Rec bool

	dirty map[StageName]bool
}

// DiffFunc classifies the edit between two versions of a function and
// their training profiles. oldFn may be nil (no prior version): the
// delta is DeltaCold with every stage dirty. Either profile may be nil
// (the training run never reached the function).
func DiffFunc(oldFn, newFn *cfg.Func, oldTrain, newTrain *bl.Profile) *Delta {
	d := &Delta{Func: newFn.Name}
	if oldFn == nil {
		d.Class = DeltaCold
		d.Shape, d.Counts, d.Body, d.Prof, d.Rec = true, true, true, true, true
		d.compute()
		return d
	}
	d.Shape = FingerprintShape(oldFn) != FingerprintShape(newFn)
	d.Counts = FingerprintCounts(oldFn) != FingerprintCounts(newFn)
	d.Body = FingerprintBody(oldFn) != FingerprintBody(newFn)
	d.Prof = profFingerprint(oldTrain) != profFingerprint(newTrain)
	d.Rec = recFingerprint(oldTrain) != recFingerprint(newTrain)
	switch {
	case d.Shape:
		d.Class = DeltaShape
	case d.Counts:
		d.Class = DeltaCounts
	case d.Body:
		d.Class = DeltaBody
	case d.Prof || d.Rec:
		d.Class = DeltaProfile
	default:
		d.Class = DeltaNone
	}
	d.compute()
	return d
}

func profFingerprint(pr *bl.Profile) uint64 {
	if pr == nil {
		return 0
	}
	return FingerprintProfile(pr)
}

func recFingerprint(pr *bl.Profile) uint64 {
	if pr == nil {
		return 0
	}
	return FingerprintRecording(pr.R)
}

// compute fills the dirty map from the change bits; see the table on
// Delta.
func (d *Delta) compute() {
	dirty := map[StageName]bool{}
	dirty[StageBaseline] = d.Shape || d.Body
	dirty[StageSelect] = d.Shape || d.Counts || d.Prof
	dirty[StageAutomaton] = d.Shape || d.Rec || dirty[StageSelect]
	dirty[StageTrace] = d.Shape || d.Body || dirty[StageAutomaton]
	dirty[StageAnalyze] = dirty[StageTrace]
	dirty[StageTranslate] = d.Shape || d.Prof || dirty[StageAutomaton]
	dirty[StageReduce] = dirty[StageAnalyze] || dirty[StageTranslate]
	d.dirty = dirty
}

// Dirty reports whether the edit (or an upstream consequence of it)
// re-keys stage s, forcing a recompute. Stages outside the cached
// pipeline (clients, check) report false.
func (d *Delta) Dirty(s StageName) bool { return d.dirty[s] }

// DirtyStages returns the pipeline stages the edit re-keys, in
// execution order.
func (d *Delta) DirtyStages() []StageName { return d.filter(true) }

// ReplayStages returns the pipeline stages whose cache keys survive the
// edit — a warm cache serves them without recomputing — in execution
// order.
func (d *Delta) ReplayStages() []StageName { return d.filter(false) }

func (d *Delta) filter(dirty bool) []StageName {
	var out []StageName
	for _, s := range StageOrder {
		if v, ok := d.dirty[s]; ok && v == dirty {
			out = append(out, s)
		}
	}
	return out
}

// String renders the delta compactly, e.g.
// "f: body (replay select,automaton,translate; recompute baseline,trace,analyze,reduce)".
func (d *Delta) String() string {
	names := func(ss []StageName) string {
		strs := make([]string, len(ss))
		for i, s := range ss {
			strs[i] = string(s)
		}
		return strings.Join(strs, ",")
	}
	replay := d.ReplayStages()
	if len(replay) == 0 {
		return fmt.Sprintf("%s: %s (recompute all)", d.Func, d.Class)
	}
	return fmt.Sprintf("%s: %s (replay %s; recompute %s)",
		d.Func, d.Class, names(replay), names(d.DirtyStages()))
}

// DiffPrograms diffs every function of the new program against its
// namesake in the old one (missing namesakes classify as DeltaCold),
// returning deltas keyed by function name in the new program's order.
func DiffPrograms(oldProg, newProg *cfg.Program, oldTrain, newTrain *bl.ProgramProfile) []*Delta {
	tp := func(pp *bl.ProgramProfile, name string) *bl.Profile {
		if pp == nil {
			return nil
		}
		return pp.Funcs[name]
	}
	out := make([]*Delta, 0, len(newProg.Order))
	for _, name := range newProg.Order {
		var oldFn *cfg.Func
		if oldProg != nil {
			oldFn = oldProg.Funcs[name]
		}
		out = append(out, DiffFunc(oldFn, newProg.Funcs[name], tp(oldTrain, name), tp(newTrain, name)))
	}
	return out
}
