package engine

import (
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
// function (plus their training profiles). It reports the edit; it does
// not predict which stages replay — the cache keys decide that at run
// time, and FuncResult.Replayed reports what actually replayed.
type Delta struct {
	// Func is the function name (taken from the new version).
	Func string
	// Class is the dominant edit class.
	Class DeltaClass
}

// DiffFunc classifies the edit between two versions of a function and
// their training profiles. oldFn may be nil (no prior version): the
// delta is DeltaCold. Either profile may be nil (the training run never
// reached the function).
func DiffFunc(oldFn, newFn *cfg.Func, oldTrain, newTrain *bl.Profile) *Delta {
	d := &Delta{Func: newFn.Name}
	switch {
	case oldFn == nil:
		d.Class = DeltaCold
	case FingerprintShape(oldFn) != FingerprintShape(newFn):
		d.Class = DeltaShape
	case FingerprintCounts(oldFn) != FingerprintCounts(newFn):
		d.Class = DeltaCounts
	case FingerprintBody(oldFn) != FingerprintBody(newFn):
		d.Class = DeltaBody
	case profFingerprint(oldTrain) != profFingerprint(newTrain) ||
		recFingerprint(oldTrain) != recFingerprint(newTrain):
		d.Class = DeltaProfile
	default:
		d.Class = DeltaNone
	}
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
