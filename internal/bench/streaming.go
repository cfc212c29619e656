package bench

import (
	"context"
	"fmt"
	"time"

	"pathflow/internal/bl"
	"pathflow/internal/engine"
	"pathflow/internal/profile/stream"
)

// StreamingRound is one drift round of the streaming experiment: a
// batch of streamed path-counter deltas lands, the drift detector picks
// the functions whose hot-set selection moved, and the program
// re-analyzes with every function under its classified delta.
type StreamingRound struct {
	Round int
	// Drifted counts functions whose live profile changed at all;
	// Requalified the subset whose hot-set selection at CA moved (their
	// StageSelect-downstream artifacts re-key).
	Drifted, Requalified int
	// Computed and Replayed split the round's pipeline stage executions:
	// recomputed fresh vs served from the cache the previous rounds
	// filled.
	Computed, Replayed int
	// Time is the round's wall-clock re-analysis cost.
	Time time.Duration
}

// StreamingRow is one benchmark's streamed-drift trajectory.
type StreamingRow struct {
	Name  string
	Funcs int
	// ColdComputed / ColdTime are the cost of the initial cold analysis
	// every round's incremental cost compares against.
	ColdComputed int
	ColdTime     time.Duration
	Rounds       []StreamingRound
}

// pipelineComputed splits a program result's pipeline stage executions
// into (computed, replayed).
func pipelineComputed(res *engine.ProgramResult) (computed, replayed int) {
	for _, fr := range res.Funcs {
		if fr == nil || fr.Metrics == nil {
			continue
		}
		for _, s := range engine.PipelineStages {
			sm := fr.Metrics.Stages[s]
			computed += sm.Runs - sm.CacheHits
			replayed += sm.CacheHits
		}
	}
	return computed, replayed
}

// Streaming measures drift-triggered requalification against streamed
// profile deltas: per benchmark, a cold analysis fills a fresh engine's
// cache, then `rounds` hot-set-flipping batches land on a decaying
// accumulator set and the program re-analyzes against the live profile
// on the warm cache. The interesting contract — visible in every row — is that a
// round's Computed stays far below ColdComputed while Replayed absorbs
// the rest: only the drifted function's StageSelect-downstream suffix
// recomputes.
func Streaming(ctx context.Context, instances []*Instance, rounds int) ([]StreamingRow, error) {
	o := engine.Options{CA: 0.97, CR: 0.95}
	var rows []StreamingRow
	for _, in := range instances {
		// A dedicated engine: other experiments may have warmed in.Eng,
		// which would understate the cold cost the rounds compare against.
		eng := engine.New(engine.Config{Workers: 0, Cache: true})

		t0 := time.Now()
		res, err := eng.AnalyzeProgram(ctx, in.Prog, in.Train, o)
		if err != nil {
			return nil, fmt.Errorf("bench %s cold: %w", in.B.Name, err)
		}
		coldComputed, _ := pipelineComputed(res)
		row := StreamingRow{
			Name: in.B.Name, Funcs: len(in.Prog.Order),
			ColdComputed: coldComputed, ColdTime: time.Since(t0),
		}

		set := stream.NewSet(in.Prog, in.Train)
		prev := in.Train
		for round := 1; round <= rounds; round++ {
			fn, path := StreamFlipTarget(prev, in.Prog.Order)
			if fn == "" {
				break // single-path programs cannot drift
			}
			batch := &stream.Batch{Source: "bench", Funcs: []stream.FuncDelta{{
				Func: fn, Seq: uint64(round),
				Paths: []stream.PathDelta{{Path: path, Count: int64(10_000_000 * round)}},
			}}}
			if _, err := set.Apply(batch); err != nil {
				return nil, fmt.Errorf("bench %s round %d: %w", in.B.Name, round, err)
			}
			live := set.Profile()

			sr := StreamingRound{Round: round}
			for _, d := range stream.DetectDrift(prev, live, in.Prog, o.CA) {
				if d.Changed {
					sr.Drifted++
				}
				if d.Requalify {
					sr.Requalified++
				}
			}

			t0 = time.Now()
			rres, err := eng.AnalyzeProgram(ctx, in.Prog, live, o)
			if err != nil {
				return nil, fmt.Errorf("bench %s round %d: %w", in.B.Name, round, err)
			}
			sr.Time = time.Since(t0)
			sr.Computed, sr.Replayed = pipelineComputed(rres)
			row.Rounds = append(row.Rounds, sr)
			prev = live
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// StreamFlipTarget picks the drift target: the coldest trained path of
// the function with the richest path set (ties broken by key so the
// experiment is deterministic). Pumping a large count into that path
// reorders or grows the function's hot-set selection while leaving
// every other function's distribution untouched.
func StreamFlipTarget(pp *bl.ProgramProfile, order []string) (fn, path string) {
	best := -1
	for _, name := range order {
		pr := pp.Funcs[name]
		if pr == nil || len(pr.Entries) < 2 {
			continue
		}
		if len(pr.Entries) > best {
			best = len(pr.Entries)
			fn = name
		}
	}
	if fn == "" {
		return "", ""
	}
	var coldCount int64 = -1
	for k, e := range pp.Funcs[fn].Entries {
		if coldCount < 0 || e.Count < coldCount || (e.Count == coldCount && k < path) {
			coldCount, path = e.Count, k
		}
	}
	return fn, path
}
