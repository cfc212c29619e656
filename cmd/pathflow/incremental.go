package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/lang"
)

// loadProfile reads a saved Ball-Larus profile for prog.
func loadProfile(path string, prog *cfg.Program) (*bl.ProgramProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bl.Load(f, prog)
}

// analyzeIncremental implements `analyze -baseline <prev source>`: the
// previous version is compiled, profiled on the same training input and
// analyzed first — warming the memory tier (and the disk tier, with
// -cachedir) with every stage bundle it produces — then the current
// version is analyzed on the warm cache, so stages whose Merkle keys
// survived the edit replay while the dirtied suffix recomputes. Each
// function is diffed against its namesake (engine.DiffPrograms); the
// returned deltas drive the replayed/recomputed report.
//
// profFile, when set, supplies the current version's training profile;
// otherwise both versions are profiled on the target's training input.
func analyzeIncremental(ctx context.Context, eng *engine.Engine, tg *target, baseFile, profFile string, o engine.Options) (*engine.ProgramResult, []*engine.Delta, error) {
	data, err := os.ReadFile(baseFile)
	if err != nil {
		return nil, nil, err
	}
	baseProg, err := lang.Compile(string(data))
	if err != nil {
		return nil, nil, fmt.Errorf("compile -baseline %s: %w", baseFile, err)
	}
	baseTrain, _, err := bl.ProfileProgram(baseProg, tg.fresh())
	if err != nil {
		return nil, nil, fmt.Errorf("profile -baseline %s: %w", baseFile, err)
	}
	// Warm start: analyze the previous version so its stage bundles are
	// resident.
	if _, err := eng.AnalyzeProgram(ctx, baseProg, baseTrain, o); err != nil {
		return nil, nil, fmt.Errorf("analyze -baseline %s: %w", baseFile, err)
	}

	var train *bl.ProgramProfile
	if profFile != "" {
		train, err = loadProfile(profFile, tg.prog)
	} else {
		train, _, err = bl.ProfileProgram(tg.prog, tg.fresh())
	}
	if err != nil {
		return nil, nil, err
	}

	res, err := eng.AnalyzeProgram(ctx, tg.prog, train, o)
	if err != nil {
		return nil, nil, err
	}
	return res, engine.DiffPrograms(baseProg, tg.prog, baseTrain, train), nil
}

// printIncremental renders the per-function incremental report: the
// classified delta and what actually happened — how many pipeline
// stages were served from cache (replayed) versus recomputed.
func printIncremental(baseFile string, deltas []*engine.Delta, res *engine.ProgramResult) {
	fmt.Printf("\nincremental re-analysis vs %s:\n", baseFile)
	fmt.Printf("%-12s %-8s %9s %10s  %s\n",
		"function", "delta", "replayed", "recomputed", "replayed stages")
	for _, d := range deltas {
		fr := res.Funcs[d.Func]
		if fr == nil {
			continue
		}
		replayed, recomputed := fr.Replayed()
		names := make([]string, len(replayed))
		for i, s := range replayed {
			names[i] = string(s)
		}
		fmt.Printf("%-12s %-8s %9d %10d  %s\n",
			d.Func, d.Class, len(replayed), recomputed, strings.Join(names, ","))
	}
}
