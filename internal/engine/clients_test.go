package engine_test

import (
	"testing"

	"pathflow/internal/availexpr"
	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/liveness"
	"pathflow/internal/profile"
)

// --- Client wiring -------------------------------------------------------

func TestClientsRunOnEveryTier(t *testing.T) {
	prog, train := fixture(t)
	o := engine.DefaultOptions()
	o.Clients = engine.ClientsAll
	res, err := engine.Serial().AnalyzeProgram(ctx, prog, train, o)
	if err != nil {
		t.Fatal(err)
	}
	sawQualified := false
	for name, fr := range res.Funcs {
		if fr.LiveCFG == nil || fr.AvailCFG == nil {
			t.Fatalf("%s: missing CFG-tier client results", name)
		}
		if fr.AvailU == nil {
			t.Fatalf("%s: missing shared expression universe", name)
		}
		if fr.Qualified() {
			sawQualified = true
			if fr.LiveHPG == nil || fr.LiveRed == nil {
				t.Fatalf("%s: missing qualified-tier liveness", name)
			}
			if fr.AvailHPG == nil || fr.AvailRed == nil {
				t.Fatalf("%s: missing qualified-tier available expressions", name)
			}
			if fr.FinalLive() != fr.LiveRed || fr.FinalAvail() != fr.AvailRed {
				t.Fatalf("%s: Final accessors disagree with reduced tier", name)
			}
		} else if fr.FinalLive() != fr.LiveCFG || fr.FinalAvail() != fr.AvailCFG {
			t.Fatalf("%s: Final accessors disagree with CFG tier", name)
		}
	}
	if !sawQualified {
		t.Fatal("fixture produced no qualified function")
	}
}

func TestClientSelection(t *testing.T) {
	prog, train := fixture(t)
	o := engine.DefaultOptions()
	o.Clients = engine.ClientLiveness
	res, err := engine.Serial().AnalyzeProgram(ctx, prog, train, o)
	if err != nil {
		t.Fatal(err)
	}
	for name, fr := range res.Funcs {
		if fr.LiveCFG == nil {
			t.Fatalf("%s: liveness requested but missing", name)
		}
		if fr.AvailCFG != nil || fr.AvailHPG != nil || fr.AvailRed != nil {
			t.Fatalf("%s: availexpr ran without being requested", name)
		}
	}
}

// TestVerifyPassesOnFixture runs the full pipeline with the differential
// oracle as a fatal stage: any tier whose solution is not pointwise at
// least as precise as the CFG's fails the analysis.
func TestVerifyPassesOnFixture(t *testing.T) {
	prog, train := fixture(t)
	o := engine.DefaultOptions()
	o.Clients = engine.ClientsAll
	o.Verify = true
	res, err := engine.Serial().AnalyzeProgram(ctx, prog, train, o)
	if err != nil {
		t.Fatal(err)
	}
	for name, fr := range res.Funcs {
		if !fr.Qualified() {
			continue
		}
		if len(fr.Oracle) == 0 {
			t.Fatalf("%s: qualified but no oracle reports attached", name)
		}
		if err := engine.OracleErr(fr.Oracle); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestVerifyPassesOnBenchmarks is the paper's central guarantee checked
// empirically: on every benchmark function, for all four clients
// (constant propagation, intervals, liveness, available expressions),
// the HPG and reduced-HPG solutions project to facts at least as precise
// as the CFG baseline.
func TestVerifyPassesOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := engine.DefaultOptions()
	o.Clients = engine.ClientsAll
	o.Verify = true
	e := engine.New(engine.Config{Cache: true})
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.ProfileAndAnalyze(ctx, prog, b.TrainOptions(), o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClientCacheMatchesUncached re-runs a clients-enabled sweep with
// the artifact cache and checks the client results are semantically
// identical to the uncached run's.
func TestClientCacheMatchesUncached(t *testing.T) {
	prog, train := fixture(t)
	opts := make([]engine.Options, len(sweepOpts))
	for i, o := range sweepOpts {
		o.Clients = engine.ClientsAll
		opts[i] = o
	}
	plain, err := engine.Serial().SweepProgram(ctx, prog, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Workers: 1, Cache: true})
	cached, err := e.SweepProgram(ctx, prog, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range opts {
		for _, name := range prog.Order {
			a, b := plain[i].Funcs[name], cached[i].Funcs[name]
			if got, want := clientSummary(b), clientSummary(a); got != want {
				t.Fatalf("point %d func %s: cached clients diverge:\n got %s\nwant %s",
					i, name, got, want)
			}
		}
	}
	if hits := e.CacheStats().Hits; hits == 0 {
		t.Fatal("cache reported no hits across the sweep")
	}
}

// clientSummary renders the deterministic client outputs of one result:
// static and dynamic dead-store and redundant-expression counts per tier.
func clientSummary(fr *engine.FuncResult) string {
	out := ""
	add := func(tier string, lv *liveness.Result, av *availexpr.Result, freq []int64) {
		if lv != nil {
			s, d := liveness.DeadStoreCount(lv.G, lv, freq)
			out += tierLine(tier, "dead", s, d)
		}
		if av != nil {
			s, d := availexpr.RedundantCount(av.G, av, freq)
			out += tierLine(tier, "red", s, d)
		}
	}
	add("cfg", fr.LiveCFG, fr.AvailCFG, freqOf(fr, "cfg"))
	add("hpg", fr.LiveHPG, fr.AvailHPG, freqOf(fr, "hpg"))
	add("rhpg", fr.LiveRed, fr.AvailRed, freqOf(fr, "rhpg"))
	return out
}

func tierLine(tier, kind string, s int, d int64) string {
	return tier + " " + kind + " " + itoa(int64(s)) + "/" + itoa(d) + ";"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func freqOf(fr *engine.FuncResult, tier string) []int64 {
	switch tier {
	case "cfg":
		if fr.Train == nil {
			return nil
		}
		return profile.NodeFrequencies(fr.Train, fr.Fn.G)
	case "hpg":
		if fr.HPGProf == nil {
			return nil
		}
		return profile.NodeFrequencies(fr.HPGProf, fr.HPG.G)
	case "rhpg":
		if !fr.Qualified() || fr.Train == nil {
			return nil
		}
		p, err := fr.TranslateEval(fr.Train)
		if err != nil {
			return nil
		}
		return profile.NodeFrequencies(p, fr.Red.G)
	}
	return nil
}

// TestWarmClientsAllocateLittle: once every bundle is cached, running
// the clients costs a handful of lookups per tier, not a rebuilt
// expression universe per function. A warm all-hit ClientsAll pass over
// the named programs must allocate at most a small multiple of a warm
// pass with the clients off.
func TestWarmClientsAllocateLittle(t *testing.T) {
	type input struct {
		prog  *cfg.Program
		train *bl.ProgramProfile
	}
	var ins []input
	for _, b := range bench.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		train, _, err := bl.ProfileProgram(prog, b.TrainOptions())
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{prog, train})
	}
	warmAllocs := func(clients engine.ClientSet) float64 {
		eng := engine.New(engine.Config{Workers: 1, Cache: true})
		o := engine.Options{CA: 0.97, CR: 0.95, Feasible: true, Clients: clients}
		pass := func() {
			for _, in := range ins {
				if _, err := eng.AnalyzeProgram(ctx, in.prog, in.train, o); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass()
		return testing.AllocsPerRun(5, pass)
	}
	off, all := warmAllocs(0), warmAllocs(engine.ClientsAll)
	if all > 4*off {
		t.Errorf("warm ClientsAll pass allocates %.0f times, clients off %.0f: want at most 4x", all, off)
	}
}
