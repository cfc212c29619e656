package diskcache_test

import (
	"bytes"
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/constprop"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/paperex"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// codecFixture carries the decode contexts every artifact decoder needs:
// the paper's running example pushed through the full pipeline.
type codecFixture struct {
	pr   *bl.Profile
	auto *automaton.Automaton
	hpg  *trace.HPG
	hsol *constprop.Result
	w    *reduce.Weights
	k    int
	red  *reduce.Reduced
	rsol *constprop.Result
	feas []bool // the HPG tier's infeasible-edge mask
}

func buildCodecFixture(f *testing.F) *codecFixture {
	f.Helper()
	fn, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	paths := paperex.Paths(edges)
	auto, err := automaton.New(fn.G, pr.R, paths[:])
	if err != nil {
		f.Fatal(err)
	}
	hpg, err := trace.Build(fn, auto)
	if err != nil {
		f.Fatal(err)
	}
	hsol := constprop.AnalyzeBoxed(hpg.G, fn.NumVars(), true)
	hprof, err := profile.Translate(pr, fn.G, hpg)
	if err != nil {
		f.Fatal(err)
	}
	w := reduce.Weigh(hpg, hsol, hprof)
	k := reduce.HotPrefix(w, 0.95)
	red, err := reduce.Partition(hpg, hsol, w, k)
	if err != nil {
		f.Fatal(err)
	}
	rsol := constprop.AnalyzeBoxed(red.G, fn.NumVars(), true)
	return &codecFixture{
		pr: pr, auto: auto, hpg: hpg,
		hsol: hsol, w: w, k: k, red: red, rsol: rsol,
		feas: feasible.Detect(hpg.G, fn.NumVars()).Infeasible,
	}
}

// FuzzDiskcacheCodec throws arbitrary bytes at every artifact decoder.
// The properties under test:
//
//  1. No input — however corrupt — may panic or hang a decoder; the
//     only acceptable failure mode is an error (the cache treats it as
//     a miss and recomputes).
//  2. Any input a decoder accepts must round-trip: re-encoding the
//     decoded artifact and decoding again yields the same bytes, so
//     accepted entries are canonical and a rewrite never flip-flops.
//
// Seeds give every artifact kind one genuinely valid payload (the
// paper example pushed through the pipeline), so the mutator starts
// from deep inside the accepted format rather than fuzzing headers
// forever.
func FuzzDiskcacheCodec(f *testing.F) {
	fx := buildCodecFixture(f)
	meta := diskcache.Meta{Cost: 12345}
	f.Add(diskcache.EncodeAnalyze(meta, fx.hsol))
	f.Add(diskcache.EncodeAutomatonBundle(meta, fx.auto))
	f.Add(diskcache.EncodeWeigh(meta, fx.w))
	f.Add(diskcache.EncodeReduced(meta, fx.red, fx.rsol))
	f.Add(diskcache.EncodeFeasible(meta, fx.feas))
	f.Add([]byte{})
	f.Add([]byte("PFAC\x02"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, sol, err := diskcache.DecodeAnalyze(data, fx.hpg.G, fx.hpg.Fn.NumVars()); err == nil {
			enc1 := diskcache.EncodeAnalyze(m, sol)
			m2, sol2, err2 := diskcache.DecodeAnalyze(enc1, fx.hpg.G, fx.hpg.Fn.NumVars())
			if err2 != nil {
				t.Fatalf("analyze: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeAnalyze(m2, sol2); !bytes.Equal(enc1, enc2) {
				t.Fatal("analyze: round-trip is not canonical")
			}
		}
		if m, a, err := diskcache.DecodeAutomatonBundle(data, fx.pr.R); err == nil {
			enc1 := diskcache.EncodeAutomatonBundle(m, a)
			m2, a2, err2 := diskcache.DecodeAutomatonBundle(enc1, fx.pr.R)
			if err2 != nil {
				t.Fatalf("automaton: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeAutomatonBundle(m2, a2); !bytes.Equal(enc1, enc2) {
				t.Fatal("automaton: round-trip is not canonical")
			}
		}
		if m, w, err := diskcache.DecodeWeigh(data, fx.hpg.G); err == nil {
			enc1 := diskcache.EncodeWeigh(m, w)
			m2, w2, err2 := diskcache.DecodeWeigh(enc1, fx.hpg.G)
			if err2 != nil {
				t.Fatalf("weigh: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeWeigh(m2, w2); !bytes.Equal(enc1, enc2) {
				t.Fatal("weigh: round-trip is not canonical")
			}
		}
		if m, red, sol, err := diskcache.DecodeReduced(data, fx.hpg, fx.w, fx.k); err == nil {
			enc1 := diskcache.EncodeReduced(m, red, sol)
			m2, red2, sol2, err2 := diskcache.DecodeReduced(enc1, fx.hpg, fx.w, fx.k)
			if err2 != nil {
				t.Fatalf("reduced: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeReduced(m2, red2, sol2); !bytes.Equal(enc1, enc2) {
				t.Fatal("reduced: round-trip is not canonical")
			}
		}
		if m, mask, err := diskcache.DecodeFeasible(data, fx.hpg.G); err == nil {
			enc1 := diskcache.EncodeFeasible(m, mask)
			m2, mask2, err2 := diskcache.DecodeFeasible(enc1, fx.hpg.G)
			if err2 != nil {
				t.Fatalf("feasible: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeFeasible(m2, mask2); !bytes.Equal(enc1, enc2) {
				t.Fatal("feasible: round-trip is not canonical")
			}
		}
	})
}

// TestCodecSeedsRoundTrip pins the seed artifacts through an explicit
// decode so the fuzz properties hold on the known-valid corpus even in
// plain `go test` runs (fuzz seeds also run, but this keeps the check
// independent of the fuzz harness and asserts full field equality).
func TestCodecSeedsRoundTrip(t *testing.T) {
	fnx, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	paths := paperex.Paths(edges)
	auto, err := automaton.New(fnx.G, pr.R, paths[:])
	if err != nil {
		t.Fatal(err)
	}
	meta := diskcache.Meta{Cost: 42}
	enc := diskcache.EncodeAutomatonBundle(meta, auto)
	m, a2, err := diskcache.DecodeAutomatonBundle(enc, pr.R)
	if err != nil {
		t.Fatal(err)
	}
	if m != meta {
		t.Errorf("meta round-trip: got %+v, want %+v", m, meta)
	}
	if a2.NumStates() != auto.NumStates() || a2.NumKeywords() != auto.NumKeywords() {
		t.Errorf("automaton round-trip: %d states/%d keywords, want %d/%d",
			a2.NumStates(), a2.NumKeywords(), auto.NumStates(), auto.NumKeywords())
	}
}
