package diskcache_test

import (
	"bytes"
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/paperex"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// codecFixture carries the decode contexts every artifact decoder needs:
// the paper's running example pushed through the full pipeline.
type codecFixture struct {
	fn    *cfg.Func
	pr    *bl.Profile
	hot   []bl.Path
	auto  *automaton.Automaton
	hpg   *trace.HPG
	base  *constprop.Result
	hsol  *constprop.Result
	hprof *bl.Profile
	w     *reduce.Weights
	k     int
	red   *reduce.Reduced
	rsol  *constprop.Result
}

func buildCodecFixture(f *testing.F) *codecFixture {
	f.Helper()
	fn, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	paths := paperex.Paths(edges)
	hot := paths[:]
	auto, err := automaton.New(fn.G, pr.R, hot)
	if err != nil {
		f.Fatal(err)
	}
	hpg, err := trace.Build(fn, auto)
	if err != nil {
		f.Fatal(err)
	}
	base := constprop.AnalyzeBoxed(fn.G, fn.NumVars(), true)
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
		fn: fn, pr: pr, hot: hot, auto: auto, hpg: hpg,
		base: base, hsol: hsol, hprof: hprof, w: w, k: k, red: red, rsol: rsol,
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
// Seeds cover every bundle kind with genuinely valid payloads (the
// paper example pushed through the pipeline), so the mutator starts
// from deep inside the accepted format rather than fuzzing headers
// forever.
func FuzzDiskcacheCodec(f *testing.F) {
	fx := buildCodecFixture(f)
	meta := diskcache.Meta{Cost: 12345}
	f.Add(diskcache.EncodeSelect(meta, fx.hot))
	f.Add(diskcache.EncodeBaseline(meta, fx.base))
	f.Add(diskcache.EncodeAnalyze(meta, fx.hsol))
	f.Add(diskcache.EncodeAutomatonBundle(meta, fx.auto))
	f.Add(diskcache.EncodeTrace(meta, fx.hpg))
	f.Add(diskcache.EncodeTranslate(meta, fx.hprof))
	f.Add(diskcache.EncodeWeigh(meta, fx.w))
	f.Add(diskcache.EncodeReduced(meta, fx.red, fx.rsol))
	f.Add([]byte{})
	f.Add([]byte("PFAC\x02"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, hot, err := diskcache.DecodeSelect(data, fx.fn.G); err == nil {
			enc1 := diskcache.EncodeSelect(m, hot)
			m2, hot2, err2 := diskcache.DecodeSelect(enc1, fx.fn.G)
			if err2 != nil {
				t.Fatalf("select: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeSelect(m2, hot2); !bytes.Equal(enc1, enc2) {
				t.Fatal("select: round-trip is not canonical")
			}
		}
		if m, sol, err := diskcache.DecodeBaseline(data, fx.fn.G, fx.fn.NumVars()); err == nil {
			enc1 := diskcache.EncodeBaseline(m, sol)
			m2, sol2, err2 := diskcache.DecodeBaseline(enc1, fx.fn.G, fx.fn.NumVars())
			if err2 != nil {
				t.Fatalf("baseline: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeBaseline(m2, sol2); !bytes.Equal(enc1, enc2) {
				t.Fatal("baseline: round-trip is not canonical")
			}
		}
		if m, sol, err := diskcache.DecodeAnalyze(data, fx.hpg.G, fx.fn.NumVars()); err == nil {
			enc1 := diskcache.EncodeAnalyze(m, sol)
			m2, sol2, err2 := diskcache.DecodeAnalyze(enc1, fx.hpg.G, fx.fn.NumVars())
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
		if m, h, err := diskcache.DecodeTrace(data, fx.fn, fx.auto); err == nil {
			enc1 := diskcache.EncodeTrace(m, h)
			m2, h2, err2 := diskcache.DecodeTrace(enc1, fx.fn, fx.auto)
			if err2 != nil {
				t.Fatalf("trace: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeTrace(m2, h2); !bytes.Equal(enc1, enc2) {
				t.Fatal("trace: round-trip is not canonical")
			}
		}
		if m, prof, err := diskcache.DecodeTranslate(data, fx.hpg.G); err == nil {
			enc1 := diskcache.EncodeTranslate(m, prof)
			m2, prof2, err2 := diskcache.DecodeTranslate(enc1, fx.hpg.G)
			if err2 != nil {
				t.Fatalf("translate: re-decode of accepted artifact failed: %v", err2)
			}
			if enc2 := diskcache.EncodeTranslate(m2, prof2); !bytes.Equal(enc1, enc2) {
				t.Fatal("translate: round-trip is not canonical")
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
