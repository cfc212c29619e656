//go:build go1.24

package engine_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pathflow/internal/engine"
)

// TestFingerprintMemoReleasesRecompiled: the cache memoizes the
// fingerprints of every function and profile it keys, and must not keep
// them alive. Each round compiles and profiles the program afresh, as
// the daemon does for inline source and watch does on every save, and
// analyzes it on one long-lived engine with a bounded memory tier. Once
// a round's result is dropped, a GC must collect its functions and
// profiles; only what the memory tier's bundles still reference may
// stay.
func TestFingerprintMemoReleasesRecompiled(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, Cache: true, MemoryMaxBytes: 1 << 20})
	const rounds = 40
	var funcs, profs atomic.Int64
	perRound := 0
	count := func(c *atomic.Int64) { c.Add(1) }
	for i := 0; i < rounds; i++ {
		prog, train := fixture(t)
		if _, err := eng.AnalyzeProgram(ctx, prog, train, engine.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		for _, fn := range prog.Funcs {
			runtime.AddCleanup(fn, count, &funcs)
		}
		for _, pr := range train.Funcs {
			runtime.AddCleanup(pr, count, &profs)
		}
		perRound = len(prog.Funcs)
	}
	// Allow a few rounds to stay reachable through the memory tier.
	want := int64((rounds - 4) * perRound)
	deadline := time.Now().Add(10 * time.Second)
	for (funcs.Load() < want || profs.Load() < want) && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(eng)
	if funcs.Load() < want || profs.Load() < want {
		t.Fatalf("after %d recompiles, %d functions and %d profiles were collected, want at least %d each",
			rounds, funcs.Load(), profs.Load(), want)
	}
}
