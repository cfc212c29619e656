package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pathflow/internal/bl"
	"pathflow/internal/engine"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
)

// sweepAll runs every sweep point through eng and concatenates the
// summaries. Two engines are equivalent iff these strings are
// byte-identical.
func sweepAll(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	prog, train := fixture(t)
	var sb strings.Builder
	for _, o := range sweepOpts {
		res, err := eng.AnalyzeProgram(ctx, prog, train, o)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(summarize(res))
	}
	return sb.String()
}

// mustOpen opens an engine with a persistent tier rooted at dir.
func mustOpen(t *testing.T, dir string, workers int) *engine.Engine {
	t.Helper()
	eng, err := engine.Open(engine.Config{Workers: workers, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDiskWarmMatchesColdAndMemoryWarm is the tentpole's differential
// contract: cold, memory-warm, and disk-warm runs must produce
// byte-identical results, and the warm tiers must actually be hit.
func TestDiskWarmMatchesColdAndMemoryWarm(t *testing.T) {
	cold := sweepAll(t, engine.New(engine.Config{Workers: 1}))

	dir := t.TempDir()
	writer := mustOpen(t, dir, 1)
	if got := sweepAll(t, writer); got != cold {
		t.Errorf("disk-backed cold run differs from cacheless run:\n%s\n---\n%s", got, cold)
	}
	st := writer.CacheStats()
	if !st.DiskEnabled || st.Disk.Writes == 0 {
		t.Fatalf("populating run wrote nothing to disk: %+v", st)
	}
	if st.Disk.Hits != 0 {
		t.Errorf("populating run claims disk hits: %+v", st.Disk)
	}

	// Second pass on the same engine: pure memory-tier replay.
	if got := sweepAll(t, writer); got != cold {
		t.Error("memory-warm run differs from cold run")
	}
	st2 := writer.CacheStats()
	if st2.Hits <= st.Hits {
		t.Error("memory-warm run recorded no new memory hits")
	}
	if st2.Disk.Hits != 0 {
		t.Errorf("memory-warm run went to disk: %+v", st2.Disk)
	}

	// Fresh process, same directory: every persisted artifact revives
	// from disk.
	reader := mustOpen(t, dir, 1)
	if got := sweepAll(t, reader); got != cold {
		t.Error("disk-warm run differs from cold run")
	}
	rst := reader.CacheStats()
	if rst.Disk.Hits == 0 {
		t.Fatalf("disk-warm run recorded no disk hits: %+v", rst.Disk)
	}
	if rst.Disk.Rejects != 0 {
		t.Errorf("disk-warm run rejected entries: %+v", rst.Disk)
	}

	// Provenance must reach per-function metrics: a disk-warm analysis
	// reports SourceDisk stages.
	prog, train := fixture(t)
	reader2 := mustOpen(t, dir, 1)
	res, err := reader2.AnalyzeProgram(ctx, prog, train, sweepOpts[2])
	if err != nil {
		t.Fatal(err)
	}
	disk := 0
	stageDisk := map[engine.StageName]int{}
	for _, fr := range res.Funcs {
		disk += fr.Metrics.DiskHits()
		for s, sm := range fr.Metrics.Stages {
			stageDisk[s] += sm.DiskHits
		}
	}
	if disk == 0 {
		t.Error("disk-warm analysis recorded no per-function disk hits")
	}
	// The memory-only stages (the HPG among them) are recomputed, never
	// read; the persisted bundles are read.
	for _, s := range []engine.StageName{engine.StageBaseline, engine.StageSelect, engine.StageTrace, engine.StageTranslate} {
		if stageDisk[s] != 0 {
			t.Errorf("disk-warm analysis read %d %s bundles from disk", stageDisk[s], s)
		}
	}
	for _, s := range []engine.StageName{engine.StageAutomaton, engine.StageAnalyze, engine.StageWeigh, engine.StageReduce} {
		if stageDisk[s] == 0 {
			t.Errorf("disk-warm analysis decoded no %s bundle", s)
		}
	}
}

// feasibleSrc re-tests q < 88 after the two legs of the first test
// merge. On the CFG the merge kills the correlation, but the hot paths
// split the legs, so the HPG (and the quotient reduced from it) has a
// re-test whose contradicted leg is infeasible.
const feasibleSrc = `
func main() {
	n = arg(0);
	i = 0;
	t = 0;
	while (i < n) {
		q = input() % 100;
		if (q < 88) { s = 4; } else { s = q; }
		if (q < 88) { t = t + s; } else { t = t - s; }
		i = i + 1;
	}
	print(t);
}
`

// sweepFeasible runs feasibleSrc at three CR points with feasibility on
// and renders, beside summarize, each qualified function's HPG mask,
// its reduced-tier mask and its reduced bundle's encoding (partition
// plus solution), so two runs match only if FeasRed and RedSol are
// byte-identical. It also returns the number of reduced-tier edges
// marked infeasible over the sweep and the number of weigh bundles
// decoded from disk.
func sweepFeasible(t *testing.T, eng *engine.Engine) (string, int, int) {
	t.Helper()
	prog, err := lang.Compile(feasibleSrc)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:  []ir.Value{300},
		Input: &interp.SliceInput{Values: stream(11)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bits := func(ed *feasible.Edges) string {
		if ed == nil {
			return "nil"
		}
		b := make([]byte, len(ed.Infeasible))
		for e, m := range ed.Infeasible {
			b[e] = '0'
			if m {
				b[e] = '1'
			}
		}
		return string(b)
	}
	var sb strings.Builder
	marked, weighDisk := 0, 0
	for _, cr := range []float64{0, 0.95, 1} {
		res, err := eng.AnalyzeProgram(ctx, prog, train, engine.Options{CA: 0.97, CR: cr, Feasible: true})
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(summarize(res))
		for _, name := range prog.Order {
			fr := res.Funcs[name]
			weighDisk += fr.Metrics.Stages[engine.StageWeigh].DiskHits
			if !fr.Qualified() {
				continue
			}
			fmt.Fprintf(&sb, "  feas hpg=%s red=%s\n", bits(fr.FeasHPG), bits(fr.FeasRed))
			fmt.Fprintf(&sb, "  reduced %x\n", diskcache.EncodeReduced(diskcache.Meta{}, fr.Red, fr.RedSol))
			marked += fr.FeasRed.Count
		}
	}
	return sb.String(), marked, weighDisk
}

// TestDiskWarmFeasibleMatchesCold: with feasibility on, a disk-warm run
// must reproduce the cold run's reduced-tier mask and solution byte for
// byte. The reduced bundle stores no mask, so the decode re-projects
// the HPG mask onto the decoded partition.
func TestDiskWarmFeasibleMatchesCold(t *testing.T) {
	cold, marked, _ := sweepFeasible(t, engine.New(engine.Config{Workers: 1}))
	if marked == 0 {
		t.Fatal("no reduced-tier edge is infeasible; the comparison proves nothing")
	}
	dir := t.TempDir()
	if got, _, _ := sweepFeasible(t, mustOpen(t, dir, 1)); got != cold {
		t.Errorf("disk-backed cold run differs from cacheless run:\n%s\n---\n%s", got, cold)
	}
	reader := mustOpen(t, dir, 1)
	got, _, weighDisk := sweepFeasible(t, reader)
	if got != cold {
		t.Errorf("disk-warm run differs from cold run:\n%s\n---\n%s", got, cold)
	}
	st := reader.CacheStats().Disk
	if st.Hits == 0 || st.Rejects != 0 {
		t.Errorf("disk-warm run: %d hits, %d rejects; want hits and no rejects", st.Hits, st.Rejects)
	}
	if weighDisk == 0 {
		t.Error("disk-warm run decoded no weigh bundle")
	}
}

// TestDiskCorruptionSilentRecompute: damaged cache entries must behave as
// misses — recomputed silently, never surfaced as errors or wrong
// results — and the recompute must rewrite the entry so a later engine
// warm-starts again.
func TestDiskCorruptionSilentRecompute(t *testing.T) {
	cold := sweepAll(t, engine.New(engine.Config{Workers: 1}))
	cases := []struct {
		name        string
		mutate      func(b []byte) []byte
		wantRejects bool // detected lazily at decode (vs dropped at Open)
	}{
		// Too short to hold a header: deleted during Open's scan.
		{"truncate-to-stub", func(b []byte) []byte { return b[:3] }, false},
		// Header intact, payload torn: survives the scan, fails the
		// checksum at first decode.
		{"truncate-mid-payload", func(b []byte) []byte { return b[:len(b)-5] }, true},
		{"payload-bit-flip", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, true},
		// Version skew models an old cache after a format change:
		// dropped during Open's scan.
		{"version-bump", func(b []byte) []byte { b[4] = diskcache.FormatVersion + 1; return b }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sweepAll(t, mustOpen(t, dir, 1)) // populate
			names, err := filepath.Glob(filepath.Join(dir, "*.pfac"))
			if err != nil || len(names) == 0 {
				t.Fatalf("no cache files to corrupt: %v", err)
			}
			for _, name := range names {
				b, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(name, tc.mutate(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			damaged := mustOpen(t, dir, 1)
			if got := sweepAll(t, damaged); got != cold {
				t.Fatal("run over corrupted cache produced wrong results")
			}
			st := damaged.CacheStats().Disk
			if st.Hits != 0 {
				t.Errorf("corrupted entries served as hits: %+v", st)
			}
			if tc.wantRejects && st.Rejects == 0 {
				t.Errorf("lazy corruption not rejected: %+v", st)
			}
			if st.Writes == 0 {
				t.Errorf("recompute did not rewrite entries: %+v", st)
			}

			// The rewrite heals the cache: a third engine warm-starts.
			healed := mustOpen(t, dir, 1)
			if got := sweepAll(t, healed); got != cold {
				t.Fatal("healed cache produced wrong results")
			}
			if hst := healed.CacheStats().Disk; hst.Hits == 0 || hst.Rejects != 0 {
				t.Errorf("healed cache not warm: %+v", hst)
			}
		})
	}
}

// TestSharedCacheDirConcurrentEngines: two engines (modeling two
// processes) sharing one CacheDir must not race or double-write; run
// under -race. Writes use O_EXCL temp files plus rename, so concurrent
// writers of the same key are safe (the bundles are bit-identical).
func TestSharedCacheDirConcurrentEngines(t *testing.T) {
	cold := sweepAll(t, engine.New(engine.Config{Workers: 1}))
	dir := t.TempDir()
	prog, train := fixture(t)

	engines := []*engine.Engine{mustOpen(t, dir, 4), mustOpen(t, dir, 4)}
	var wg sync.WaitGroup
	errs := make([]error, len(engines)*len(sweepOpts))
	for i, eng := range engines {
		for j, o := range sweepOpts {
			wg.Add(1)
			go func(slot int, eng *engine.Engine, o engine.Options) {
				defer wg.Done()
				res, err := eng.AnalyzeProgram(ctx, prog, train, o)
				if err == nil && summarize(res) == "" {
					t.Error("empty summary from concurrent analysis")
				}
				errs[slot] = err
			}(i*len(sweepOpts)+j, eng, o)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// After the dust settles both engines and a newcomer agree with the
	// cacheless baseline.
	for i, eng := range engines {
		if got := sweepAll(t, eng); got != cold {
			t.Errorf("engine %d diverged after concurrent sweep", i)
		}
	}
	if got := sweepAll(t, mustOpen(t, dir, 1)); got != cold {
		t.Error("newcomer engine diverged reading the shared directory")
	}
}

// TestMemoryBudgetEviction: a tiny in-memory ceiling forces evictions
// but never changes results; with a disk tier behind it, evicted
// bundles revive from disk instead of recomputing.
func TestMemoryBudgetEviction(t *testing.T) {
	cold := sweepAll(t, engine.New(engine.Config{Workers: 1}))

	tiny := engine.New(engine.Config{Workers: 1, Cache: true, MemoryMaxBytes: 1})
	if got := sweepAll(t, tiny); got != cold {
		t.Error("memory-bounded run differs from cold run")
	}
	st := tiny.CacheStats()
	if st.MemEvictions == 0 {
		t.Fatalf("1-byte budget evicted nothing: %+v", st)
	}
	if st.Bytes > 1<<20 {
		t.Errorf("bounded cache retains %d bytes", st.Bytes)
	}

	// Same ceiling with a disk tier: the second pass serves evicted
	// bundles from disk rather than recomputing everything.
	dir := t.TempDir()
	eng, err := engine.Open(engine.Config{Workers: 1, CacheDir: dir, MemoryMaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepAll(t, eng); got != cold {
		t.Error("disk-backed bounded run differs from cold run")
	}
	first := eng.CacheStats()
	if got := sweepAll(t, eng); got != cold {
		t.Error("second bounded pass differs from cold run")
	}
	second := eng.CacheStats()
	if second.Disk.Hits <= first.Disk.Hits {
		t.Errorf("evicted bundles did not revive from disk: %+v -> %+v",
			first.Disk, second.Disk)
	}
}
