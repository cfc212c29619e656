package engine_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
)

var ctx = context.Background()

// --- Fixtures ------------------------------------------------------------

const multiSrc = `
func helper(k) {
	m = input() % 10;
	if (m < 9) { s = 4; } else { s = input() % 16; }
	return k * s + s / 2;
}
func cold(k) {
	return k * 31 % 17;
}
func main() {
	n = arg(0);
	i = 0;
	t = 0;
	while (i < n) {
		t = t + helper(i);
		i = i + 1;
	}
	if (arg(5) == 99) { t = t + cold(t); }
	print(t);
}
`

func stream(seed uint64) []ir.Value {
	vals := make([]ir.Value, 2048)
	x := seed
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0x7fffffff)
	}
	return vals
}

// fixture compiles the multi-function program and collects its training
// profile once per invocation (profiles are deterministic).
func fixture(t testing.TB) (*cfg.Program, *bl.ProgramProfile) {
	t.Helper()
	prog, err := lang.Compile(multiSrc)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:  []ir.Value{200},
		Input: &interp.SliceInput{Values: stream(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog, train
}

// summarize renders every deterministic output of a program analysis:
// hot-path keys, final graph shapes, reached data-flow environments and
// translated-profile fingerprints. Two runs are equivalent iff their
// summaries are byte-identical.
func summarize(res *engine.ProgramResult) string {
	var sb strings.Builder
	for _, name := range res.Prog.Order {
		fr := res.Funcs[name]
		fmt.Fprintf(&sb, "func %s qualified=%v hot=%d\n", name, fr.Qualified(), len(fr.Hot))
		for _, p := range fr.Hot {
			sb.WriteString("  hot " + p.Key() + "\n")
		}
		g := fr.FinalGraph()
		fmt.Fprintf(&sb, "  final nodes=%d edges=%d\n", g.NumNodes(), len(g.Edges))
		sol := fr.FinalSol()
		for _, nd := range g.Nodes {
			if !sol.Reached(nd.ID) {
				continue
			}
			fmt.Fprintf(&sb, "  env %d %s\n", nd.ID, sol.EnvAt(nd.ID).String(fr.Fn.VarNames))
		}
		if fr.Qualified() {
			fmt.Fprintf(&sb, "  hpg nodes=%d prof=%x\n",
				fr.HPG.G.NumNodes(), engine.FingerprintProfile(fr.HPGProf))
		}
	}
	return sb.String()
}

var sweepOpts = []engine.Options{
	{CA: 0, CR: 0.95},
	{CA: 0.5, CR: 0.95},
	{CA: 0.97, CR: 0.95},
	{CA: 0.97, CR: 0},
	{CA: 0.97, CR: 1.0},
	{CA: 1.0, CR: 0.95},
}

// --- Satellite: Options validation ---------------------------------------

func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		o     engine.Options
		field string
	}{
		{engine.Options{CA: -0.1, CR: 0.95}, "CA"},
		{engine.Options{CA: 1.1, CR: 0.95}, "CA"},
		{engine.Options{CA: 0.97, CR: -1}, "CR"},
		{engine.Options{CA: 0.97, CR: 2}, "CR"},
		{engine.Options{CA: math.NaN(), CR: 0.95}, "CA"},
		{engine.Options{CA: 0.97, CR: math.NaN()}, "CR"},
	} {
		err := tc.o.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error", tc.o)
			continue
		}
		var inv *engine.InvalidOptionsError
		if !errors.As(err, &inv) {
			t.Errorf("Validate(%+v) error type %T, want *InvalidOptionsError", tc.o, err)
			continue
		}
		if inv.Field != tc.field {
			t.Errorf("Validate(%+v).Field = %q, want %q", tc.o, inv.Field, tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("error %q does not name the offending field", err)
		}
	}
	for _, o := range []engine.Options{{CA: 0, CR: 0}, {CA: 1, CR: 1}, engine.DefaultOptions()} {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
}

func TestInvalidOptionsSurfaceFromEveryEntryPoint(t *testing.T) {
	prog, train := fixture(t)
	eng := engine.New(engine.Config{})
	bad := engine.Options{CA: 7, CR: 0.95}
	var inv *engine.InvalidOptionsError

	if _, err := eng.AnalyzeProgram(ctx, prog, train, bad); !errors.As(err, &inv) {
		t.Errorf("AnalyzeProgram: %v, want InvalidOptionsError", err)
	}
	if _, err := eng.AnalyzeFunc(ctx, prog.Funcs["main"], train.Funcs["main"], bad); !errors.As(err, &inv) {
		t.Errorf("AnalyzeFunc: %v, want InvalidOptionsError", err)
	}
	if _, err := eng.AnalyzeFuncHot(ctx, prog.Funcs["main"], train.Funcs["main"], nil, bad); !errors.As(err, &inv) {
		t.Errorf("AnalyzeFuncHot: %v, want InvalidOptionsError", err)
	}
	if _, _, err := eng.ProfileAndAnalyze(ctx, prog, interp.Options{}, bad); !errors.As(err, &inv) {
		t.Errorf("ProfileAndAnalyze: %v, want InvalidOptionsError", err)
	}
}

// --- Satellite: differential tests ---------------------------------------

// TestParallelMatchesSerial is the scheduler's determinism contract:
// whatever the worker count, the analysis output is byte-identical.
func TestParallelMatchesSerial(t *testing.T) {
	prog, train := fixture(t)
	want := ""
	for _, workers := range []int{1, 2, 4, 8, 0} {
		eng := engine.New(engine.Config{Workers: workers})
		var got strings.Builder
		for _, o := range sweepOpts {
			res, err := eng.AnalyzeProgram(ctx, prog, train, o)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			got.WriteString(summarize(res))
		}
		if want == "" {
			want = got.String()
			continue
		}
		if got.String() != want {
			t.Errorf("workers=%d produced different output than workers=1", workers)
		}
	}
}

// TestCacheMatchesUncached: enabling the artifact cache must not change a
// single output, only skip recomputation.
func TestCacheMatchesUncached(t *testing.T) {
	prog, train := fixture(t)
	plain := engine.New(engine.Config{Workers: 1})
	cached := engine.New(engine.Config{Workers: 1, Cache: true})
	for _, o := range sweepOpts {
		a, err := plain.AnalyzeProgram(ctx, prog, train, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cached.AnalyzeProgram(ctx, prog, train, o)
		if err != nil {
			t.Fatal(err)
		}
		if sa, sb := summarize(a), summarize(b); sa != sb {
			t.Errorf("CA=%v CR=%v: cached output differs\nuncached:\n%s\ncached:\n%s", o.CA, o.CR, sa, sb)
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Error("sweep over shared artifacts produced no cache hits")
	}
	if st.Entries == 0 || st.Misses == 0 {
		t.Errorf("implausible cache stats: %+v", st)
	}
	// A repeated point is a pure cache replay: no new entries.
	before := cached.CacheStats()
	if _, err := cached.AnalyzeProgram(ctx, prog, train, sweepOpts[2]); err != nil {
		t.Fatal(err)
	}
	after := cached.CacheStats()
	if after.Entries != before.Entries {
		t.Errorf("replayed point added entries: %d -> %d", before.Entries, after.Entries)
	}
	if after.Hits <= before.Hits {
		t.Error("replayed point recorded no cache hits")
	}
}

// TestCacheSharesBaselineAcrossPoints: the CA=0 solution is keyed by the
// function alone, so a sweep computes it exactly once per function.
func TestCacheSharesBaselineAcrossPoints(t *testing.T) {
	prog, train := fixture(t)
	eng := engine.New(engine.Config{Workers: 1, Cache: true})
	if _, err := eng.SweepProgram(ctx, prog, train, sweepOpts); err != nil {
		t.Fatal(err)
	}
	res, err := eng.AnalyzeProgram(ctx, prog, train, engine.Options{CA: 0.97, CR: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, fr := range res.Funcs {
		hits += fr.Metrics.CacheHits()
	}
	if hits == 0 {
		t.Error("post-sweep analysis recorded no per-function cache hits")
	}
	// Stage costs must still be populated on hits so Figure 12 ratios
	// work.
	fr := res.Funcs["main"]
	if fr.Metrics.Duration(engine.StageAnalyze) <= 0 {
		t.Errorf("cache hit reported zero analyze cost: %+v", fr.Metrics.Stages)
	}
}

// TestAnalyzeFuncMatchesPaperExample: the serial engine and a parallel
// caching one must agree on the paper's running example.
func TestAnalyzeFuncMatchesPaperExample(t *testing.T) {
	f, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	serial, err := engine.Serial().AnalyzeFunc(ctx, f, pr, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	par, err := engine.New(engine.Config{Workers: 4, Cache: true}).
		AnalyzeFunc(ctx, f, pr, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Qualified() || !par.Qualified() {
		t.Fatal("example must qualify")
	}
	if a, b := serial.Red.G.NumNodes(), par.Red.G.NumNodes(); a != b {
		t.Errorf("reduced sizes differ: %d vs %d", a, b)
	}
	if a, b := engine.FingerprintProfile(serial.HPGProf), engine.FingerprintProfile(par.HPGProf); a != b {
		t.Errorf("translated profiles differ: %x vs %x", a, b)
	}
}

// --- Satellite: cancellation ---------------------------------------------

// TestCancelledContextStopsAnalysis: on every engine — uncached,
// memory-cached and disk-cached — a cancelled context fails the first
// stage with a StageError that names the stage and the function and
// still unwraps to context.Canceled.
func TestCancelledContextStopsAnalysis(t *testing.T) {
	prog, train := fixture(t)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		cfg  engine.Config
	}{
		{"uncached", engine.Config{Workers: 4}},
		{"memory", engine.Config{Workers: 4, Cache: true}},
		{"disk", engine.Config{Workers: 4, CacheDir: t.TempDir()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engine.Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.AnalyzeProgram(cctx, prog, train, engine.DefaultOptions())
			if err == nil {
				t.Fatal("analysis succeeded under a cancelled context")
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("errors.Is(err, Canceled) = false: %v", err)
			}
			var se *engine.StageError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a StageError", err)
			}
			if se.Stage == "" || prog.Funcs[se.Func] == nil {
				t.Errorf("StageError missing provenance: %+v", se)
			}
			if !strings.Contains(err.Error(), string(se.Stage)) || !strings.Contains(err.Error(), se.Func) {
				t.Errorf("message %q does not name the owning stage and function", err)
			}
		})
	}
}

// TestCancelMidSweep cancels while a sweep is in flight and checks both
// prompt termination and that the engine remains usable afterwards (a
// failed cache computation must be evicted, not poisoned).
func TestCancelMidSweep(t *testing.T) {
	prog, train := fixture(t)
	eng := engine.New(engine.Config{Workers: 2, Cache: true})

	cctx, cancel := context.WithCancel(context.Background())
	var analyzed atomic.Int32
	// Cancel as soon as the first point lands: the remaining points must
	// not run to completion.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if _, err := eng.AnalyzeProgram(cctx, prog, train, sweepOpts[i%len(sweepOpts)]); err != nil {
				return
			}
			if analyzed.Add(1) == 2 {
				cancel()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not stop after cancellation")
	}
	cancel()
	if n := analyzed.Load(); n >= 1000 {
		t.Fatalf("sweep ran all %d points despite cancellation", n)
	}

	// The engine (and its cache) must recover for the next caller.
	res, err := eng.AnalyzeProgram(ctx, prog, train, engine.DefaultOptions())
	if err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
	if !res.Funcs["main"].Qualified() {
		t.Error("post-cancel analysis lost qualification")
	}
}

// --- Scheduler -----------------------------------------------------------

func TestMapDeterministicOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 16, 0} {
		out, err := engine.Map(ctx, workers, items, func(_ context.Context, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapReturnsFirstError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sentinel := errors.New("boom")
	_, err := engine.Map(ctx, 4, items, func(ctx context.Context, v int) (int, error) {
		if v == 3 {
			return 0, fmt.Errorf("item %d: %w", v, sentinel)
		}
		// Later items may be cancelled collaterally; surface that as the
		// scheduler would see it from a stage.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return v, nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("Map error = %v, want the originating failure, not collateral cancellation", err)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := engine.Map(ctx, 8, nil, func(_ context.Context, v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(nil) = %v, %v", out, err)
	}
}

// --- Fingerprints --------------------------------------------------------

func TestFingerprintsStableAndSensitive(t *testing.T) {
	f1, _, e1 := paperex.Build()
	f2, n2, e2 := paperex.Build()
	if engine.FingerprintFunc(f1) != engine.FingerprintFunc(f2) {
		t.Error("identical functions fingerprint differently")
	}
	if engine.FingerprintProfile(paperex.Profile(e1)) != engine.FingerprintProfile(paperex.Profile(e2)) {
		t.Error("identical profiles fingerprint differently")
	}
	// Perturb one instruction constant (block A holds a=2): the
	// fingerprint must move.
	f2.G.Nodes[n2.A].Instrs[0].K++
	if engine.FingerprintFunc(f1) == engine.FingerprintFunc(f2) {
		t.Error("fingerprint blind to an instruction constant")
	}
	p1, p2 := paperex.Profile(e1), paperex.Profile(e2)
	for k := range p2.Entries {
		e := p2.Entries[k]
		e.Count++
		p2.Entries[k] = e
		break
	}
	if engine.FingerprintProfile(p1) == engine.FingerprintProfile(p2) {
		t.Error("fingerprint blind to a path count")
	}
	hot := paperex.Paths(e1)
	if engine.FingerprintHot(hot[:2]) == engine.FingerprintHot(hot[:3]) {
		t.Error("hot-set fingerprint blind to set size")
	}
}

// TestHotFingerprintPinned pins Path.Key and FingerprintHot to the
// formula every existing cache key was built with — fmt's decimal edge
// IDs joined by commas, hashed by FNV-1a 64 with each string's length
// and the set size appended as little-endian uint64s — on random paths,
// so on-disk caches keep hitting.
func TestHotFingerprintPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	le := func(h hash.Hash64, v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for round := 0; round < 200; round++ {
		hot := make([]bl.Path, rng.Intn(6))
		for i := range hot {
			edges := make([]cfg.EdgeID, rng.Intn(12))
			for j := range edges {
				edges[j] = cfg.EdgeID(rng.Int31n(1 << uint(rng.Intn(31))))
			}
			hot[i] = bl.Path{Edges: edges}
		}
		want := fnv.New64a()
		le(want, len(hot))
		for _, p := range hot {
			var key strings.Builder
			for i, e := range p.Edges {
				if i > 0 {
					key.WriteByte(',')
				}
				fmt.Fprintf(&key, "%d", e)
			}
			if got := p.Key(); got != key.String() {
				t.Fatalf("Key(%v) = %q, want %q", p.Edges, got, key.String())
			}
			want.Write([]byte(key.String()))
			le(want, key.Len())
		}
		if got := engine.FingerprintHot(hot); got != want.Sum64() {
			t.Fatalf("FingerprintHot(%v) = %#x, want %#x", hot, got, want.Sum64())
		}
	}
}
