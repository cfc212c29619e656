package diskcache

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// --- Codec framing ---------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello, artifact")
	framed := frame(KindAutomaton, payload)
	got, err := unframe(KindAutomaton, framed)
	if err != nil {
		t.Fatalf("unframe: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %q want %q", got, payload)
	}
}

func TestUnframeRejectsEveryDefect(t *testing.T) {
	payload := []byte("some payload bytes")
	good := frame(KindAnalyze, payload)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		kind   Kind
	}{
		{"truncated-to-nothing", func(b []byte) []byte { return b[:3] }, KindAnalyze},
		{"truncated-mid-payload", func(b []byte) []byte { return b[:len(b)-9] }, KindAnalyze},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, KindAnalyze},
		{"version-bump", func(b []byte) []byte { b[4] = FormatVersion + 1; return b }, KindAnalyze},
		{"kind-mismatch", func(b []byte) []byte { return b }, KindReduced},
		{"payload-bit-flip", func(b []byte) []byte { b[headerLen+2] ^= 0x01; return b }, KindAnalyze},
		{"checksum-bit-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, KindAnalyze},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			if _, err := unframe(tc.kind, b); err != ErrCorrupt {
				t.Fatalf("unframe = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	var e enc
	e.u64(0)
	e.u64(1 << 62)
	e.i64(-12345)
	e.int(42)
	e.byte(0xab)
	e.bool(true)
	e.bool(false)
	e.str("")
	e.str("qualification")

	d := &dec{b: e.b}
	if v := d.u64(); v != 0 {
		t.Errorf("u64 = %d", v)
	}
	if v := d.u64(); v != 1<<62 {
		t.Errorf("u64 = %d", v)
	}
	if v := d.i64(); v != -12345 {
		t.Errorf("i64 = %d", v)
	}
	if v := d.int(); v != 42 {
		t.Errorf("int = %d", v)
	}
	if v := d.byte(); v != 0xab {
		t.Errorf("byte = %x", v)
	}
	if !d.bool() || d.bool() {
		t.Error("bool round trip failed")
	}
	if v := d.str(); v != "" {
		t.Errorf("str = %q", v)
	}
	if v := d.str(); v != "qualification" {
		t.Errorf("str = %q", v)
	}
	if err := d.done(); err != nil {
		t.Fatalf("done: %v", err)
	}
}

func TestDecoderStickyErrorAndBounds(t *testing.T) {
	// A length prefix far beyond the remaining payload must fail without
	// allocating, and every subsequent read must stay failed.
	var e enc
	e.u64(1 << 40) // huge slice length
	d := &dec{b: e.b}
	if n := d.sliceLen(); n != 0 {
		t.Fatalf("sliceLen = %d, want 0", n)
	}
	if d.err != ErrCorrupt {
		t.Fatalf("err = %v", d.err)
	}
	if v := d.u64(); v != 0 {
		t.Fatalf("post-error read = %d", v)
	}
	// Trailing garbage must be caught by done.
	d2 := &dec{b: []byte{0x00, 0x00}}
	d2.u64()
	if err := d2.done(); err != ErrCorrupt {
		t.Fatalf("done with trailing bytes = %v", err)
	}
	// Truncated varint.
	d3 := &dec{b: []byte{0x80}}
	d3.u64()
	if d3.err != ErrCorrupt {
		t.Fatalf("truncated varint err = %v", d3.err)
	}
}

// --- Store -----------------------------------------------------------------

func testKey(i int) Key {
	return Key{Kind: KindAutomaton, Slice: uint64(i), Chain: 2, Knob: 3}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	payload := frame(KindAutomaton, []byte("bundle"))
	if _, ok := s.Get(k); ok {
		t.Fatal("Get on empty store returned data")
	}
	s.Put(k, payload)
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after Put = %v/%v", got, ok)
	}
	s.Hit(time.Millisecond)
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes != int64(len(payload)) {
		t.Errorf("bytes = %d, want %d", st.Bytes, len(payload))
	}
	if st.DecodeCount != 1 || st.DecodeSum <= 0 {
		t.Errorf("decode histogram not recorded: %+v", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	payload := frame(KindAutomaton, bytes.Repeat([]byte{0xaa}, 100))
	// Budget for three entries.
	s, err := Open(t.TempDir(), int64(3*len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), payload)
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	s.Put(testKey(3), payload)
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Error("LRU victim (key 1) still present")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Errorf("key %d evicted unexpectedly", i)
		}
	}
}

func TestStoreRecoveryOrderAndCleanup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame(KindAutomaton, []byte("recoverable"))
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), payload)
		// Distinct mtimes so recovery order is deterministic.
		name := testKey(i).filename()
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, name), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// A leftover temp file and a version-skewed entry must be deleted.
	tmp := filepath.Join(dir, "leftover.123.1.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := append([]byte(nil), payload...)
	stale[4] = FormatVersion + 1
	stalePath := filepath.Join(dir, testKey(9).filename())
	if err := os.WriteFile(stalePath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Entries != 3 || st.Bytes != int64(3*len(payload)) {
		t.Fatalf("recovered stats = %+v", st)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("leftover temp file survived recovery")
	}
	if _, err := os.Stat(stalePath); !os.IsNotExist(err) {
		t.Error("version-skewed entry survived recovery")
	}

	// Recovery must preserve LRU order by mtime: with budget for two
	// entries, the oldest (key 0) goes first.
	s3, err := Open(dir, int64(2*len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(testKey(0)); ok {
		t.Error("oldest entry survived a shrunken budget")
	}
	for _, i := range []int{1, 2} {
		if _, ok := s3.Get(testKey(i)); !ok {
			t.Errorf("newer entry %d evicted at open", i)
		}
	}
}

func TestStoreRejectDeletesEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	s.Put(k, frame(KindAutomaton, []byte("will be rejected")))
	if _, ok := s.Get(k); !ok {
		t.Fatal("entry missing before reject")
	}
	s.Reject(k)
	if _, err := os.Stat(filepath.Join(dir, k.filename())); !os.IsNotExist(err) {
		t.Error("rejected file still on disk")
	}
	if _, ok := s.Get(k); ok {
		t.Error("rejected entry still served")
	}
	st := s.Stats()
	if st.Rejects != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreCrossProcessFallback(t *testing.T) {
	// Two stores on one directory model two processes: a bundle written
	// by one must be readable by the other (filesystem fallback), and
	// the reader adopts it into its index.
	dir := t.TempDir()
	a, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	payload := frame(KindAutomaton, []byte("written by a"))
	a.Put(k, payload)
	got, ok := b.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("cross-store Get = %v/%v", got, ok)
	}
	if st := b.Stats(); st.Entries != 1 {
		t.Errorf("fallback did not adopt entry: %+v", st)
	}
}

// TestSharedDirConcurrentPublish is the cross-process race surface run
// in-process: many stores (one per simulated worker) over ONE shared
// directory, concurrently publishing the same fingerprints and reading
// them back. The O_EXCL-temp + rename discipline must keep every read
// either a clean miss or a fully written frame — run under -race in CI.
func TestSharedDirConcurrentPublish(t *testing.T) {
	dir := t.TempDir()
	const workers = 4
	const keys = 8
	const rounds = 25

	stores := make([]*Store, workers)
	for i := range stores {
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	payload := func(i int) []byte {
		return frame(KindAutomaton, bytes.Repeat([]byte{byte(i)}, 64))
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					// Same key ⇒ same content: racing writers are
					// byte-equivalent, so any winner is correct.
					s.Put(testKey(i), payload(i))
					if data, ok := s.Get(testKey(i)); ok {
						if _, err := unframe(KindAutomaton, data); err != nil {
							t.Errorf("read a torn frame for key %d: %v", i, err)
							return
						}
						if !bytes.Equal(data, payload(i)) {
							t.Errorf("key %d served wrong content", i)
							return
						}
					}
				}
			}
		}(stores[w])
	}
	wg.Wait()

	// Every store ends with every key readable.
	for wi, s := range stores {
		for i := 0; i < keys; i++ {
			data, ok := s.Get(testKey(i))
			if !ok || !bytes.Equal(data, payload(i)) {
				t.Fatalf("store %d: key %d unreadable after the race", wi, i)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindAutomaton: "automaton", KindAnalyze: "analyze",
		KindReduced: "reduced", KindFeasible: "feasible",
		KindStream: "stream", KindWeigh: "weigh",
		Kind(0): "unknown", Kind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
		if want != "unknown" && KindFromString(want) != k {
			t.Errorf("KindFromString(%q) = %d, want %d", want, KindFromString(want), k)
		}
	}
	// Stages that are not persisted have no kind: a file an older binary
	// left for one names no kind.
	for _, s := range []string{"trace", "select", "baseline", "translate", "unknown", ""} {
		if k := KindFromString(s); k != 0 {
			t.Errorf("KindFromString(%q) = %d, want 0", s, k)
		}
	}
}
