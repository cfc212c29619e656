package diskcache

import (
	"errors"
	"testing"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/profile/stream"
)

const streamTestSrc = `
func helper(k) {
	if (k % 2 == 0) { s = 4; } else { s = 5; }
	return k * s;
}
func main() {
	n = arg(0);
	i = 0;
	t = 0;
	while (i < n) {
		t = t + helper(i);
		i = i + 1;
	}
	print(t);
}
`

// streamTestSet compiles and profiles a small program, then grows a
// stream set with one streamed delta per executed path, an epoch bump,
// and seq state from two sources — every field class the codec frames.
func streamTestSet(t *testing.T) (*cfg.Program, *stream.Set) {
	t.Helper()
	prog, err := lang.Compile(streamTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := bl.ProfileProgram(prog, interp.Options{Args: []ir.Value{9}})
	if err != nil {
		t.Fatal(err)
	}
	set := stream.NewSet(prog, train)
	seq := uint64(0)
	for _, name := range prog.Order {
		pr := train.Funcs[name]
		if pr == nil || len(pr.Entries) == 0 {
			continue
		}
		for k := range pr.Entries {
			seq++
			src := "agent-a"
			if seq%2 == 0 {
				src = "agent-b"
			}
			b := &stream.Batch{Source: src, Funcs: []stream.FuncDelta{
				{Func: name, Seq: seq, Paths: []stream.PathDelta{{Path: k, Count: int64(seq * 17)}}},
			}}
			if _, err := set.Apply(b); err != nil {
				t.Fatalf("apply for %s: %v", name, err)
			}
		}
	}
	set.Decay()
	return prog, set
}

func TestStreamCodecRoundTrip(t *testing.T) {
	prog, set := streamTestSet(t)
	data := EncodeStream(Meta{}, set.Snapshot())
	_, restored, err := DecodeStream(data, prog)
	if err != nil {
		t.Fatalf("DecodeStream: %v", err)
	}
	for _, name := range prog.Order {
		if !restored.Accumulator(name).Equal(set.Accumulator(name)) {
			t.Fatalf("func %s: restored accumulator differs", name)
		}
	}
	if restored.Epoch() != set.Epoch() {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), set.Epoch())
	}
	// Live profiles must materialize identically too.
	live, back := set.Profile(), restored.Profile()
	for _, name := range prog.Order {
		a, b := live.Funcs[name], back.Funcs[name]
		if (a == nil) != (b == nil) {
			t.Fatalf("func %s: profile presence differs after restore", name)
		}
		if a == nil {
			continue
		}
		if len(a.Entries) != len(b.Entries) {
			t.Fatalf("func %s: %d entries restored, want %d", name, len(b.Entries), len(a.Entries))
		}
		for k, e := range a.Entries {
			if be := b.Entries[k]; be == nil || be.Count != e.Count {
				t.Fatalf("func %s path %s: restored %+v, want count %d", name, k, be, e.Count)
			}
		}
	}
}

// TestStreamCodecRejectsEveryDefect walks the same defect classes the
// bundle codecs are tested against: every mutation must decode as an
// error (a miss), never a panic or a silently wrong set.
func TestStreamCodecRejectsEveryDefect(t *testing.T) {
	prog, set := streamTestSet(t)
	good := EncodeStream(Meta{}, set.Snapshot())
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-header", func(b []byte) []byte { return b[:headerLen-1] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"future-version", func(b []byte) []byte { b[4] = FormatVersion + 1; return b }},
		{"wrong-kind", func(b []byte) []byte { b[5] = byte(KindSelect); return b }},
		{"payload-flip", func(b []byte) []byte { b[headerLen+1] ^= 0x40; return b }},
		{"checksum-flip", func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xaa) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			if _, _, err := DecodeStream(b, prog); err == nil {
				t.Fatal("corrupt stream snapshot decoded")
			}
		})
	}
}

// TestStreamCodecRejectsForeignProgram: a well-framed snapshot written
// for a different program fails restore as ErrCorrupt, so the serving
// layer reseeds from the training profile instead of loading skewed
// state.
func TestStreamCodecRejectsForeignProgram(t *testing.T) {
	_, set := streamTestSet(t)
	other, err := lang.Compile(`func main() { print(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeStream(Meta{}, set.Snapshot())
	if _, _, err := DecodeStream(data, other); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestKindStreamRegistered(t *testing.T) {
	if KindStream.String() != "stream" {
		t.Fatalf("KindStream.String() = %q", KindStream.String())
	}
	if KindFromString("stream") != KindStream {
		t.Fatal("KindFromString does not know stream")
	}
	if _, err := unframe(KindStream, EncodeStream(Meta{}, &stream.SetSnapshot{})); err != nil {
		t.Fatalf("unframe(KindStream): %v", err)
	}
}
