// Package diskcache is the persistent tier of the engine's artifact
// cache: a content-addressed, size-bounded, crash-safe store of pipeline
// bundles keyed by the engine's (function, profile, hot-set, knob)
// fingerprints.
//
// The package has three layers:
//
//   - codec.go:     a compact versioned binary codec (varint fields, a
//     fixed header with a format-version byte, and a trailing FNV-64a
//     checksum). Any framing defect — bad magic, unknown version, kind
//     mismatch, truncation, bit flips — is reported as ErrCorrupt and
//     treated by the store as a miss, never as an error. A cache file is
//     untrusted input: other processes share the directory, older
//     binaries leave their formats behind, and disks rot. So the frame
//     checksum and the decoders' length bounds stay on every read, and
//     FuzzDiskcacheCodec feeds them arbitrary bytes.
//   - artifacts.go: encoders/decoders for the per-stage bundles the
//     engine caches (hot sets, automata, HPG graphs, data-flow
//     solutions, translated profiles, reduced graphs), each carrying
//     the per-stage compute costs of the run that produced it so cache
//     hits still report meaningful durations.
//   - store.go:     the on-disk store itself — one file per bundle,
//     atomic O_EXCL-temp + rename writes, a size-bounded LRU with
//     recovery of pre-existing entries at open, and hit/miss/evict/
//     decode-time statistics.
//
// The engine (internal/engine) layers its in-memory single-flight cache
// on top: memory first, disk second, with disk hits decoded exactly once
// per process and promoted into memory.
package diskcache

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
)

// ErrCorrupt marks a payload that failed structural validation:
// truncated, bit-flipped, version-skewed, or semantically inconsistent.
// Callers treat it as a cache miss (silent recompute), never a failure.
var ErrCorrupt = errors.New("diskcache: corrupt or stale entry")

// Format constants. Version is bumped whenever any bundle encoding
// changes shape; readers reject every version but their own, so stale
// entries from older binaries decode as misses and are rewritten.
const (
	// FormatVersion is the current on-disk format version. Version 2
	// split the monolithic qualified bundle into per-stage bundles
	// (automaton/trace/analyze/translate), moved to Merkle-style
	// (slice, chain) keys, and added the Meta envelope carrying the
	// delta class of the run that wrote each bundle.
	FormatVersion = 2

	headerLen   = 6 // magic(4) + version(1) + kind(1)
	checksumLen = 8
)

// magic identifies a pathflow artifact-cache file.
var magic = [4]byte{'P', 'F', 'A', 'C'}

// Kind identifies which bundle a payload carries; it is stored in the
// header so a file renamed across kinds still decodes as a miss.
type Kind uint8

// The bundle kinds, mirroring the engine's per-stage cache keys. Since
// format version 2 every qualification stage persists its own bundle
// (the old monolithic "qualified" bundle is gone), so an incremental
// re-analysis can replay exactly the stages an edit left clean.
const (
	KindBaseline Kind = iota + 1
	KindSelect
	KindAutomaton
	KindTrace
	KindAnalyze
	KindTranslate
	KindReduced
	KindFeasible
	KindStream
)

func (k Kind) String() string {
	switch k {
	case KindBaseline:
		return "baseline"
	case KindSelect:
		return "select"
	case KindAutomaton:
		return "automaton"
	case KindTrace:
		return "trace"
	case KindAnalyze:
		return "analyze"
	case KindTranslate:
		return "translate"
	case KindReduced:
		return "reduced"
	case KindFeasible:
		return "feasible"
	case KindStream:
		return "stream"
	}
	return "unknown"
}

// frame wraps a payload in the versioned envelope: header, payload,
// trailing checksum over everything before it.
func frame(kind Kind, payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload)+checksumLen)
	out = append(out, magic[:]...)
	out = append(out, FormatVersion, byte(kind))
	out = append(out, payload...)
	h := fnv.New64a()
	h.Write(out) //nolint:errcheck // fnv never fails
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// unframe validates the envelope and returns the payload. Every defect
// yields ErrCorrupt.
func unframe(kind Kind, data []byte) ([]byte, error) {
	if len(data) < headerLen+checksumLen {
		return nil, ErrCorrupt
	}
	if [4]byte(data[:4]) != magic || data[4] != FormatVersion || data[5] != byte(kind) {
		return nil, ErrCorrupt
	}
	body, sum := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	h := fnv.New64a()
	h.Write(body) //nolint:errcheck
	if binary.LittleEndian.Uint64(sum) != h.Sum64() {
		return nil, ErrCorrupt
	}
	return body[headerLen:], nil
}

// KindFromString maps a bundle-kind name (the file-name prefix) back to
// its Kind, or 0 if unknown.
func KindFromString(s string) Kind {
	for k := KindBaseline; k <= KindStream; k++ {
		if k.String() == s {
			return k
		}
	}
	return 0
}

// --- Primitive writer -----------------------------------------------------

// enc accumulates the varint-encoded payload.
type enc struct{ b []byte }

func (e *enc) u64(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) int(v int)     { e.i64(int64(v)) }
func (e *enc) byte(v byte)   { e.b = append(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// --- Primitive reader -----------------------------------------------------

// dec consumes a payload with sticky error semantics: after the first
// defect every read returns zero values and err stays ErrCorrupt, so
// decoders can be written straight-line and check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() { d.err = ErrCorrupt }

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) int() int { return int(d.i64()) }

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// sliceLen reads a length prefix and bounds-checks it against the
// remaining payload (each element needs at least one byte), defusing
// huge allocations from corrupt length fields.
func (d *dec) sliceLen() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return 0
	}
	return int(n)
}

// done checks that the payload was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return ErrCorrupt
	}
	return nil
}
