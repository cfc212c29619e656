// Package diskcache is the persistent tier of the engine's artifact
// cache: a content-addressed, size-bounded, crash-safe store of pipeline
// bundles keyed by the engine's (function, profile, hot-set, knob)
// fingerprints.
//
// The package has three layers:
//
//   - codec.go:     a compact versioned binary codec (varint fields and
//     raw byte columns, a fixed header with a format-version byte, and
//     a trailing CRC-32C checksum). Any framing defect — bad magic,
//     unknown version, kind mismatch, truncation, bit flips — is
//     reported as ErrCorrupt and treated by the store as a miss, never
//     as an error. A cache file is untrusted input: other processes
//     share the directory, older binaries leave their formats behind,
//     and disks rot. So the frame checksum and the decoders' length
//     bounds stay on every read, and FuzzDiskcacheCodec feeds them
//     arbitrary bytes.
//   - artifacts.go: encoders/decoders for the per-stage bundles the
//     engine persists (automata, HPG constant-propagation solutions
//     written as columns of their packed rows, reduction weights,
//     reductions stored as their partition and rebuilt by
//     reduce.Assemble, and feasibility masks), each
//     carrying the compute cost of the run that produced it so cache
//     hits still report meaningful durations. No bundle stores a graph:
//     the HPG is cheaper to rebuild with trace.Build than to decode, so
//     every HPG-tier bundle re-attaches to a rebuilt one.
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
	"hash/crc32"
)

// ErrCorrupt marks a payload that failed structural validation:
// truncated, bit-flipped, version-skewed, or semantically inconsistent.
// Callers treat it as a cache miss (silent recompute), never a failure.
var ErrCorrupt = errors.New("diskcache: corrupt or stale entry")

// Format constants. Version is bumped whenever any bundle encoding
// changes shape or meaning; readers reject every version but their own,
// so stale entries from older binaries decode as misses and are
// rewritten.
const (
	// FormatVersion is the current on-disk format version. Version 2
	// split the monolithic qualified bundle into per-stage bundles
	// (automaton/trace/analyze/translate), moved to Merkle-style
	// (slice, chain) keys, and added the Meta envelope. Version 3 drops
	// the delta class from Meta, which now holds per-stage costs only.
	// Version 4 writes solutions as columns (reached bits, kind bytes,
	// Const values, executable bits, iterations and pops), stores a
	// reduced bundle as its partition instead of its quotient graph, and
	// checksums frames with CRC-32C instead of FNV-64a. Version 5
	// replaces Meta's stage-name-keyed cost map with the one cost a
	// bundle ever carries. Version 6 keeps every encoding but changes
	// what a feasible run's reduced bundle holds: its solution is solved
	// through the HPG mask projected onto the quotient, not through a
	// mask detected on the quotient itself. Version 7 adds the weigh
	// bundle (one weight column per HPG) and drops the hot-vertex and
	// weight columns from the reduced bundle, which is now keyed by the
	// weighing and the hot prefix instead of CR. Version 8 drops the
	// trace bundle and renumbers the kinds after it: the HPG is rebuilt
	// by trace.Build, which takes less time than decoding it did, so a
	// v7 directory's trace files are orphans that Open deletes along
	// with every other v7 file. Version 9 drops the select, baseline
	// and translate bundles and renumbers the kinds: each read back for
	// more than its stage costs to recompute. Version 10 writes a
	// solution's rows one cell per non-local register (cfg.Columns)
	// instead of one per register, and the decoder rejects a width that
	// is not the function's column count.
	FormatVersion = 10

	headerLen   = 6 // magic(4) + version(1) + kind(1)
	checksumLen = 4
)

// castagnoli is the CRC-32C table behind the frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// magic identifies a pathflow artifact-cache file.
var magic = [4]byte{'P', 'F', 'A', 'C'}

// Kind identifies which bundle a payload carries; it is stored in the
// header so a file renamed across kinds still decodes as a miss.
type Kind uint8

// The bundle kinds, mirroring the engine's per-stage cache keys. Since
// format version 2 every persisted qualification stage has its own
// bundle (the old monolithic "qualified" bundle is gone), so an
// incremental re-analysis can replay exactly the stages an edit left
// clean. A stage persists only if reading its bundle costs less than
// recomputing it: the baseline, select, trace and translate stages and
// the client analyses have no kind and live in the engine's memory tier
// alone.
const (
	KindAutomaton Kind = iota + 1
	KindAnalyze
	KindReduced
	KindFeasible
	KindStream
	KindWeigh
)

// kindNames names each Kind; the name is also the bundle file-name
// prefix. Index 0 is no kind.
var kindNames = [...]string{
	KindAutomaton: "automaton",
	KindAnalyze:   "analyze",
	KindReduced:   "reduced",
	KindFeasible:  "feasible",
	KindStream:    "stream",
	KindWeigh:     "weigh",
}

func (k Kind) String() string {
	if k == 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// frame wraps a payload in the versioned envelope: header, payload,
// trailing checksum over everything before it.
func frame(kind Kind, payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload)+checksumLen)
	out = append(out, magic[:]...)
	out = append(out, FormatVersion, byte(kind))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
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
	if binary.LittleEndian.Uint32(sum) != crc32.Checksum(body, castagnoli) {
		return nil, ErrCorrupt
	}
	return body[headerLen:], nil
}

// KindFromString maps a bundle-kind name (the file-name prefix) back to
// its Kind, or 0 if unknown.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if k != 0 && name == s {
			return Kind(k)
		}
	}
	return 0
}

// --- Primitive writer -----------------------------------------------------

// enc accumulates the varint-encoded payload.
type enc struct{ b []byte }

func (e *enc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) int(v int)    { e.i64(int64(v)) }
func (e *enc) byte(v byte)  { e.b = append(e.b, v) }

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

// bits appends v as a bit column, eight entries per byte, low bit first.
func (e *enc) bits(v []bool) {
	var b byte
	for i, x := range v {
		if x {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			e.b = append(e.b, b)
			b = 0
		}
	}
	if len(v)%8 != 0 {
		e.b = append(e.b, b)
	}
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

func (d *dec) str() string { return string(d.raw(int(d.u64()))) }

// raw returns the next n payload bytes without copying them.
func (d *dec) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// bits reads an n-entry bit column; padding bits in its last byte must
// be zero, so every accepted column has one encoding.
func (d *dec) bits(n int) []bool {
	raw := d.raw((n + 7) / 8)
	if d.err != nil {
		return nil
	}
	if n%8 != 0 && raw[len(raw)-1]>>(n%8) != 0 {
		d.fail()
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = raw[i/8]>>(i%8)&1 != 0
	}
	return v
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
