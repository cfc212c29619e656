package diskcache

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// Key identifies one bundle in the store: the artifact kind plus the
// engine's Merkle-style stage key. Slice fingerprints the input slice
// the stage actually reads (block bodies, CFG shape, recording edges,
// per-block counts — whichever apply); Chain folds in the digests of
// the stage's upstream cache keys, so a change anywhere upstream
// re-keys every dependent bundle; Knob carries the stage's swept
// parameter bits (CA or CR). Identical keys name identical content
// (the pipeline is a pure function of the fingerprints), so concurrent
// writers racing on one key are harmless — last rename wins and both
// payloads are equivalent.
type Key struct {
	Kind               Kind
	Slice, Chain, Knob uint64
}

// filename renders the key as the bundle's file name. The kind appears
// both in the name and in the frame header, so a renamed file still
// fails closed at decode time.
func (k Key) filename() string {
	return fmt.Sprintf("%s-%016x%016x%016x%s", k.Kind, k.Slice, k.Chain, k.Knob, fileSuffix)
}

const (
	fileSuffix = ".pfac"
	tmpSuffix  = ".tmp"
)

// bundleNamePat matches well-formed bundle file names: a known kind
// prefix, the three 16-hex-digit key fingerprints, and the suffix.
// ReadBundle takes names from its caller (a directory listing, in
// practice), so anything that does not match is rejected before it can
// name a path outside the store.
var bundleNamePat = regexp.MustCompile(`^([a-z]+)-[0-9a-f]{48}\.pfac$`)

// ValidBundleName reports whether name is a well-formed bundle file name
// with a known kind prefix, and returns that kind.
func ValidBundleName(name string) (Kind, bool) {
	m := bundleNamePat.FindStringSubmatch(name)
	if m == nil {
		return 0, false
	}
	k := KindFromString(m[1])
	return k, k != 0
}

// BucketBounds are the time-histogram upper bounds in seconds: decades
// from a microsecond (baseline on a tiny function) to ten seconds
// (trace/reduce on go at full coverage). The decode-time histogram here
// and the serving layer's stage histograms both use them, so the two
// are comparable on one dashboard.
var BucketBounds = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts lookups whose payload decoded into a usable artifact.
	Hits int64
	// Misses counts lookups that found no file, an unreadable file, or a
	// payload the caller rejected as corrupt (Rejects ⊆ Misses).
	Misses int64
	// Rejects counts payloads read successfully but rejected at decode
	// time (truncation, bit flips, version skew); the file is deleted.
	Rejects int64
	// Writes counts bundles persisted.
	Writes int64
	// Evictions counts bundles removed by the size bound.
	Evictions int64
	// Entries and Bytes describe current residency.
	Entries int
	Bytes   int64
	// Decode-time histogram over disk hits (seconds, cumulative counts
	// per BucketBounds entry).
	DecodeCount   int64
	DecodeSum     float64
	DecodeBuckets [len(BucketBounds)]int64
}

// entry is one resident bundle.
type entry struct {
	name string
	size int64
	elem *list.Element // position in the LRU list (front = oldest)
}

// Store is the on-disk artifact store: one file per bundle, atomic
// O_EXCL-temp + rename writes, and a size-bounded LRU. All methods are
// safe for concurrent use; cross-process sharing of one directory is
// safe because writes are atomic renames and readers fall back to the
// filesystem on index misses.
type Store struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // of *entry; front = least recently used
	bytes   int64
	seq     uint64

	hits, misses, rejects, writes, evictions int64
	decCount                                 int64
	decSum                                   float64
	decBuckets                               [len(BucketBounds)]int64
}

// Open opens (creating if needed) the store rooted at dir with the given
// byte budget. Pre-existing bundles are recovered into the LRU in
// modification-time order; leftover temp files and entries written by a
// different format version are deleted. maxBytes <= 0 disables the size
// bound.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: open %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  map[string]*entry{},
		lru:      list.New(),
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: open %s: %w", dir, err)
	}
	type found struct {
		name  string
		size  int64
		mtime time.Time
	}
	var survivors []found
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// A crashed writer's temp file; the rename never happened.
			os.Remove(path)
		case strings.HasSuffix(name, fileSuffix):
			info, err := de.Info()
			if err != nil {
				continue
			}
			if !recoverable(path, info.Size()) {
				// Wrong magic or a different format version: a stale
				// binary's entry that can only ever decode as a miss.
				os.Remove(path)
				continue
			}
			survivors = append(survivors, found{name: name, size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(survivors, func(i, j int) bool {
		if !survivors[i].mtime.Equal(survivors[j].mtime) {
			return survivors[i].mtime.Before(survivors[j].mtime)
		}
		return survivors[i].name < survivors[j].name
	})
	for _, f := range survivors {
		e := &entry{name: f.name, size: f.size}
		e.elem = s.lru.PushBack(e)
		s.entries[f.name] = e
		s.bytes += f.size
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// recoverable reports whether a file has this version's frame header.
// Only the header is checked at open — full checksum validation happens
// lazily at first Get, keeping recovery O(entries) cheap.
func recoverable(path string, size int64) bool {
	if size < int64(headerLen+checksumLen) {
		return false
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [headerLen]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return false
	}
	return [4]byte(hdr[:4]) == magic && hdr[4] == FormatVersion
}

// Get returns the framed payload stored under k, or (nil, false) on a
// miss. A successful Get is not yet a hit: the caller decodes the
// payload and reports the outcome via Hit or Reject, so the hit counter
// only counts payloads that produced usable artifacts.
func (s *Store) Get(k Key) ([]byte, bool) {
	name := k.filename()
	path := filepath.Join(s.dir, name)

	s.mu.Lock()
	e, ok := s.entries[name]
	if ok {
		s.lru.MoveToBack(e.elem)
	}
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		if e, ok := s.entries[name]; ok {
			// Indexed but gone on disk (another process evicted it).
			s.dropLocked(e)
		}
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	if !ok {
		// Filesystem fallback: another process wrote this bundle after we
		// opened the directory. Adopt it into the index.
		s.adoptEntry(name, int64(len(data)))
	}
	return data, true
}

// adoptEntry indexes a bundle that appeared on disk outside Put (a
// sibling process's write).
func (s *Store) adoptEntry(name string, size int64) {
	s.mu.Lock()
	if _, dup := s.entries[name]; !dup {
		e := &entry{name: name, size: size}
		e.elem = s.lru.PushBack(e)
		s.entries[name] = e
		s.bytes += e.size
		s.evictLocked()
	}
	s.mu.Unlock()
}

// Hit records a successful decode of a Get payload and its decode time.
func (s *Store) Hit(decode time.Duration) {
	sec := decode.Seconds()
	s.mu.Lock()
	s.hits++
	s.decCount++
	s.decSum += sec
	for i, ub := range BucketBounds {
		if sec <= ub {
			s.decBuckets[i]++
		}
	}
	s.mu.Unlock()
}

// Reject records that a Get payload failed to decode: the entry is
// deleted so the recompute's Put rewrites it, and the lookup is
// accounted as a miss.
func (s *Store) Reject(k Key) {
	name := k.filename()
	s.mu.Lock()
	s.rejects++
	s.misses++
	if e, ok := s.entries[name]; ok {
		s.dropLocked(e)
	}
	s.mu.Unlock()
	os.Remove(filepath.Join(s.dir, name))
}

// Put persists a framed payload under k: written to an O_EXCL temp file
// (unique per process and call, so concurrent writers never share a
// partial file) and renamed into place atomically. Write failures are
// swallowed — the store is a cache, losing a write only costs a future
// recompute.
func (s *Store) Put(k Key, data []byte) {
	name := k.filename()
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()

	tmp := filepath.Join(s.dir, fmt.Sprintf("%s.%d.%d%s", name, os.Getpid(), seq, tmpSuffix))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return
	}

	s.mu.Lock()
	s.writes++
	if e, ok := s.entries[name]; ok {
		// Replaced an existing bundle (same key ⇒ equivalent content).
		s.bytes += int64(len(data)) - e.size
		e.size = int64(len(data))
		s.lru.MoveToBack(e.elem)
	} else {
		e := &entry{name: name, size: int64(len(data))}
		e.elem = s.lru.PushBack(e)
		s.entries[name] = e
		s.bytes += e.size
	}
	s.evictLocked()
	s.mu.Unlock()
}

// ReadBundle returns the raw frame stored under a bundle file name, for
// callers that walk the directory (perfbench's disk-read probe). Unlike
// Get it does not count a miss — it describes what this store has, not
// what an analysis needed. Malformed names are rejected without touching
// the filesystem.
func (s *Store) ReadBundle(name string) ([]byte, bool) {
	if _, ok := ValidBundleName(name); !ok {
		return nil, false
	}
	s.mu.Lock()
	if e, ok := s.entries[name]; ok {
		s.lru.MoveToBack(e.elem)
	}
	s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, false
	}
	s.adoptEntry(name, int64(len(data)))
	return data, true
}

// dropLocked removes e from the index without touching the filesystem.
func (s *Store) dropLocked(e *entry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.name)
	s.bytes -= e.size
}

// evictLocked deletes least-recently-used bundles until the byte budget
// is met. The newest entry is evictable too: a single bundle larger than
// the whole budget is not kept.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.lru.Len() > 0 {
		e := s.lru.Front().Value.(*entry)
		s.dropLocked(e)
		s.evictions++
		os.Remove(filepath.Join(s.dir, e.name))
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          s.hits,
		Misses:        s.misses,
		Rejects:       s.rejects,
		Writes:        s.writes,
		Evictions:     s.evictions,
		Entries:       len(s.entries),
		Bytes:         s.bytes,
		DecodeCount:   s.decCount,
		DecodeSum:     s.decSum,
		DecodeBuckets: s.decBuckets,
	}
}
