package engine

import (
	"container/list"
	"math"
	"sort"
	"sync"
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/liveness"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// The cache kinds: each names the artifact bundle a key identifies.
const (
	kindBaseline  = "baseline"  // OrigSol
	kindSelect    = "select"    // hot-path set
	kindAutomaton = "automaton" // qualification automaton
	kindTrace     = "trace"     // traced HPG
	kindAnalyze   = "analyze"   // Wegman-Zadek on the HPG
	kindTranslate = "translate" // training profile translated onto the HPG
	kindWeigh     = "weigh"     // reduction weights and their order
	kindReduced   = "reduced"   // reduced HPG + its solution
	kindFeasible  = "feasible"  // infeasible-edge set of one graph tier

	// Client-analysis bundles, one per graph tier and client (the
	// client's bit rides in knob2). Memory tier only: clients are cheap
	// to recompute relative to their encoded size, so no disk codec
	// exists for them.
	kindClientsCFG = "clients-cfg"
	kindClientsHPG = "clients-hpg"
	kindClientsRed = "clients-red"
)

// cacheKey identifies one artifact bundle with a Merkle-style per-stage
// key: slice fingerprints the input slice the stage reads directly from
// the function/profile (CFG shape, block bodies, per-block instruction
// counts, recording edges, the training profile — whichever apply),
// chain folds in the digests of the stage's upstream cache keys (or the
// hot-set fingerprint, which is output-addressed), and knob/knob2 carry
// swept parameters (CA, the hot prefix a CR selects, the client set).
// See the table above stageKeys for the exact composition of every
// stage's key.
//
// Because each key hashes only what its stage actually reads plus its
// upstream keys, an edit re-keys exactly the stages whose inputs (or
// ancestors) changed: a body-only edit leaves select, automaton and
// translate keyed as before — they replay from cache — while baseline
// and trace-onward recompute. Downstream of selection, the hot set is
// fingerprinted rather than the CA knob so explicitly chosen hot sets
// (AnalyzeFuncHot, the edge-selection ablation) share the same cache,
// and so two CA values selecting identical paths hit.
type cacheKey struct {
	kind  string
	slice uint64
	chain uint64
	knob  uint64 // the swept knob: math.Float64bits(CA) for select, the hot prefix k for reduce
	// knob2 is a second, independent knob dimension: the client's
	// ClientSet bit for client bundles (zero for the qualification
	// artifacts, which clients cannot influence).
	knob2 uint64
}

// digest collapses a key into the single word downstream stages chain.
// The kind participates so two stages with coincidentally equal
// fingerprints still chain distinctly.
func (k cacheKey) digest() uint64 {
	h := newFNV()
	h.str(k.kind)
	h.u64(k.slice)
	h.u64(k.chain)
	h.u64(k.knob)
	h.u64(k.knob2)
	return uint64(h)
}

// hash2 and hash3 combine independent fingerprints into one slice word.
func hash2(a, b uint64) uint64 {
	h := newFNV()
	h.u64(a)
	h.u64(b)
	return uint64(h)
}

func hash3(a, b, c uint64) uint64 {
	h := newFNV()
	h.u64(a)
	h.u64(b)
	h.u64(c)
	return uint64(h)
}

// Provenance says where a cached-stage artifact came from: computed
// fresh, served from the in-memory tier, or decoded from the disk tier.
type Provenance uint8

// The provenance values, in increasing distance from the CPU.
const (
	SourceComputed Provenance = iota
	SourceMemory
	SourceDisk
)

func (p Provenance) String() string {
	switch p {
	case SourceComputed:
		return "computed"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	}
	return "unknown"
}

// Cached reports whether the artifact was served from either cache tier.
func (p Provenance) Cached() bool { return p != SourceComputed }

// cacheEntry is one materialized bundle plus the compute cost of the
// stage run that produced it (so cache hits can still report meaningful
// stage durations). ready is closed once val/cost/err are final, giving
// single-flight semantics: concurrent requests for the same key block on
// the first computation instead of duplicating it.
type cacheEntry struct {
	ready chan struct{}
	val   any
	cost  time.Duration
	err   error

	// LRU bookkeeping: set under the cache mutex once the entry is
	// final. elem is nil while the leader is still computing (in-flight
	// entries are never evicted — waiters hold the pointer anyway).
	key  cacheKey
	size int64
	elem *list.Element
}

// CacheStats reports artifact-cache effectiveness across both tiers.
type CacheStats struct {
	// Hits and Misses count in-memory lookups (a disk hit is a memory
	// miss that was then satisfied by the disk tier).
	Hits, Misses int64
	// Entries and Bytes describe in-memory residency; Bytes is the
	// estimated footprint used by the memory bound.
	Entries int
	Bytes   int64
	// MemEvictions counts bundles dropped by the in-memory byte bound.
	MemEvictions int64
	// DiskEnabled reports whether a persistent tier is attached; Disk
	// holds its counters when it is.
	DiskEnabled bool
	Disk        diskcache.Stats
}

// Cache is the cross-run artifact cache: an in-memory single-flight map,
// optionally size-bounded, optionally backed by a persistent disk tier
// (memory first, disk second; disk hits are decoded once and promoted).
// All methods are safe for concurrent use by the scheduler's workers.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	hits    int64
	misses  int64

	// In-memory LRU byte bound; maxBytes <= 0 means unbounded.
	maxBytes  int64
	bytes     int64
	lru       *list.List // of *cacheEntry, front = least recently used
	evictions int64

	// disk is the persistent tier, or nil.
	disk *diskcache.Store

	// Fingerprint memos, keyed by identity: functions and profiles are
	// immutable once built, so hashing each at most once is sound.
	fnFP   *memo[cfg.Func, fnPrints]
	profFP *memo[bl.Profile, profPrints]
}

// fnPrints caches one function's slice fingerprints: the CFG shape, the
// per-block instruction counts, and the block bodies. Together the
// three slices cover the whole function (FingerprintFunc combines
// shape and body), so any edit moves at least one of them.
type fnPrints struct {
	shape  uint64
	counts uint64
	body   uint64
}

// profPrints caches one profile's fingerprints: the whole profile and
// its recording-edge set alone (the only part of the profile the
// automaton stage reads).
type profPrints struct {
	prof uint64
	rec  uint64
}

// newCache returns a cache with an in-memory byte bound (<= 0 means
// unbounded) and an optional persistent tier.
func newCache(maxBytes int64, disk *diskcache.Store) *Cache {
	return &Cache{
		entries:  map[cacheKey]*cacheEntry{},
		maxBytes: maxBytes,
		lru:      list.New(),
		disk:     disk,
		fnFP:     newMemo[cfg.Func, fnPrints](),
		profFP:   newMemo[bl.Profile, profPrints](),
	}
}

// Stats returns a snapshot of both tiers' counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	s := CacheStats{
		Hits:         c.hits,
		Misses:       c.misses,
		Entries:      len(c.entries),
		Bytes:        c.bytes,
		MemEvictions: c.evictions,
	}
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		s.DiskEnabled = true
		s.Disk = disk.Stats()
	}
	return s
}

// diskOps carries the persistent-tier plumbing for one cache key: where
// to look, how to encode a computed bundle, and how to decode a stored
// one back into live artifacts. The decode closure captures the live
// objects (function graph, recording-edge set, HPG) the bundle must be
// attached to, so revived artifacts point at the same structures a fresh
// compute would.
type diskOps struct {
	key    diskcache.Key
	encode func(val any, cost time.Duration) []byte
	decode func(data []byte) (any, time.Duration, error)
}

// do returns the cached bundle for key: memory first, then disk (when
// ops is non-nil), then compute. The first request is the leader;
// concurrent callers wait for it, so a disk entry is decoded at most
// once per process and a bundle computed at most once (single-flight).
// Computed bundles are written through to disk; disk payloads that fail
// to decode are rejected (deleted) and silently recomputed. Failed
// computations are evicted so a later retry — for example after a
// cancelled context — can succeed.
//
// The returned decode duration is nonzero only for the leader of a
// disk hit: the wall-clock cost of decoding the payload, reported
// separately from the bundle's stored compute cost so incremental
// replay numbers never conflate decode time with stage compute time.
func (c *Cache) do(key cacheKey, ops *diskOps, compute func() (any, time.Duration, error)) (any, time.Duration, Provenance, time.Duration, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToBack(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, 0, SourceComputed, 0, e.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return e.val, e.cost, SourceMemory, 0, nil
	}
	e := &cacheEntry{ready: make(chan struct{}), key: key}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	prov := SourceComputed
	var decodeTime time.Duration
	if c.disk != nil && ops != nil {
		if data, ok := c.disk.Get(ops.key); ok {
			t0 := time.Now()
			val, cost, err := ops.decode(data)
			if err == nil {
				decodeTime = time.Since(t0)
				c.disk.Hit(decodeTime)
				e.val, e.cost = val, cost
				prov = SourceDisk
			} else {
				// Corrupt, truncated or version-skewed: a miss, never an
				// error. The recompute below rewrites the entry.
				c.disk.Reject(ops.key)
			}
		}
	}
	if prov == SourceComputed {
		e.val, e.cost, e.err = compute()
	}
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		return nil, 0, SourceComputed, 0, e.err
	}
	if c.disk != nil && ops != nil && prov == SourceComputed {
		c.disk.Put(ops.key, ops.encode(e.val, e.cost))
	}

	c.mu.Lock()
	e.size = approxSize(e.val)
	e.elem = c.lru.PushBack(e)
	c.bytes += e.size
	c.evictMemoryLocked()
	c.mu.Unlock()
	return e.val, e.cost, prov, decodeTime, nil
}

// evictMemoryLocked drops least-recently-used completed entries until
// the in-memory byte bound is met. Dropped bundles remain on disk (when
// a persistent tier is attached), so re-requests decode instead of
// recomputing. Eviction is safe under waiters: they hold the entry
// pointer directly.
func (c *Cache) evictMemoryLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && c.lru.Len() > 0 {
		e := c.lru.Front().Value.(*cacheEntry)
		c.lru.Remove(e.elem)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// --- In-memory footprint estimation ---------------------------------------

// approxSize estimates the resident bytes of a cached bundle — not
// exact, but proportional, which is all the LRU bound needs.
func approxSize(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case []bl.Path:
		n := int64(48)
		for _, p := range x {
			n += 32 + int64(len(p.Edges))*8
		}
		return n
	case *constprop.Result:
		return sizeSolution(x)
	case *automaton.Automaton:
		return int64(x.NumStates()) * 64 // trie maps, accept/depth arrays
	case *trace.HPG:
		n := sizeGraph(x.G)
		n += int64(len(x.OrigNode))*8 + int64(len(x.State))*4 + int64(len(x.OrigEdge))*8
		n += int64(len(x.Recording)) * 16
		return n
	case *bl.Profile:
		return sizeProfile(x)
	case *feasible.Edges:
		return 48 + int64(len(x.Infeasible))
	case *liveness.Result:
		return 128 + int64(len(x.Sol.Reached)+len(x.Sol.EdgeExecutable)) + int64(x.Rows.Words*len(x.Sol.Reached))*8
	case *availexpr.Result:
		// The expression universe is shared across tiers; charge a
		// nominal per-bundle share rather than its full footprint.
		return 128 + int64(len(x.Sol.Reached)+len(x.Sol.EdgeExecutable)) + int64(x.Rows.Words*len(x.Sol.Reached)+x.U.Size())*8
	case *reduce.Weights:
		// A computed weighing carries the HPG's prepared blocks. A
		// decoded one gets them at its first Partition, after it is
		// charged here, so its blocks go uncounted.
		return 48 + int64(len(x.W))*8 + int64(len(x.Order))*4 + x.PreparedBytes()
	case ReduceOut:
		// Red.Hot and Red.Weights share the weigh bundle's arrays.
		n := sizeGraph(x.Red.G) + sizeSolution(x.RedSol)
		n += int64(len(x.Red.Class))*8 + int64(len(x.Red.Rep))*8 + int64(len(x.Red.OrigNode))*8
		n += int64(len(x.Red.OrigEdge))*8 + int64(len(x.Red.Recording))*16
		if x.FeasRed != nil {
			n += 48 + int64(len(x.FeasRed.Infeasible))
		}
		for _, m := range x.Red.Members {
			n += 24 + int64(len(m))*8
		}
		return n
	}
	return 256
}

// sizeGraph charges a hot path graph or a reduction: its node slab
// (120 B a node with its pointer), edge slab (32 B an edge with its
// pointer), in/out-list arena and names. Its blocks are the original
// function's (cfg.Node.Instrs), which no cached bundle owns, so a tier
// pays for their slice headers alone, inside the node slab.
func sizeGraph(g *cfg.Graph) int64 {
	n := int64(96) + int64(len(g.Name))
	for _, nd := range g.Nodes {
		n += 120 + int64(len(nd.Name)) + int64(len(nd.Out)+len(nd.In))*4
	}
	n += int64(len(g.Edges)) * 32
	return n
}

// sizeSolution charges a constant-propagation solution's rows, its
// column map (shared by every tier of a function, so counted once per
// solution) and the whole-environment rows EnvAt keeps once called.
func sizeSolution(r *constprop.Result) int64 {
	if r == nil {
		return 0
	}
	return int64(96) + int64(len(r.Sol.Reached)) + int64(len(r.Sol.EdgeExecutable)) +
		int64(len(r.Rows.Kind))*9 + int64(len(r.Cols.Regs)+len(r.Cols.Col))*4 + r.FullBytes()
}

func sizeProfile(p *bl.Profile) int64 {
	if p == nil {
		return 0
	}
	n := int64(96) + int64(len(p.FuncName)) + int64(len(p.R))*16
	for k, e := range p.Entries {
		n += 64 + int64(len(k)) + int64(len(e.Path.Edges))*8
	}
	return n
}

// --- Fingerprints --------------------------------------------------------

// fnv1a64 accumulates a 64-bit FNV-1a hash.
type fnv1a64 uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newFNV() fnv1a64 { return fnvOffset64 }

func (h *fnv1a64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime64
		v >>= 8
	}
	*h = fnv1a64(x)
}

func (h *fnv1a64) i64(v int64)    { h.u64(uint64(v)) }
func (h *fnv1a64) int(v int)      { h.u64(uint64(int64(v))) }
func (h *fnv1a64) str(s string)   { hashSeq(h, s) }
func (h *fnv1a64) bytes(b []byte) { hashSeq(h, b) }

// hashSeq hashes s's bytes followed by its length, so a string and its
// bytes hash alike.
func hashSeq[S string | []byte](h *fnv1a64, s S) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime64
	}
	*h = fnv1a64(x)
	h.int(len(s))
}

// funcFP returns (computing at most once) the slice fingerprints of fn.
func (c *Cache) funcFP(fn *cfg.Func) fnPrints {
	return c.fnFP.get(fn, func(fn *cfg.Func) fnPrints {
		return fnPrints{
			shape:  FingerprintShape(fn),
			counts: FingerprintCounts(fn),
			body:   FingerprintBody(fn),
		}
	})
}

// profileFP returns (computing at most once) the fingerprints of a
// training profile: the whole profile (function name, recording edges,
// every (path, count) entry, order-independently) and the recording
// set alone.
func (c *Cache) profileFP(pr *bl.Profile) profPrints {
	if pr == nil {
		return profPrints{}
	}
	return c.profFP.get(pr, func(pr *bl.Profile) profPrints {
		return profPrints{prof: FingerprintProfile(pr), rec: FingerprintRecording(pr.R)}
	})
}

// --- Per-stage Merkle keys -------------------------------------------------
//
// Each stage's key hashes exactly the input slice it reads plus the
// digests of its upstream stage keys, forming a Merkle-style dependency
// chain. The table:
//
//	stage      slice                    chain                 knob
//	baseline   shape + body             —                     —
//	select     shape + counts + prof    —                     CA
//	automaton  shape + recording        hot-set fingerprint   —
//	trace      shape + body             automaton key         —
//	analyze    —                        trace key             —
//	translate  shape + prof             automaton key         —
//	weigh      —                        analyze+translate     —
//	reduce     —                        weigh key             k
//	feasible   shape + body (CFG tier)  trace key (HPG tier)  —
//
// The client bundles of a tier key like the stage that produced the
// tier's constant-propagation solution, with the client's bit in knob2:
// the CFG tier reads shape + body, the HPG tier chains the analyze key
// and the reduced tier the reduce key.
//
// The Options.Feasible flag has no knob dimension of its own — it rides
// the Merkle chains instead. One rule (stageKeys.through) covers every
// masked solve: a stage that solves through a non-empty mask chains the
// tier's feasible key, so the masked baseline and CFG client bundles
// chain the CFG tier's and the masked analyze bundle the HPG tier's.
// Besides, the weigh key (and through it the reduce key and the reduced
// client bundles) folds the HPG tier's feasible key into its chain, so
// feasible-on and feasible-off runs can never collide on an artifact
// that differs.
//
// The reduce knob is k, the length of the weight-order prefix that CR
// makes hot (reduce.HotPrefix), not CR itself: CR reaches the reduction
// only through k, so every CR value selecting the same prefix shares one
// reduced bundle.
//
// The automaton chains the *hot-set fingerprint* rather than the select
// key: the hot set is the select stage's output, so addressing by it
// lets two CA values (or an explicit AnalyzeFuncHot set) that select
// identical paths share everything downstream — and lets a counts-only
// edit that happens to re-select the same hot set replay the whole
// qualification suffix. The trace slice includes block bodies because
// the HPG copies them into its nodes; the translate slice does not —
// an HPG's shape and edge numbering depend only on the CFG shape and
// the automaton, so a body-only edit replays translate from cache.

// stageKeys derives one invocation's cache keys: it holds the input
// slices, fingerprinted once when the invocation starts, and
// invocation.run derives each stage key once from its parents' keys, so
// no key rebuilds its ancestors. The zero value, used by an engine
// without a cache, derives nothing: every key it returns is the zero
// key, which cached reads as "compute, do not cache".
type stageKeys struct {
	on        bool
	whole     uint64 // shape + body
	sel       uint64 // shape + counts + prof
	auto      uint64 // shape + recording
	translate uint64 // shape + prof
}

// keys returns the key deriver of one invocation on fn and train: the
// zero stageKeys when c is nil (the engine does not cache).
func (c *Cache) keys(fn *cfg.Func, train *bl.Profile) stageKeys {
	if c == nil {
		return stageKeys{}
	}
	f, p := c.funcFP(fn), c.profileFP(train)
	return stageKeys{
		on:        true,
		whole:     hash2(f.shape, f.body),
		sel:       hash3(f.shape, f.counts, p.prof),
		auto:      hash2(f.shape, p.rec),
		translate: hash2(f.shape, p.prof),
	}
}

// key returns the key of a stage of kind that reads slice and chains
// the digests of its parents' keys, folded in order. A zero parent
// after the first — a stage this run skipped, such as the HPG tier's
// feasibility stage without Options.Feasible — is left out.
func (s stageKeys) key(kind string, slice uint64, parents ...cacheKey) cacheKey {
	if !s.on {
		return cacheKey{}
	}
	k := cacheKey{kind: kind, slice: slice}
	for i, p := range parents {
		switch {
		case i == 0:
			k.chain = p.digest()
		case p.kind != "":
			k.chain = hash2(k.chain, p.digest())
		}
	}
	return k
}

// automaton keys the automaton stage, which chains the hot-set
// fingerprint rather than a parent key.
func (s stageKeys) automaton(hot []bl.Path) cacheKey {
	k := s.key(kindAutomaton, s.auto)
	if s.on {
		k.chain = FingerprintHot(hot)
	}
	return k
}

// through is the key of a solve through feas, whose own key is mask: a
// non-empty mask changes the solution, so the key chains mask in place
// of k's chain (mask's chain already covers the graph the solve reads).
// An empty mask produces the unmasked solution, so those runs
// deliberately share the unmasked bundle k.
func (s stageKeys) through(k cacheKey, feas *feasible.Edges, mask cacheKey) cacheKey {
	if feas.Mask() == nil {
		return k
	}
	return s.key(k.kind, k.slice, mask)
}

// FingerprintFunc hashes the full structure of a function: CFG shape,
// instructions, terminators and register names. Two functions with the
// same fingerprint produce identical pipeline artifacts. It is the
// combination of the shape and body slices — the per-stage cache keys
// hash only the slice(s) a stage actually reads, so an edit that moves
// FingerprintFunc may still leave some stage keys (and their cached
// artifacts) intact.
func FingerprintFunc(fn *cfg.Func) uint64 {
	return hash2(FingerprintShape(fn), FingerprintBody(fn))
}

// FingerprintShape hashes the CFG shape slice: the function name, the
// entry/exit vertices, every node's ID, name and terminator kind, and
// every edge with its successor slot — but no instruction bodies, no
// terminator operands and no register names. The shape determines the
// Ball-Larus edge numbering, path keys, and the node/edge structure of
// every derived graph (HPG node names copy original node names, so
// names are shape).
func FingerprintShape(fn *cfg.Func) uint64 {
	h := newFNV()
	h.str(fn.Name)
	g := fn.G
	h.int(int(g.Entry))
	h.int(int(g.Exit))
	h.int(len(g.Nodes))
	for _, nd := range g.Nodes {
		h.int(int(nd.ID))
		h.str(nd.Name)
		h.u64(uint64(nd.Kind))
	}
	h.int(len(g.Edges))
	for _, e := range g.Edges {
		h.int(int(e.From))
		h.int(int(e.To))
		h.int(e.Slot)
	}
	return uint64(h)
}

// FingerprintCounts hashes the per-block instruction counts — the only
// part of the block bodies hot-path selection reads (a path's dynamic
// weight is frequency × instructions along it). A constant tweak
// inside a block leaves counts unchanged; inserting or deleting an
// instruction moves them.
func FingerprintCounts(fn *cfg.Func) uint64 {
	h := newFNV()
	h.int(len(fn.G.Nodes))
	for _, nd := range fn.G.Nodes {
		h.int(len(nd.Instrs))
	}
	return uint64(h)
}

// FingerprintBody hashes the block-body slice: register names and
// parameters, every instruction, and the terminator operands — the
// contents the shape slice deliberately omits. Shape + body together
// cover the whole function.
func FingerprintBody(fn *cfg.Func) uint64 {
	h := newFNV()
	h.int(len(fn.Params))
	for _, p := range fn.Params {
		h.i64(int64(p))
	}
	h.int(len(fn.VarNames))
	for _, n := range fn.VarNames {
		h.str(n)
	}
	h.int(len(fn.G.Nodes))
	for _, nd := range fn.G.Nodes {
		h.i64(int64(nd.Cond))
		h.i64(int64(nd.Ret))
		h.int(len(nd.Instrs))
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			h.u64(uint64(in.Op))
			h.i64(int64(in.Dst))
			h.i64(int64(in.A))
			h.i64(int64(in.B))
			h.i64(int64(in.K))
			h.str(in.Callee)
			h.int(len(in.Args))
			for _, a := range in.Args {
				h.i64(int64(a))
			}
		}
	}
	return uint64(h)
}

// FingerprintRecording hashes a recording-edge set, order-independently
// — the only slice of the training profile the automaton stage reads
// (its keywords come from the hot set, which is chained separately).
func FingerprintRecording(R map[cfg.EdgeID]bool) uint64 {
	h := newFNV()
	redges := make([]int, 0, len(R))
	for e, on := range R {
		if on {
			redges = append(redges, int(e))
		}
	}
	sort.Ints(redges)
	h.int(len(redges))
	for _, e := range redges {
		h.int(e)
	}
	return uint64(h)
}

// FingerprintProfile hashes a Ball-Larus profile: recording edges plus
// every (path key, count) pair, independent of map iteration order.
func FingerprintProfile(pr *bl.Profile) uint64 {
	h := newFNV()
	h.str(pr.FuncName)
	redges := make([]int, 0, len(pr.R))
	for e, on := range pr.R {
		if on {
			redges = append(redges, int(e))
		}
	}
	sort.Ints(redges)
	for _, e := range redges {
		h.int(e)
	}
	keys := make([]string, 0, len(pr.Entries))
	for k := range pr.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.int(len(keys))
	for _, k := range keys {
		h.str(k)
		h.i64(pr.Entries[k].Count)
	}
	return uint64(h)
}

// FingerprintHot hashes an ordered hot-path set: each path's Key, built
// in one reused buffer.
func FingerprintHot(hot []bl.Path) uint64 {
	h := newFNV()
	h.int(len(hot))
	var buf []byte
	for _, p := range hot {
		buf = p.AppendKey(buf[:0])
		h.bytes(buf)
	}
	return uint64(h)
}

func knobBits(v float64) uint64 { return math.Float64bits(v) }
