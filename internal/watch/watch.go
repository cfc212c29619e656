// Package watch implements `pathflow watch`: continuous re-analysis of
// a source file under edit. A poll-based content watcher (no OS watcher
// dependency — hashing a handful of files every few hundred ms is
// cheap and portable) detects changes to the source and the optional
// saved-profile file; each change triggers the same incremental
// machinery as `analyze -baseline` — the program re-analyzes on the
// warm cache, engine.DiffPrograms classifies every function's edit, and
// the runner streams per-function replay/recompute events so the caller
// sees exactly what the edit cost.
package watch

import (
	"hash/fnv"
	"os"
	"sort"
)

// Poller watches a set of files by content hash. NewPoller records the
// initial state; Poll reports which files changed since the previous
// call (content edits, deletions and re-creations all count — the hash
// of an unreadable file is 0, distinct from any content hash).
type Poller struct {
	paths  []string
	hashes map[string]uint64
}

// NewPoller watches paths, taking their current content as baseline.
func NewPoller(paths ...string) *Poller {
	p := &Poller{paths: paths, hashes: make(map[string]uint64, len(paths))}
	for _, path := range paths {
		p.hashes[path] = hashFile(path)
	}
	return p
}

// Poll rehashes every watched file and returns the paths whose content
// changed since the last observation, sorted.
func (p *Poller) Poll() []string {
	var changed []string
	for _, path := range p.paths {
		h := hashFile(path)
		if h != p.hashes[path] {
			p.hashes[path] = h
			changed = append(changed, path)
		}
	}
	sort.Strings(changed)
	return changed
}

func hashFile(path string) uint64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(data) //nolint:errcheck // fnv never fails
	return h.Sum64()
}
