package bl

import (
	"fmt"
	"sort"
	"strings"

	"pathflow/internal/cfg"
)

// Profile is a Ball-Larus path profile for one function: a multiset of
// Ball-Larus paths (paper Definition 8).
type Profile struct {
	FuncName string
	R        map[cfg.EdgeID]bool
	Entries  map[string]*Entry // keyed by Path.Key()
}

// Entry is one path with its execution count.
type Entry struct {
	Path  Path
	Count int64
}

// NewProfile returns an empty profile for a function whose recording-edge
// set is R.
func NewProfile(name string, R map[cfg.EdgeID]bool) *Profile {
	return &Profile{FuncName: name, R: R, Entries: map[string]*Entry{}}
}

// Add records n more executions of path p.
func (pr *Profile) Add(p Path, n int64) {
	k := p.Key()
	if e, ok := pr.Entries[k]; ok {
		e.Count += n
		return
	}
	pr.Entries[k] = &Entry{Path: p, Count: n}
}

// NumPaths returns the number of distinct executed paths (the "Paths"
// column of the paper's Table 1).
func (pr *Profile) NumPaths() int { return len(pr.Entries) }

// TotalCount returns the total number of path traversals.
func (pr *Profile) TotalCount() int64 {
	var n int64
	for _, e := range pr.Entries {
		n += e.Count
	}
	return n
}

// DynInstrs returns the number of dynamic instructions the profile covers:
// Σ Count × NumInstrs(path). This matches the interpreter's dynamic
// instruction count for the run that produced the profile.
func (pr *Profile) DynInstrs(g *cfg.Graph) int64 {
	var n int64
	for _, e := range pr.Entries {
		n += e.Count * int64(e.Path.NumInstrs(g))
	}
	return n
}

// SortedEntries returns the entries ordered by descending dynamic
// instructions (count × length), breaking ties by path key — the order in
// which the paper's hot-path selection considers paths.
func (pr *Profile) SortedEntries(g *cfg.Graph) []*Entry {
	// Each entry is weighed once, and keyed by its map key, which is its
	// path's Key.
	type weighed struct {
		e   *Entry
		w   int64
		key string
	}
	ws := make([]weighed, 0, len(pr.Entries))
	for k, e := range pr.Entries {
		ws = append(ws, weighed{e, e.Count * int64(e.Path.NumInstrs(g)), k})
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].w != ws[j].w {
			return ws[i].w > ws[j].w
		}
		return ws[i].key < ws[j].key
	})
	es := make([]*Entry, len(ws))
	for i := range ws {
		es[i] = ws[i].e
	}
	return es
}

// Validate checks every entry against Definition 7.
func (pr *Profile) Validate(g *cfg.Graph) error {
	for _, e := range pr.Entries {
		if err := e.Path.Validate(g, pr.R); err != nil {
			return fmt.Errorf("profile of %s: %w", pr.FuncName, err)
		}
		if e.Count < 0 {
			return fmt.Errorf("profile of %s: negative count for %s", pr.FuncName, e.Path.Key())
		}
	}
	return nil
}

// Equal reports whether two profiles record the same multiset of paths.
func (pr *Profile) Equal(other *Profile) bool {
	if len(pr.Entries) != len(other.Entries) {
		return false
	}
	for k, e := range pr.Entries {
		o, ok := other.Entries[k]
		if !ok || o.Count != e.Count {
			return false
		}
	}
	return true
}

// String renders the profile sorted by count then key, one path per line.
func (pr *Profile) String(g *cfg.Graph) string {
	es := make([]*Entry, 0, len(pr.Entries))
	for _, e := range pr.Entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Count != es[j].Count {
			return es[i].Count > es[j].Count
		}
		return es[i].Path.Key() < es[j].Path.Key()
	})
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "%8d %s\n", e.Count, e.Path.String(g))
	}
	return b.String()
}

// ProgramProfile maps each function name to its path profile.
type ProgramProfile struct {
	Funcs map[string]*Profile
}

// NewProgramProfile returns an empty program profile.
func NewProgramProfile() *ProgramProfile {
	return &ProgramProfile{Funcs: map[string]*Profile{}}
}

// TotalPaths sums the distinct executed path counts over all functions.
func (pp *ProgramProfile) TotalPaths() int {
	n := 0
	for _, p := range pp.Funcs {
		n += p.NumPaths()
	}
	return n
}
