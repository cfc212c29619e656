package engine

import (
	"fmt"
	"sort"
)

// MemoryKeys lists every key resident in e's memory tier, one line per
// key (kind, slice, chain, knob, knob2), sorted.
func (e *Engine) MemoryKeys() []string {
	c := e.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, fmt.Sprintf("%s %016x %016x %016x %016x", k.kind, k.slice, k.chain, k.knob, k.knob2))
	}
	sort.Strings(out)
	return out
}
