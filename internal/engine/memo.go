//go:build go1.24

package engine

import (
	"sync"
	"weak"
)

// memo maps an object to a value computed from it once, for as long as
// the object lives. Keys are weak pointers, so a memo never keeps a
// recompiled function or a superseded profile alive, and an insert that
// doubles the map first drops the entries whose objects are gone. There
// are no per-object cleanups: the objects outlive many memos (a sweep
// builds a fresh engine per pass over the same programs), and a cleanup
// per memo per object would pile up on them.
type memo[K, V any] struct {
	mu    sync.Mutex
	m     map[weak.Pointer[K]]V
	prune int // map size at which the next insert drops dead keys
}

func newMemo[K, V any]() *memo[K, V] {
	return &memo[K, V]{m: map[weak.Pointer[K]]V{}}
}

// get returns the value memoized for k, computing it outside the lock on
// a miss.
func (m *memo[K, V]) get(k *K, compute func(*K) V) V {
	w := weak.Make(k)
	m.mu.Lock()
	v, ok := m.m[w]
	m.mu.Unlock()
	if ok {
		return v
	}
	v = compute(k)
	m.mu.Lock()
	if len(m.m) >= m.prune {
		for w := range m.m {
			if w.Value() == nil {
				delete(m.m, w)
			}
		}
		m.prune = max(2*len(m.m), 64)
	}
	m.m[w] = v
	m.mu.Unlock()
	return v
}
