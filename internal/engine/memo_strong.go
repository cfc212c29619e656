//go:build !go1.24

package engine

import "sync"

// memo maps an object to a value computed from it once. Before Go 1.24
// there are no weak pointers, so an entry keeps its object alive for as
// long as the memo lives (see memo.go for the weak form).
type memo[K, V any] struct {
	mu sync.Mutex
	m  map[*K]V
}

func newMemo[K, V any]() *memo[K, V] {
	return &memo[K, V]{m: map[*K]V{}}
}

// get returns the value memoized for k, computing it outside the lock on
// a miss.
func (m *memo[K, V]) get(k *K, compute func(*K) V) V {
	m.mu.Lock()
	v, ok := m.m[k]
	m.mu.Unlock()
	if ok {
		return v
	}
	v = compute(k)
	m.mu.Lock()
	m.m[k] = v
	m.mu.Unlock()
	return v
}
