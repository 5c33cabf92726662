package offnetrisk

import "sync"

// memo is the pipeline's one cache, the pull-CDN rule (compute on a miss,
// serve from cache) applied to the pipeline's own stages: each key's value
// is computed by its first successful call and returned, unchanged, to
// every later one. It holds final results only — each epoch's world and
// deployment and each experiment's result — never a stage's intermediates.
//
// Each key has its own lock, held while the key is computed, so concurrent
// callers of one key compute it once. No lock is held across keys: an
// experiment key computes while requesting its epoch's world key, and two
// different keys never wait on each other. A failed call is not cached, so
// a cancelled call leaves the key cold for the next one.
type memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
}

// memoKey names one cached value: a stage plus its argument (the epoch of a
// world, the hypergiant of a peering survey; 0 for the other experiments).
type memoKey struct {
	stage string
	arg   int
}

type memoEntry struct {
	mu   sync.Mutex // held while the value is computed
	done bool
	val  any
}

// cached returns the value under key, computing it with compute on a miss.
// Every caller shares the returned value and must treat it as read-only.
func cached[T any](m *memo, key memoKey, compute func() (T, error)) (T, error) {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		if m.entries == nil {
			m.entries = make(map[memoKey]*memoEntry)
		}
		e = &memoEntry{}
		m.entries[key] = e
	}
	m.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return e.val.(T), nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	e.val, e.done = v, true
	return v, nil
}
