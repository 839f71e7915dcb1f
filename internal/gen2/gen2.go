// Package gen2 is a bounded two-generation map. When the current
// generation reaches its limit it becomes the previous one and a fresh
// generation starts, so an entry is remembered for at least one and at
// most two generations of distinct keys. The collector's ingest caches,
// its nonce and trunk-stream dedup, and the router's relay continuity
// records all bound their memory this way.
package gen2

// Map is a two-generation map. It is not safe for concurrent use;
// callers guard it with their own lock.
type Map[K comparable, V any] struct {
	limit     int
	cur, prev map[K]V
}

// New returns an empty Map holding at most limit entries per
// generation. The first generation grows on demand; later ones start
// presized to a quarter of the limit.
func New[K comparable, V any](limit int) Map[K, V] {
	return Map[K, V]{limit: limit, cur: map[K]V{}}
}

// Peek looks k up in both generations without promoting a
// previous-generation hit, so an entry ages out on schedule however
// often it is read.
func (m *Map[K, V]) Peek(k K) (V, bool) {
	if v, ok := m.cur[k]; ok {
		return v, true
	}
	v, ok := m.prev[k]
	return v, ok
}

// Get looks k up in both generations, promoting a previous-generation
// hit into the current one so hot entries survive rotation.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if v, ok := m.cur[k]; ok {
		return v, true
	}
	v, ok := m.prev[k]
	if ok {
		m.Put(k, v)
	}
	return v, ok
}

// Put records k → v in the current generation, rotating first if it is
// full.
func (m *Map[K, V]) Put(k K, v V) {
	if len(m.cur) >= m.limit {
		m.prev = m.cur
		m.cur = make(map[K]V, m.limit/4)
	}
	m.cur[k] = v
}

// Delete forgets k in both generations.
func (m *Map[K, V]) Delete(k K) {
	delete(m.cur, k)
	delete(m.prev, k)
}

// Len reports the entry counts of the current and previous generations.
func (m *Map[K, V]) Len() (cur, prev int) { return len(m.cur), len(m.prev) }

// Intern returns the canonical copy of b held in m, storing one on a
// miss, so a string is copied at most once per two generations. The
// map index expressions convert b in place, which the compiler does
// without allocating.
func Intern(m *Map[string, string], b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := m.cur[string(b)]; ok {
		return s
	}
	if s, ok := m.prev[string(b)]; ok {
		m.Put(s, s)
		return s
	}
	s := string(b)
	m.Put(s, s)
	return s
}
