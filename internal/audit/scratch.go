package audit

import "sync"

// scratchPool recycles the buffers the per-campaign analyses fill and
// fold (exposure samples, attributed report rows). FullAudit fans
// dimensions out across a worker pool, so a sync.Pool gives each
// worker its own warm buffer without any coordination; at paper scale
// this removes one multi-hundred-KiB allocation per task.
type scratchPool[T any] struct{ pool sync.Pool }

var (
	floatScratch scratchPool[float64]
	rowScratch   scratchPool[sellerRow]
)

// get returns an empty buffer with at least the given capacity. Return
// it with put once every value derived from it has been copied out.
func (p *scratchPool[T]) get(capacity int) []T {
	if buf, ok := p.pool.Get().(*[]T); ok && cap(*buf) >= capacity {
		return (*buf)[:0]
	}
	return make([]T, 0, capacity)
}

// put zeroes buf's whole backing array, so the pool keeps no
// references alive, and recycles it. The boxed header costs one
// word-sized allocation, traded for the backing array.
func (p *scratchPool[T]) put(buf []T) {
	buf = buf[:cap(buf)]
	clear(buf)
	p.pool.Put(&buf)
}
