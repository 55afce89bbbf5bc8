package sfq

import (
	"sync"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// Pool recycles decoder meshes across Monte-Carlo shards, mirroring
// decodepool.Scratch: a sweep that runs thousands of shards per (d, p)
// point draws meshes from the pool instead of rebuilding lattice,
// matching graph, and mesh per shard. A Pool is safe for concurrent
// use; the meshes it hands out are not (one mesh per shard).
//
// Delivery is exactly-once and observable: every mesh tracks which pool
// handed it out and whether it is currently parked, so a double Put
// (which would alias one mesh into two shards), a Put of another pool's
// mesh, or a mesh that never comes back all show up in Stats and in the
// process-wide sfq_pool_* metrics instead of silently corrupting the
// free list.
type Pool struct {
	variant Variant

	mu        sync.Mutex
	graphs    map[poolKey]*lattice.Graph
	free      map[poolKey][]*Mesh
	freeBatch map[batchPoolKey][]*BatchMesh
	stats     PoolStats
}

// PoolStats is a pool's cumulative accounting. Hits + Misses == Gets,
// and when every mesh has been returned exactly once,
// Outstanding == 0 and Puts == Gets - adopted strays.
type PoolStats struct {
	Gets        int64 // meshes handed out
	Hits        int64 // Gets served from the free list
	Misses      int64 // Gets that built a new mesh
	Puts        int64 // meshes accepted back
	Foreign     int64 // rejected Puts: wrong variant or another pool's mesh
	DoublePuts  int64 // rejected Puts: mesh already parked in this pool
	Outstanding int64 // handed out and not yet returned
}

type poolKey struct {
	d int
	e lattice.ErrorType
}

// batchPoolKey keys the batch free lists by (d, e, lane width): batch
// meshes of different widths have different plane layouts and must
// never mix.
type batchPoolKey struct {
	d     int
	e     lattice.ErrorType
	lanes int
}

// Process-wide pool telemetry, aggregated across all pools.
var (
	poolGets        = obs.Default().Counter("sfq_pool_gets_total")
	poolHits        = obs.Default().Counter("sfq_pool_hits_total")
	poolMisses      = obs.Default().Counter("sfq_pool_misses_total")
	poolPuts        = obs.Default().Counter("sfq_pool_puts_total")
	poolForeign     = obs.Default().Counter("sfq_pool_foreign_total")
	poolDoublePuts  = obs.Default().Counter("sfq_pool_double_puts_total")
	poolOutstanding = obs.Default().Gauge("sfq_pool_outstanding")
)

// NewPool returns a pool of meshes with the given design variant.
func NewPool(v Variant) *Pool {
	return &Pool{
		variant:   v,
		graphs:    map[poolKey]*lattice.Graph{},
		free:      map[poolKey][]*Mesh{},
		freeBatch: map[batchPoolKey][]*BatchMesh{},
	}
}

// Stats returns a snapshot of the pool's accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Graph returns the pool's shared matching graph for (d, e), building
// it on first use. All meshes the pool hands out for (d, e) are bound
// to this graph.
func (p *Pool) Graph(d int, e lattice.ErrorType) *lattice.Graph {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.graphLocked(poolKey{d, e})
}

func (p *Pool) graphLocked(k poolKey) *lattice.Graph {
	g := p.graphs[k]
	if g == nil {
		g = lattice.MustNew(k.d).MatchingGraph(k.e)
		p.graphs[k] = g
	}
	return g
}

// Get returns an idle mesh for (d, e), reusing a previously Put mesh
// when one is available.
func (p *Pool) Get(d int, e lattice.ErrorType) *Mesh {
	k := poolKey{d, e}
	p.mu.Lock()
	p.stats.Gets++
	p.stats.Outstanding++
	poolGets.Inc()
	poolOutstanding.Add(1)
	if list := p.free[k]; len(list) > 0 {
		m := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[k] = list[:len(list)-1]
		m.pooled = false
		p.stats.Hits++
		p.mu.Unlock()
		poolHits.Inc()
		return m
	}
	p.stats.Misses++
	g := p.graphLocked(k)
	p.mu.Unlock()
	poolMisses.Inc()
	m := New(g, p.variant)
	m.owner = p
	return m
}

// Put resets the mesh, flushes its pending telemetry, and parks it on
// the free list. Rejected — counted, never mixed in — are meshes whose
// variant differs from the pool's, meshes owned by another pool, and
// meshes already parked here (a double Put would alias one mesh into
// two future Gets). A compatible mesh built outside any pool is adopted
// without touching the outstanding count.
func (p *Pool) Put(m *Mesh) {
	if m == nil || m.variant != p.variant {
		p.mu.Lock()
		p.stats.Foreign++
		p.mu.Unlock()
		poolForeign.Inc()
		return
	}
	m.Reset()
	m.SetTracer(nil)
	m.FlushObs()
	k := poolKey{d: m.geo.d, e: m.geo.e}
	p.mu.Lock()
	switch {
	case m.pooled && m.owner == p:
		p.stats.DoublePuts++
		p.mu.Unlock()
		poolDoublePuts.Inc()
		return
	case m.owner != nil && m.owner != p:
		p.stats.Foreign++
		p.mu.Unlock()
		poolForeign.Inc()
		return
	}
	wasOurs := m.owner == p
	m.owner = p
	m.pooled = true
	p.free[k] = append(p.free[k], m)
	p.stats.Puts++
	if wasOurs {
		p.stats.Outstanding--
	}
	p.mu.Unlock()
	poolPuts.Inc()
	if wasOurs {
		poolOutstanding.Add(-1)
	}
}

// GetBatch returns an idle SWAR batch mesh for (d, e) at the maximum
// lane width for d, reusing a previously PutBatch mesh when one is
// available. Batch meshes share the pool's accounting.
func (p *Pool) GetBatch(d int, e lattice.ErrorType) *BatchMesh {
	k := batchPoolKey{d: d, e: e, lanes: MaxBatchLanes(d)}
	p.mu.Lock()
	p.stats.Gets++
	p.stats.Outstanding++
	poolGets.Inc()
	poolOutstanding.Add(1)
	if list := p.freeBatch[k]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		p.freeBatch[k] = list[:len(list)-1]
		b.pooled = false
		p.stats.Hits++
		p.mu.Unlock()
		poolHits.Inc()
		return b
	}
	p.stats.Misses++
	g := p.graphLocked(poolKey{d: d, e: e})
	p.mu.Unlock()
	poolMisses.Inc()
	b := NewBatchWithLanes(g, p.variant, k.lanes)
	b.owner = p
	return b
}

// PutBatch resets the batch mesh, flushes its pending telemetry (the
// histogram holds one cycle sample per lane decode), and parks it,
// under the same exactly-once rules as Put.
func (p *Pool) PutBatch(b *BatchMesh) {
	if b == nil || b.variant != p.variant {
		p.mu.Lock()
		p.stats.Foreign++
		p.mu.Unlock()
		poolForeign.Inc()
		return
	}
	b.Reset()
	b.FlushObs()
	k := batchPoolKey{d: b.geo.d, e: b.geo.e, lanes: b.lanes}
	p.mu.Lock()
	switch {
	case b.pooled && b.owner == p:
		p.stats.DoublePuts++
		p.mu.Unlock()
		poolDoublePuts.Inc()
		return
	case b.owner != nil && b.owner != p:
		p.stats.Foreign++
		p.mu.Unlock()
		poolForeign.Inc()
		return
	}
	wasOurs := b.owner == p
	b.owner = p
	b.pooled = true
	p.freeBatch[k] = append(p.freeBatch[k], b)
	p.stats.Puts++
	if wasOurs {
		p.stats.Outstanding--
	}
	p.mu.Unlock()
	poolPuts.Inc()
	if wasOurs {
		poolOutstanding.Add(-1)
	}
}

// Release adapts Put to the func(decoder.Decoder) release hooks of the
// sweep layers: mesh decoders (scalar or batched) return to the pool,
// anything else is ignored.
func (p *Pool) Release(dec decoder.Decoder) {
	switch m := dec.(type) {
	case *Mesh:
		p.Put(m)
	case *BatchMesh:
		p.PutBatch(m)
	}
}
