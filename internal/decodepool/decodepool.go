// Package decodepool implements the zero-allocation decode hot path:
// memoized matching-graph geometry shared read-only across workers, and
// per-worker scratch arenas that decoders reuse across calls.
//
// The paper's central constraint is that decoding must finish inside one
// syndrome round (§III), so per-decode latency — not just logical
// accuracy — is a product of this repository. Profiling the Monte-Carlo
// sweeps shows most decode wall-clock goes to two avoidable costs:
// re-deriving matching-graph geometry (distances, error-chain paths,
// decoding edges) on every call, and allocating fresh slices for hot
// lists, matcher state and correction buffers. This package removes
// both:
//
//   - Geometry tables (all-pairs Dist, BoundaryDist, flattened path-qubit
//     chains and the union-find decoding-edge list) are computed once per
//     (distance, error type) and served from a process-wide cache. The
//     tables are immutable after construction, so any number of worker
//     goroutines share them without synchronization beyond the cache
//     lookup. Space-time decoding (internal/spacetime) matches over a
//     layered view of these tables (Geometry.Layered): node t·M + c is
//     check c in round t, at spatial distance plus round separation,
//     so R rounds cost no table of (M·R)² entries.
//
//   - Scratch owns every mutable buffer a decoder needs. One Scratch
//     belongs to one worker (a Monte-Carlo shard, one simulator); it is
//     explicitly owned — never pooled through sync.Pool — so buffers
//     stay warm in cache and the steady state performs zero heap
//     allocations per decode.
//
// Decoders opt in by implementing IntoDecoder; Decode dispatches to the
// pooled path when available and falls back to the decoder's own Decode
// otherwise. The greedy, MWPM and union-find decoders have no second
// body: their Decode runs DecodeInto on a fresh Scratch, and the
// differential suite in internal/decoder pins each core against an
// allocating test oracle.
//
// Scratch ownership rules: the Correction returned by DecodeInto aliases
// the Scratch's correction buffer and is valid only until the next
// DecodeInto call with the same Scratch. Callers that need the qubit
// list beyond that must copy it.
package decodepool

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// IntoDecoder is the zero-allocation extension of decoder.Decoder: a
// decoder that can run its hot path entirely inside caller-owned
// scratch. Implementations must return exactly the Correction the plain
// Decode would (same qubits, same order), with Qubits aliasing the
// scratch's buffer.
type IntoDecoder interface {
	decoder.Decoder
	DecodeInto(g *lattice.Graph, syn []bool, s *Scratch) (decoder.Correction, error)
}

// Decode routes through the pooled zero-allocation path when dec
// implements IntoDecoder and s is non-nil, and falls back to the
// decoder's Decode otherwise. The returned Correction follows the
// ownership rules of whichever path ran.
//
// When the scratch is instrumented (Scratch.Instrument), Decode samples
// wall-clock latency into the scratch's histogram. Sampling — rather
// than timing every call — matters at this layer: the greedy d = 5
// pooled decode runs in ~170 ns, so two clock reads per call would cost
// ~35% by themselves. A 1-in-every sample keeps the overhead inside the
// repository's ≤ 5% telemetry budget while still resolving the latency
// distribution the backlog model consumes.
func Decode(dec decoder.Decoder, g *lattice.Graph, syn []bool, s *Scratch) (decoder.Correction, error) {
	if id, ok := dec.(IntoDecoder); ok && s != nil {
		if s.obsHist != nil {
			tick := s.obsTick
			s.obsTick++
			if tick&s.obsMask == 0 {
				// One timed decode stands in for its whole sample block:
				// the counter advances by the block size so the decode
				// count stays exact to within one block.
				s.obsCount.Add(int64(s.obsMask) + 1)
				start := time.Now()
				c, err := id.DecodeInto(g, syn, s)
				s.obsHist.Observe(uint64(time.Since(start)))
				return c, err
			}
		}
		return id.DecodeInto(g, syn, s)
	}
	return dec.Decode(g, syn)
}

// BatchDecoder is the batched extension of the pooled path: a decoder
// that advances several independent syndromes per call (the SWAR mesh
// kernel decodes BatchWidth of them in the same machine words).
// DecodeBatchInto must return one Correction per syndrome, in order,
// each bit-identical to what a one-at-a-time DecodeInto would produce;
// the Corrections and the returned slice alias the scratch's batch
// buffers and are valid until the next decode through the same scratch.
type BatchDecoder interface {
	decoder.Decoder
	// BatchWidth reports how many syndromes one call advances
	// concurrently (callers size their batches to a multiple of it).
	BatchWidth() int
	DecodeBatchInto(g *lattice.Graph, syns [][]bool, s *Scratch) ([]decoder.Correction, error)
}

// DecodeBatch decodes the syndromes through dec's native batch path
// when it implements BatchDecoder (and s is non-nil), and otherwise
// loops Decode per syndrome, copying each result into the scratch's
// shared batch buffer — a per-call Decode reuses its own buffers, so
// earlier corrections must be captured before the next call clobbers
// them. Both paths follow the BatchDecoder ownership rules.
func DecodeBatch(dec decoder.Decoder, g *lattice.Graph, syns [][]bool, s *Scratch) ([]decoder.Correction, error) {
	if bd, ok := dec.(BatchDecoder); ok && s != nil {
		return bd.DecodeBatchInto(g, syns, s)
	}
	var q []int
	var spans [][2]int32
	if s != nil {
		q = s.TakeBatchQubits()
		spans = s.BatchSpans(len(syns))
	} else {
		spans = make([][2]int32, len(syns))
	}
	for i, syn := range syns {
		c, err := Decode(dec, g, syn, s)
		if err != nil {
			if s != nil {
				s.PutBatchQubits(q)
			}
			return nil, err
		}
		start := int32(len(q))
		q = append(q, c.Qubits...)
		spans[i] = [2]int32{start, int32(len(q))}
	}
	var corr []decoder.Correction
	if s != nil {
		s.PutBatchQubits(q)
		corr = s.BatchCorrections(len(syns))
	} else {
		corr = make([]decoder.Correction, len(syns))
	}
	for i, sp := range spans {
		corr[i] = decoder.Correction{Qubits: q[sp[0]:sp[1]:sp[1]]}
	}
	return corr, nil
}

// Geometry holds the immutable decode tables of one matching graph:
// all-pairs check distances, boundary distances, the minimum-length
// error chains realizing them (flattened), and the union-find decoding
// edge list with boundary pendant vertices materialized. A layered view
// (see Layered) answers the same queries for space-time nodes from its
// spatial geometry's tables. All methods are safe for concurrent use.
type Geometry struct {
	D int               // code distance
	E lattice.ErrorType // error type this graph decodes
	M int               // number of checks (space-time nodes on a layered view)

	// checks is the per-round check count of a layered view, which
	// reads its spatial geometry's tables below, and 0 on a 2-D one.
	checks int

	// Union-find view: NV vertices (checks 0..M-1 then boundary
	// pendants), Edges in lattice.Graph.DecodingEdges order, and their
	// Endpoints in that vertex numbering.
	NV        int
	Edges     []lattice.Edge
	Endpoints [][2]int32

	dist      []int32 // dist[i*M+j]
	bdist     []int32 // bdist[i]
	pathOff   []int32 // prefix offsets into pathData, i*M+j
	pathData  []int32
	bpathOff  []int32 // prefix offsets into bpathData
	bpathData []int32
}

// Layered returns the space-time view of a 2-D geometry over the given
// number of measurement rounds: node t·M + c is check c in round t, two
// nodes are their checks' distance plus their round separation apart,
// and a node reaches the boundary at its check's boundary distance in
// any round. Chains are the spatial projection of a matched path — a
// time-like pair (same check) lays down none. The view shares geo's
// tables rather than building its own and has no union-find view; one
// layer is geo itself.
func (geo *Geometry) Layered(layers int) *Geometry {
	if geo.checks != 0 {
		panic("decodepool: Layered on a layered geometry")
	}
	if layers <= 1 {
		return geo
	}
	v := &Geometry{D: geo.D, E: geo.E, M: geo.M * layers, checks: geo.M}
	v.dist, v.bdist = geo.dist, geo.bdist
	v.pathOff, v.pathData, v.bpathOff, v.bpathData = geo.pathOff, geo.pathData, geo.bpathOff, geo.bpathData
	return v
}

// Dist returns the matching-graph distance between checks i and j. On a
// 2-D geometry it is one table load.
func (geo *Geometry) Dist(i, j int) int {
	if c := geo.checks; c != 0 {
		dt := i/c - j/c
		return int(geo.dist[i%c*c+j%c]) + max(dt, -dt)
	}
	return int(geo.dist[i*geo.M+j])
}

// BoundaryDist returns check i's distance to its nearest code boundary.
func (geo *Geometry) BoundaryDist(i int) int {
	if c := geo.checks; c != 0 {
		i %= c
	}
	return int(geo.bdist[i])
}

// AppendPathQubits appends the data-qubit chain connecting checks i and
// j (identical to lattice.Graph.PathQubits) to dst and returns it.
func (geo *Geometry) AppendPathQubits(dst []int, i, j int) []int {
	stride := geo.M
	if c := geo.checks; c != 0 {
		i, j, stride = i%c, j%c, c
	}
	k := int32(i)*int32(stride) + int32(j)
	for _, q := range geo.pathData[geo.pathOff[k]:geo.pathOff[k+1]] {
		dst = append(dst, int(q))
	}
	return dst
}

// AppendBoundaryPathQubits appends check i's shortest boundary chain
// (identical to lattice.Graph.BoundaryPathQubits) to dst and returns it.
func (geo *Geometry) AppendBoundaryPathQubits(dst []int, i int) []int {
	if c := geo.checks; c != 0 {
		i %= c
	}
	for _, q := range geo.bpathData[geo.bpathOff[i]:geo.bpathOff[i+1]] {
		dst = append(dst, int(q))
	}
	return dst
}

// Emit lays down the chains of a matching — every pair's, then every
// boundary match's (decoder.Matching.Correction's order) — in s's
// correction buffer. The Correction aliases s; an empty matching yields
// the empty Correction.
func (geo *Geometry) Emit(m decoder.Matching, s *Scratch) decoder.Correction {
	if len(m.Pairs)+len(m.Boundary) == 0 {
		return decoder.Correction{}
	}
	q := s.TakeQubits()
	for _, p := range m.Pairs {
		q = geo.AppendPathQubits(q, p[0], p[1])
	}
	for _, i := range m.Boundary {
		q = geo.AppendBoundaryPathQubits(q, i)
	}
	return s.PutQubits(q)
}

// geoKey identifies one geometry table. Graphs of equal distance and
// error type are structurally identical (checks index identically), so
// the cache is keyed by parameters, not by graph pointer — every worker
// rebuilding its own lattice still shares one table.
type geoKey struct {
	d int
	e lattice.ErrorType
}

var (
	geoMu    sync.RWMutex
	geoCache = map[geoKey]*Geometry{}
)

// For returns the memoized geometry of g, building it on first use.
// Concurrent warm-up is safe: racing builders construct private tables
// and the first one stored wins, so callers always observe one shared,
// fully built Geometry. The fast path takes a read lock and performs no
// allocation.
func For(g *lattice.Graph) *Geometry {
	k := geoKey{d: g.Lattice().Distance(), e: g.ErrorType()}
	geoMu.RLock()
	geo := geoCache[k]
	geoMu.RUnlock()
	if geo != nil {
		return geo
	}
	built := build(g)
	geoMu.Lock()
	if exist, ok := geoCache[k]; ok {
		built = exist
	} else {
		geoCache[k] = built
	}
	geoMu.Unlock()
	return built
}

// build derives every table from the graph's own geometry methods, so
// the cached values are definitionally identical to what lattice.Graph
// computes per call.
func build(g *lattice.Graph) *Geometry {
	geo := NewGeometry(g.NumChecks(), g.Dist, g.BoundaryDist, g.PathQubits, g.BoundaryPathQubits)
	geo.D, geo.E = g.Lattice().Distance(), g.ErrorType()
	// Union-find view: one fresh pendant vertex per boundary endpoint,
	// numbered in edge order after the checks.
	geo.Edges = g.DecodingEdges()
	geo.Endpoints = make([][2]int32, len(geo.Edges))
	nv := geo.M
	for k, e := range geo.Edges {
		a, b := e.C1, e.C2
		if a == lattice.Boundary {
			a = nv
			nv++
		}
		if b == lattice.Boundary {
			b = nv
			nv++
		}
		geo.Endpoints[k] = [2]int32{int32(a), int32(b)}
	}
	geo.NV = nv
	return geo
}

// NewGeometry tabulates the matching view of an m-check graph from its
// distance, boundary-distance and shortest-chain functions. The result
// serves the matching decoders (greedy, MWPM) on any code layout; it has
// no union-find view (Edges, Endpoints and NV stay zero), and D and E
// are left for the caller to fill in.
func NewGeometry(m int, dist func(i, j int) int, bdist func(i int) int,
	path func(i, j int) []int, bpath func(i int) []int) *Geometry {
	geo := &Geometry{
		M:        m,
		dist:     make([]int32, m*m),
		bdist:    make([]int32, m),
		pathOff:  make([]int32, m*m+1),
		bpathOff: make([]int32, m+1),
	}
	for i := 0; i < m; i++ {
		geo.bdist[i] = int32(bdist(i))
		for j := 0; j < m; j++ {
			geo.dist[i*m+j] = int32(dist(i, j))
			for _, q := range path(i, j) {
				geo.pathData = append(geo.pathData, int32(q))
			}
			geo.pathOff[i*m+j+1] = int32(len(geo.pathData))
		}
		for _, q := range bpath(i) {
			geo.bpathData = append(geo.bpathData, int32(q))
		}
		geo.bpathOff[i+1] = int32(len(geo.bpathData))
	}
	return geo
}

// CheckSyndrome reports an error unless syn has exactly one entry per
// check of the graph.
func (geo *Geometry) CheckSyndrome(syn []bool) error {
	if len(syn) != geo.M {
		return fmt.Errorf("syndrome has %d checks, graph has %d", len(syn), geo.M)
	}
	return nil
}

// Scratch is one worker's reusable decode state. It is not safe for
// concurrent use: give each goroutine (each Monte-Carlo shard, each
// simulator) its own. The zero value is NOT ready; use NewScratch.
//
// Buffers grow to the high-water mark of the instances decoded through
// them and are then reused, so steady-state decoding allocates nothing.
type Scratch struct {
	hot    []int // hot-check list of the current call
	qubits []int // correction output buffer

	// Batch-decode buffers (see BatchDecoder): one shared qubit arena
	// all corrections of a batch append into, the per-syndrome
	// [start,end) spans over it, and the Correction views handed back.
	batchQ     []int
	batchSpans [][2]int32
	batchCorr  []decoder.Correction

	states map[string]any // per-decoder private state, keyed by decoder

	// Telemetry (see Instrument): nil obsHist means uninstrumented.
	obsHist  *obs.Histogram
	obsCount *obs.Counter
	obsMask  uint32 // sample every obsMask+1 decodes (power of two - 1)
	obsTick  uint32
}

// NewScratch returns an empty scratch arena.
func NewScratch() *Scratch {
	return &Scratch{states: make(map[string]any)}
}

// Instrument attaches latency telemetry to the scratch: Decode calls
// through it sample wall-clock time into hist (1 in every calls) and
// advance count by the sample-block size, keeping the decode count
// exact to within one block. every is rounded up to a power of two;
// every ≤ 0 selects the default of 16, and every = 1 times every call
// (tests use that to pin down exact counts). Passing a nil hist
// removes the instrumentation. The scratch's single-owner contract is
// unchanged — hist and count may be shared across scratches, the
// sampling state is private.
func (s *Scratch) Instrument(hist *obs.Histogram, count *obs.Counter, every int) {
	if hist == nil {
		s.obsHist, s.obsCount, s.obsMask, s.obsTick = nil, nil, 0, 0
		return
	}
	if every <= 0 {
		every = 16
	}
	mask := uint32(1)
	for int(mask) < every {
		mask <<= 1
	}
	s.obsHist = hist
	s.obsCount = count
	if s.obsCount == nil {
		s.obsCount = new(obs.Counter)
	}
	s.obsMask = mask - 1
	s.obsTick = 0
}

// HotChecks fills the scratch's hot-list buffer with the indices of the
// true entries of syn and returns it. The slice is valid until the next
// HotChecks call on this scratch.
func (s *Scratch) HotChecks(syn []bool) []int {
	hot := s.hot[:0]
	for i, h := range syn {
		if h {
			hot = append(hot, i)
		}
	}
	s.hot = hot
	return hot
}

// TakeQubits hands out the correction buffer, emptied. The caller
// appends correction qubits and passes the result to PutQubits.
func (s *Scratch) TakeQubits() []int { return s.qubits[:0] }

// PutQubits records the (possibly re-grown) correction buffer and wraps
// it in a Correction. The Correction aliases the scratch and is valid
// until the next decode through it.
func (s *Scratch) PutQubits(q []int) decoder.Correction {
	s.qubits = q
	return decoder.Correction{Qubits: q}
}

// TakeBatchQubits hands out the batch correction arena, emptied. Batch
// decoders append every lane's correction qubits to it and pass the
// result to PutBatchQubits.
func (s *Scratch) TakeBatchQubits() []int { return s.batchQ[:0] }

// PutBatchQubits records the (possibly re-grown) batch arena so the
// next batch reuses its capacity.
func (s *Scratch) PutBatchQubits(q []int) { s.batchQ = q }

// BatchSpans returns an n-element span buffer ([start,end) offsets into
// the batch arena, one per syndrome), reusing capacity. Valid until the
// next BatchSpans call on this scratch.
func (s *Scratch) BatchSpans(n int) [][2]int32 {
	if cap(s.batchSpans) < n {
		s.batchSpans = make([][2]int32, n)
	}
	s.batchSpans = s.batchSpans[:n]
	return s.batchSpans
}

// BatchCorrections returns an n-element Correction buffer, reusing
// capacity. Valid until the next BatchCorrections call on this scratch.
func (s *Scratch) BatchCorrections(n int) []decoder.Correction {
	if cap(s.batchCorr) < n {
		s.batchCorr = make([]decoder.Correction, n)
	}
	s.batchCorr = s.batchCorr[:n]
	return s.batchCorr
}

// State returns the per-decoder private state stored under key,
// building it with mk on first use. Decoder packages use it to keep
// typed, reusable internals (matcher arrays, union-find structures,
// sort buffers) inside a caller-owned Scratch without this package
// depending on them.
func (s *Scratch) State(key string, mk func() any) any {
	st, ok := s.states[key]
	if !ok {
		st = mk()
		s.states[key] = st
	}
	return st
}
