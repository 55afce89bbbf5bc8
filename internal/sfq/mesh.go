package sfq

import (
	"fmt"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// cellKind classifies a mesh cell.
type cellKind uint8

const (
	cellInert    cellKind = iota // ring position with no boundary role
	cellInterior                 // one module per physical qubit
	cellBoundary                 // boundary module facing the code edge
)

// Stats reports what one Decode call did, in mesh clock cycles.
type Stats struct {
	Cycles           int // total mesh clocks consumed
	Pairings         int // completed pairings (incl. boundary pairings)
	BoundaryPairings int // pairings whose second endpoint was a boundary
	Resets           int // global resets triggered by completed pairings
	Retries          int // stall-recovery resets (rotated grant priority)
	Stalls           int // quiescent stalls, incl. ones recovered by retry or drain
	Fallbacks        int // hot modules drained to a boundary by the watchdog
	Unresolved       int // hot modules the pairing protocol gave up on (drained
	// by the watchdog when the variant has boundaries — see Fallbacks —
	// or left hot otherwise)
}

// GaveUp reports whether the pairing protocol failed on any hot module:
// either the watchdog drained chains to a boundary (Fallbacks) or hot
// modules were left unpaired (Unresolved counts both cases). Escalation
// policies use this as their "mesh is not confident" signal.
func (s Stats) GaveUp() bool { return s.Unresolved > 0 }

// TimeNs converts the cycle count to nanoseconds at the synthesized
// full-circuit latency.
func (s Stats) TimeNs() float64 { return float64(s.Cycles) * CycleTimePs / 1000 }

// Kernel names the scalar mesh stepping implementation. There is one:
// the bit-plane kernel (the fused SWAR batch kernel sits behind
// BatchMesh, and the original struct-of-bools kernel survives only as a
// test oracle). The type and DefaultKernel remain because benchmark
// manifests record the resolved kernel.
type Kernel uint8

// KernelBitplane packs every (signal class × direction) into []uint64
// bit-planes and steps whole rows with shift-and-mask operations.
const KernelBitplane Kernel = 0

// String implements fmt.Stringer.
func (k Kernel) String() string { return "bitplane" }

// DefaultKernel is the kernel New uses. The knob layer validates
// REPRO_SFQ_KERNEL at process start, so any value other than
// "bitplane" panics instead of being silently ignored.
var DefaultKernel = kernelFromEnv()

func kernelFromEnv() Kernel {
	knob.String("REPRO_SFQ_KERNEL")
	return KernelBitplane
}

// Mesh is the SFQ decoder: a (2d+1)×(2d+1) grid of decoder modules (the
// (2d−1)² per-qubit modules ringed by boundary modules) bound to one
// matching graph. A Mesh is reusable across Decode calls but not safe
// for concurrent use.
type Mesh struct {
	g       *lattice.Graph
	variant Variant
	geo     *meshGeom

	// MaxCycles bounds one decode; Decode fails beyond it. Defaults to
	// 200 × mesh side.
	MaxCycles int

	// maxRetries bounds stall-recovery attempts per decode.
	maxRetries int

	planes *planeState // bit-plane kernel state

	hotCount       int // maintained count of hot modules
	resetCountdown int
	priorityOffset int
	stats          Stats
	tracer         Tracer

	// Telemetry: every decode's cycle count goes into a mesh-private
	// obs.Local (no atomics, no allocation on the hot path) that
	// auto-flushes into the process-wide sfq_decode_cycles_d<D>
	// histogram every obsFlushEvery decodes and on FlushObs.
	obsCycles *obs.Local

	// Pool bookkeeping (see Pool): which pool handed this mesh out, and
	// whether it is currently parked on a free list.
	owner  *Pool
	pooled bool
}

// obsFlushEvery is how many decodes a mesh accumulates before merging
// its private cycle histogram into the shared registry — the amortized
// flush keeps shared-cache-line traffic off the per-decode path while
// /metrics scrapes stay at most a few dozen decodes stale.
const obsFlushEvery = 64

// New builds a decoder mesh for the matching graph with the given design
// variant.
func New(g *lattice.Graph, v Variant) *Mesh {
	geo := geomFor(g)
	m := &Mesh{
		g:          g,
		variant:    v,
		geo:        geo,
		MaxCycles:  200 * geo.m,
		maxRetries: 3,
	}
	m.obsCycles = obs.NewLocal(obsFlushEvery,
		obs.Default().Histogram(fmt.Sprintf("sfq_decode_cycles_d%d", geo.d)))
	m.planes = newPlaneState(m)
	return m
}

// Name implements decoder.Decoder.
func (m *Mesh) Name() string { return "sfq-" + m.variant.Name() }

// Variant returns the mesh's design variant.
func (m *Mesh) Variant() Variant { return m.variant }

// Stats returns the statistics of the most recent Decode call.
func (m *Mesh) Stats() Stats { return m.stats }

// Reset returns the mesh to its idle state. Decode calls reset
// internally; pools call Reset before parking a mesh so a stale decode's
// state is never carried across owners.
func (m *Mesh) Reset() { m.planes.reset() }

// compatible reports whether the mesh can decode syndromes of g. Graphs
// of equal distance and error type are structurally identical (the
// assumption decodepool's geometry cache already rests on), so pooled
// meshes accept any such graph, not just the pointer they were built
// with.
func (m *Mesh) compatible(g *lattice.Graph) bool {
	if g == m.g {
		return true
	}
	return g.ErrorType() == m.g.ErrorType() &&
		g.Lattice().Distance() == m.g.Lattice().Distance() &&
		g.NumChecks() == m.g.NumChecks()
}

// Decode implements decoder.Decoder. The graph must be structurally
// identical to the one the mesh was built for.
func (m *Mesh) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	if !m.compatible(g) {
		return decoder.Correction{}, fmt.Errorf("sfq: mesh bound to a different matching graph")
	}
	c, _, err := m.DecodeWithStats(syn)
	return c, err
}

// DecodeInto implements decodepool.IntoDecoder: it decodes with zero
// heap allocations, appending the correction into the scratch's pooled
// qubit buffer. Cycle statistics remain available via Stats.
func (m *Mesh) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	if !m.compatible(g) {
		return decoder.Correction{}, fmt.Errorf("sfq: mesh bound to a different matching graph")
	}
	q, err := m.decodeAppend(syn, s.TakeQubits())
	return s.PutQubits(q), err
}

// DecodeWithStats runs the mesh on the syndrome and also returns cycle
// statistics. The returned correction may leave checks uncleared when
// the design variant cannot resolve them (Stats.Unresolved counts them);
// the final variant resolves everything it is given.
func (m *Mesh) DecodeWithStats(syn []bool) (decoder.Correction, Stats, error) {
	q, err := m.decodeAppend(syn, nil)
	if err != nil {
		return decoder.Correction{}, Stats{}, err
	}
	return decoder.Correction{Qubits: q}, m.stats, nil
}

// decodeAppend is the shared decode core: it appends the corrected
// qubit indices to q (which may be nil or a recycled buffer), leaves
// statistics in m.stats, and records the cycle count in the mesh's
// telemetry recorder.
func (m *Mesh) decodeAppend(syn []bool, q []int) ([]int, error) {
	if len(syn) != m.g.NumChecks() {
		return q, fmt.Errorf("sfq: syndrome has %d checks, graph has %d", len(syn), m.g.NumChecks())
	}
	q, err := m.planes.decodeAppend(syn, q)
	if err == nil {
		m.obsCycles.Observe(uint64(m.stats.Cycles))
	}
	return q, err
}

// FlushObs merges any pending telemetry into the shared registry
// histograms. The pool calls it when a mesh is parked; call it directly
// before scraping when a mesh is long-lived outside a pool.
func (m *Mesh) FlushObs() { m.obsCycles.Flush() }

var (
	_ decoder.Decoder        = (*Mesh)(nil)
	_ decodepool.IntoDecoder = (*Mesh)(nil)
)
