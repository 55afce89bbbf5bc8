package sfq

import (
	"fmt"
	"math/bits"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// BatchMesh is the SWAR-batched bit-plane kernel: up to
// MaxBatchLanes(d) independent decoder meshes packed d-major into the
// same []uint64 planes (see batchGeom), advanced by one shared
// wavefront step per clock. Planes are W words per row (W ∈ {1, 2, 4},
// chosen by REPRO_SFQ_WIDTH or the CPU auto-pick), so every
// shift-and-mask pass progresses W·⌊64/(2d+1)⌋ in-flight decodes.
//
// It is one of the package's two production stepping kernels: the
// scalar bit-plane kernel (Mesh, bitplane.go) decodes single syndromes
// and meshes wider than one word, and BatchMesh steps every side ≤ 64
// mesh through the fused single-sweep phases of batchwide.go at every
// width. The original struct-of-bools kernel lives on only in the
// tests, as the independent oracle both are diffed against.
//
// Lanes never interact — the lane masks stop every shift at the lane
// seam and all cross-plane operations are pure bitwise combinations —
// so each lane evolves exactly as a scalar bit-plane mesh would.
// Termination is per lane: each lane keeps its own hot counter, reset
// countdown, retry count and rotated grant priority, is checked against
// the scalar kernel's stall/watchdog conditions between steps, and when
// it finishes its correction and Stats are extracted, the lane is
// scrubbed, and the next pending syndrome is loaded into it while the
// other lanes keep stepping. Dynamic refill keeps all lanes busy for
// the whole batch, which is what makes throughput approach B× rather
// than B/avg-vs-max. The conformance suite pins corrections and
// per-lane Stats bit-identical to the scalar kernel.
//
// The per-lane quiescence test leans on one invariant: every wavefront
// `any` flag is the exact OR of its current planes in that flag's word
// column (signals are always accumulated with true ORs — including the
// initial grow emission — and lane scrubs clear plane bits and flag
// bits together), so `any[laneCol[l]] & laneBits[l]` precisely answers
// "does lane l have a signal in flight".
//
// A BatchMesh is reusable across DecodeBatchInto calls but not safe for
// concurrent use. Meshes wider than one word (side > 64, d ≥ 32) fall
// back to a private scalar bit-plane mesh decoded lane-at-a-time.
type BatchMesh struct {
	g       *lattice.Graph
	variant Variant
	geo     *meshGeom
	bg      *batchGeom
	lanes   int

	// MaxCycles bounds each lane's decode, as Mesh.MaxCycles does.
	MaxCycles  int
	maxRetries int

	// Shared planes, W words per row, all lanes interleaved.
	hot, errOut, fired, sentPair, granted []uint64
	growFrom, reqDirs, grants             [4][]uint64
	growW, reqW, grantW, pairW, pairBW    bwavefront

	// Per-lane control state.
	laneSyn       []int // syndrome index decoding in lane l, -1 when idle
	laneHot       []int // hot modules left in lane l
	laneCountdown []int // lane-local globalReset input-blocking countdown
	laneRetries   []int // stall-recovery resets spent by lane l
	lanePrio      []int // lane-local rotated grant priority offset
	laneStats     []Stats
	anyPrio       int // lanes with a nonzero priority offset (slow-path gate)

	// Dirty-word bitmaps of the fused step (one bit per plane word,
	// n ≤ 256 because side ≤ 64 and W ≤ 4): fireDirty marks words where
	// fire eligibility may have changed this step (a grow latch landed or
	// a hot module terminated), hsDirty where a handshake may have
	// completed (a grant was consumed). fireComplete visits only marked
	// words; see batchwide.go for the event analysis.
	fireDirty, hsDirty [4]uint64

	// In-flight batch bookkeeping (valid only inside DecodeBatchInto).
	syns   [][]bool
	spans  [][2]int32
	q      []int
	next   int
	active int

	statsBuf []Stats // per-syndrome Stats of the last batch
	lastN    int
	stat     Stats // Stats of the last single-syndrome adapter decode

	scalarMesh *Mesh    // side > 64 fallback
	one        [][]bool // single-syndrome adapter buffer
	ownScratch *decodepool.Scratch

	obsCycles *obs.Local

	// Pool bookkeeping, mirroring Mesh.
	owner  *Pool
	pooled bool
}

// bwavefront is the batch kernel's double-buffered plane set of one
// signal class: the wavefront type widened to W-word rows. The any
// flags are per-word-column OR-accumulators over every word written
// into the respective plane set (any[c] covers words k with k&wmask ==
// c); they make per-lane quiescence checks O(1) and let clearNext skip
// plane sets that are already zero.
type bwavefront struct {
	cur, nxt       [4][]uint64
	curAny, nxtAny [4]uint64
}

func (w *bwavefront) swap() {
	w.cur, w.nxt = w.nxt, w.cur
	w.curAny, w.nxtAny = w.nxtAny, w.curAny
}

// anyCur reports whether any signal of this class is in flight in any
// column.
func (w *bwavefront) anyCur() uint64 {
	return w.curAny[0] | w.curAny[1] | w.curAny[2] | w.curAny[3]
}

func (w *bwavefront) anyNxt() uint64 {
	return w.nxtAny[0] | w.nxtAny[1] | w.nxtAny[2] | w.nxtAny[3]
}

// clearNext zeroes the next-cycle planes (stale state from two cycles
// ago) if anything was ever written into them.
func (w *bwavefront) clearNext() {
	if w.anyNxt() == 0 {
		return
	}
	for d := range w.nxt {
		clearPlane(w.nxt[d])
	}
	w.nxtAny = [4]uint64{}
}

// clearCur zeroes the in-flight planes.
func (w *bwavefront) clearCur() {
	if w.anyCur() == 0 {
		return
	}
	for d := range w.cur {
		clearPlane(w.cur[d])
	}
	w.curAny = [4]uint64{}
}

// orAny folds a phase's per-column accumulator into the next-cycle
// flags.
func (w *bwavefront) orAny(acc *[4]uint64) {
	w.nxtAny[0] |= acc[0]
	w.nxtAny[1] |= acc[1]
	w.nxtAny[2] |= acc[2]
	w.nxtAny[3] |= acc[3]
}

// NewBatch builds a SWAR batch mesh for the matching graph at the
// maximum lane width for its distance (W·⌊64/(2d+1)⌋ lanes at the
// process-wide BatchWords plane width).
func NewBatch(g *lattice.Graph, v Variant) *BatchMesh {
	return NewBatchWithLanes(g, v, MaxBatchLanes(g.Lattice().Distance()))
}

// NewBatchWithWidth builds a batch mesh with an explicit plane width in
// words (1, 2 or 4, fully occupied); other widths fall back to the
// process default. Explicit widths exist for the width-conformance
// tests and the bench harness.
func NewBatchWithWidth(g *lattice.Graph, v Variant, words int) *BatchMesh {
	if words != 1 && words != 2 && words != 4 {
		words = BatchWords
	}
	return NewBatchWithLanes(g, v, MaxBatchLanesAt(g.Lattice().Distance(), words))
}

// NewBatchWithLanes builds a batch mesh with an explicit lane count;
// widths outside [1, MaxBatchLanes(d)] are clamped to the maximum. The
// plane word count is the narrowest power-of-two layout that holds the
// lanes. Narrow widths exist for tests and for callers bounding batch
// latency.
func NewBatchWithLanes(g *lattice.Graph, v Variant, lanes int) *BatchMesh {
	geo := geomFor(g)
	if max := MaxBatchLanes(geo.d); lanes < 1 || lanes > max {
		lanes = max
	}
	b := &BatchMesh{
		g:          g,
		variant:    v,
		geo:        geo,
		MaxCycles:  200 * geo.m,
		maxRetries: 3,
	}
	b.obsCycles = obs.NewLocal(obsFlushEvery,
		obs.Default().Histogram(fmt.Sprintf("sfq_decode_cycles_d%d", geo.d)))
	if geo.m > 64 {
		b.scalarMesh = New(g, v)
		b.lanes = 1
		return b
	}
	b.bg = batchGeomFor(g, lanes)
	b.lanes = lanes
	n := b.bg.n
	// One backing array for all planes: 5 state + 3×4 latch + 5×2×4
	// wavefront = 57 planes.
	backing := make([]uint64, 57*n)
	next := func() []uint64 {
		p := backing[:n:n]
		backing = backing[n:]
		return p
	}
	b.hot, b.errOut, b.fired, b.sentPair, b.granted = next(), next(), next(), next(), next()
	for d := 0; d < 4; d++ {
		b.growFrom[d], b.reqDirs[d], b.grants[d] = next(), next(), next()
	}
	for _, w := range []*bwavefront{&b.growW, &b.reqW, &b.grantW, &b.pairW, &b.pairBW} {
		for d := 0; d < 4; d++ {
			w.cur[d], w.nxt[d] = next(), next()
		}
	}
	b.laneSyn = make([]int, lanes)
	b.laneHot = make([]int, lanes)
	b.laneCountdown = make([]int, lanes)
	b.laneRetries = make([]int, lanes)
	b.lanePrio = make([]int, lanes)
	b.laneStats = make([]Stats, lanes)
	for l := range b.laneSyn {
		b.laneSyn[l] = -1
	}
	return b
}

// Name implements decoder.Decoder.
func (b *BatchMesh) Name() string { return "sfq-batch-" + b.variant.Name() }

// Variant returns the mesh's design variant.
func (b *BatchMesh) Variant() Variant { return b.variant }

// Lanes returns how many syndromes one DecodeBatchInto call advances
// concurrently.
func (b *BatchMesh) Lanes() int { return b.lanes }

// Words returns the mesh's plane width in 64-bit words (1 for the
// side > 64 scalar fallback).
func (b *BatchMesh) Words() int {
	if b.bg == nil {
		return 1
	}
	return b.bg.words
}

// BatchWidth implements decodepool.BatchDecoder.
func (b *BatchMesh) BatchWidth() int { return b.lanes }

// Stats returns the statistics of the most recent single-syndrome
// Decode/DecodeInto call. For batched decodes use LaneStats.
func (b *BatchMesh) Stats() Stats { return b.stat }

// BatchStats returns the per-syndrome statistics of the last
// DecodeBatchInto call, indexed like its syndromes. The slice is valid
// until the next decode.
func (b *BatchMesh) BatchStats() []Stats { return b.statsBuf[:b.lastN] }

// LaneStats returns the statistics of syndrome i of the last batch.
func (b *BatchMesh) LaneStats(i int) Stats { return b.statsBuf[i] }

// Reset returns the mesh to its idle state; pools call it before
// parking so no stale decode state crosses owners.
func (b *BatchMesh) Reset() {
	if b.scalarMesh != nil {
		b.scalarMesh.Reset()
	} else {
		b.resetAll()
	}
	b.stat = Stats{}
	b.lastN = 0
}

// FlushObs merges pending telemetry into the shared registry
// histograms (one cycle sample was recorded per lane decode).
func (b *BatchMesh) FlushObs() {
	if b.scalarMesh != nil {
		b.scalarMesh.FlushObs()
		return
	}
	b.obsCycles.Flush()
}

// compatible mirrors Mesh.compatible: pooled batch meshes accept any
// structurally identical graph.
func (b *BatchMesh) compatible(g *lattice.Graph) bool {
	if g == b.g {
		return true
	}
	return g.ErrorType() == b.g.ErrorType() &&
		g.Lattice().Distance() == b.g.Lattice().Distance() &&
		g.NumChecks() == b.g.NumChecks()
}

// Decode implements decoder.Decoder on the batch mesh (one lane used).
// The returned correction is private to the caller.
func (b *BatchMesh) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	if b.ownScratch == nil {
		b.ownScratch = decodepool.NewScratch()
	}
	c, err := b.DecodeInto(g, syn, b.ownScratch)
	if err != nil {
		return decoder.Correction{}, err
	}
	return decoder.Correction{Qubits: append([]int(nil), c.Qubits...)}, nil
}

// DecodeInto implements decodepool.IntoDecoder: a single-syndrome
// decode through lane 0, zero allocations in steady state. The
// correction aliases the scratch's batch buffer and is valid until the
// next decode through it.
func (b *BatchMesh) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	if b.one == nil {
		b.one = make([][]bool, 1)
	}
	b.one[0] = syn
	cs, err := b.DecodeBatchInto(g, b.one, s)
	b.one[0] = nil
	if err != nil {
		return decoder.Correction{}, err
	}
	b.stat = b.statsBuf[0]
	return cs[0], nil
}

// DecodeBatchInto decodes the syndromes through the lane-packed kernel,
// refilling lanes from the pending queue as they finish, and returns
// one Correction per syndrome (same order). Corrections and the
// returned slice alias the scratch's batch buffers and are valid until
// the next decode through the same scratch; per-syndrome Stats are
// available via BatchStats/LaneStats. Zero heap allocations in steady
// state.
func (b *BatchMesh) DecodeBatchInto(g *lattice.Graph, syns [][]bool, s *decodepool.Scratch) ([]decoder.Correction, error) {
	if !b.compatible(g) {
		return nil, fmt.Errorf("sfq: batch mesh bound to a different matching graph")
	}
	nc := b.g.NumChecks()
	for i, syn := range syns {
		if len(syn) != nc {
			return nil, fmt.Errorf("sfq: syndrome %d has %d checks, graph has %d", i, len(syn), nc)
		}
	}
	n := len(syns)
	if cap(b.statsBuf) < n {
		b.statsBuf = make([]Stats, n)
	} else {
		b.statsBuf = b.statsBuf[:n]
	}
	b.lastN = n
	spans := s.BatchSpans(n)
	if b.scalarMesh != nil {
		q := s.TakeBatchQubits()
		for i, syn := range syns {
			start := int32(len(q))
			var err error
			q, err = b.scalarMesh.decodeAppend(syn, q)
			if err != nil {
				s.PutBatchQubits(q)
				return nil, err
			}
			spans[i] = [2]int32{start, int32(len(q))}
			b.statsBuf[i] = b.scalarMesh.stats
		}
		s.PutBatchQubits(q)
		return batchCorrections(s, q, spans), nil
	}
	b.resetAll()
	b.syns, b.spans = syns, spans
	b.q = s.TakeBatchQubits()
	for l := 0; l < b.lanes && b.next < n; l++ {
		b.loadLaneNext(l)
	}
	for b.active > 0 {
		// Per-lane scalar control flow, checked between every step in
		// the scalar kernel's order: terminal, stall recovery, watchdog.
		for l := range b.laneSyn {
			if b.laneSyn[l] < 0 {
				continue
			}
			if b.laneHot[l] == 0 && b.pairW.curAny[b.bg.laneCol[l]]&b.bg.laneBits[l] == 0 && b.laneCountdown[l] == 0 {
				b.finalizeLane(l)
				continue
			}
			if b.laneCountdown[l] == 0 && b.laneQuiescent(l) {
				st := &b.laneStats[l]
				st.Stalls++
				if b.variant.Reset && b.laneRetries[l] < b.maxRetries {
					b.laneRetries[l]++
					st.Retries++
					b.setLanePrio(l, b.laneRetries[l])
					b.laneGlobalReset(l)
				} else if b.variant.Boundary {
					st.Unresolved = b.laneHot[l]
					b.drainLane(l)
					b.finalizeLane(l)
					continue
				} else {
					st.Unresolved = b.laneHot[l]
					b.finalizeLane(l)
					continue
				}
			}
			if b.laneStats[l].Cycles >= b.MaxCycles {
				b.laneStats[l].Unresolved = b.laneHot[l]
				if b.variant.Boundary {
					b.drainLane(l)
				}
				b.finalizeLane(l)
			}
		}
		if b.active == 0 {
			break
		}
		b.step()
	}
	q := b.q
	s.PutBatchQubits(q)
	b.q, b.syns, b.spans = nil, nil, nil
	return batchCorrections(s, q, spans), nil
}

// batchCorrections materializes the per-syndrome Correction views over
// the shared qubit buffer. Views are built only after all appends are
// done, so buffer re-growth mid-batch cannot invalidate earlier spans.
func batchCorrections(s *decodepool.Scratch, q []int, spans [][2]int32) []decoder.Correction {
	corr := s.BatchCorrections(len(spans))
	for i, sp := range spans {
		corr[i] = decoder.Correction{Qubits: q[sp[0]:sp[1]:sp[1]]}
	}
	return corr
}

// resetAll clears every plane and lane control.
func (b *BatchMesh) resetAll() {
	clearPlane(b.hot)
	clearPlane(b.errOut)
	clearPlane(b.fired)
	clearPlane(b.sentPair)
	clearPlane(b.granted)
	for d := 0; d < 4; d++ {
		clearPlane(b.growFrom[d])
		clearPlane(b.reqDirs[d])
		clearPlane(b.grants[d])
	}
	for _, w := range []*bwavefront{&b.growW, &b.reqW, &b.grantW, &b.pairW, &b.pairBW} {
		w.clearCur()
		w.nxtAny[0] = 1
		w.clearNext()
	}
	for l := range b.laneSyn {
		b.laneSyn[l] = -1
		b.laneHot[l] = 0
		b.laneCountdown[l] = 0
		b.laneRetries[l] = 0
		b.lanePrio[l] = 0
		b.laneStats[l] = Stats{}
	}
	b.anyPrio = 0
	b.fireDirty = [4]uint64{}
	b.hsDirty = [4]uint64{}
	b.next = 0
	b.active = 0
}

// loadLaneNext loads the next pending syndrome into idle lane l.
// Zero-hot syndromes finalize immediately (the scalar kernel never
// clocks the mesh for them); the first syndrome with hot checks is
// loaded and its grow wavefronts emitted into the current planes —
// exactly the pre-loop state of a scalar decode, so a lane loaded at
// global step T evolves identically to a scalar decode at local step 0.
func (b *BatchMesh) loadLaneNext(l int) {
	geo, bg := b.geo, b.bg
	col := bg.laneCol[l]
	lane0 := uint(l % bg.perWord * geo.m)
	for b.next < len(b.syns) {
		idx := b.next
		b.next++
		syn := b.syns[idx]
		hot := 0
		for ci, h := range syn {
			if !h {
				continue
			}
			cell := geo.cellOf[ci]
			b.hot[cell/geo.m*bg.words+col] |= uint64(1) << (lane0 + uint(cell%geo.m))
			hot++
		}
		if hot == 0 {
			off := int32(len(b.q))
			b.spans[idx] = [2]int32{off, off}
			b.statsBuf[idx] = Stats{}
			b.obsCycles.Observe(0)
			continue
		}
		b.laneSyn[l] = idx
		b.laneHot[l] = hot
		b.laneStats[l] = Stats{}
		// Emit grows in all four directions at every hot module of this
		// lane. The OR into curAny is exact (not a flag) — per-lane
		// quiescence tests depend on it.
		lane := bg.laneBits[l]
		var acc uint64
		for d := 0; d < 4; d++ {
			cur := b.growW.cur[d]
			for k := col; k < len(b.hot); k += bg.words {
				hl := b.hot[k] & lane
				cur[k] |= hl
				acc |= hl
			}
		}
		b.growW.curAny[col] |= acc
		b.active++
		return
	}
}

// finalizeLane extracts lane l's finished correction and Stats, records
// its telemetry sample (one per lane decode), scrubs the lane's bits
// out of every plane, and refills the lane from the pending queue.
func (b *BatchMesh) finalizeLane(l int) {
	idx := b.laneSyn[l]
	start := int32(len(b.q))
	b.extractLane(l)
	b.spans[idx] = [2]int32{start, int32(len(b.q))}
	b.statsBuf[idx] = b.laneStats[l]
	b.obsCycles.Observe(uint64(b.laneStats[l].Cycles))
	b.scrubLane(l)
	b.laneSyn[l] = -1
	b.active--
	b.loadLaneNext(l)
}

// extractLane appends lane l's correction to the batch qubit buffer in
// ascending cell order — the order the scalar kernels scan errOut.
func (b *BatchMesh) extractLane(l int) {
	geo, bg := b.geo, b.bg
	col := bg.laneCol[l]
	shift := uint(l % bg.perWord * geo.m)
	for r := 0; r < geo.rows; r++ {
		w := b.errOut[r*bg.words+col] >> shift & bg.laneLow
		base := r * geo.m
		for w != 0 {
			c := bits.TrailingZeros64(w)
			w &= w - 1
			if q0 := geo.dataQ[base+c]; q0 >= 0 {
				b.q = append(b.q, q0)
			}
		}
	}
}

// maskPlaneCol clears the bits outside mask from every word of the
// plane's word column col (of the given stride).
func maskPlaneCol(p []uint64, mask uint64, col, words int) {
	for k := col; k < len(p); k += words {
		p[k] &= mask
	}
}

// maskLaneCol clears one lane's bits from the in-flight planes, keeping
// curAny[col] an exact OR of the column's remaining plane contents
// (lane masks of distinct lanes in one column are disjoint).
func (w *bwavefront) maskLaneCol(lane uint64, col, words int) {
	if w.curAny[col]&lane == 0 {
		return
	}
	for d := range w.cur {
		maskPlaneCol(w.cur[d], ^lane, col, words)
	}
	w.curAny[col] &^= lane
}

// scrubLane erases every trace of lane l so the lane is ready for the
// next syndrome. Next-cycle planes need no scrubbing: they hold only
// two-cycles-ago state that clearNext wipes before any phase reads it.
func (b *BatchMesh) scrubLane(l int) {
	bg := b.bg
	lane := bg.laneBits[l]
	col := bg.laneCol[l]
	mask := ^lane
	maskPlaneCol(b.hot, mask, col, bg.words)
	maskPlaneCol(b.errOut, mask, col, bg.words)
	maskPlaneCol(b.fired, mask, col, bg.words)
	maskPlaneCol(b.sentPair, mask, col, bg.words)
	maskPlaneCol(b.granted, mask, col, bg.words)
	for d := 0; d < 4; d++ {
		maskPlaneCol(b.growFrom[d], mask, col, bg.words)
		maskPlaneCol(b.reqDirs[d], mask, col, bg.words)
		maskPlaneCol(b.grants[d], mask, col, bg.words)
	}
	b.growW.maskLaneCol(lane, col, bg.words)
	b.reqW.maskLaneCol(lane, col, bg.words)
	b.grantW.maskLaneCol(lane, col, bg.words)
	b.pairW.maskLaneCol(lane, col, bg.words)
	b.pairBW.maskLaneCol(lane, col, bg.words)
	b.laneHot[l] = 0
	b.laneCountdown[l] = 0
	b.laneRetries[l] = 0
	b.setLanePrio(l, 0)
}

// laneGlobalReset is the per-lane globalReset: everything but the
// lane's pair propagation and error outputs is cleared and the lane's
// inputs block for ResetDepth cycles.
func (b *BatchMesh) laneGlobalReset(l int) {
	bg := b.bg
	lane := bg.laneBits[l]
	col := bg.laneCol[l]
	mask := ^lane
	for d := 0; d < 4; d++ {
		maskPlaneCol(b.growFrom[d], mask, col, bg.words)
		maskPlaneCol(b.reqDirs[d], mask, col, bg.words)
		maskPlaneCol(b.grants[d], mask, col, bg.words)
	}
	maskPlaneCol(b.fired, mask, col, bg.words)
	maskPlaneCol(b.sentPair, mask, col, bg.words)
	maskPlaneCol(b.granted, mask, col, bg.words)
	b.growW.maskLaneCol(lane, col, bg.words)
	b.reqW.maskLaneCol(lane, col, bg.words)
	b.grantW.maskLaneCol(lane, col, bg.words)
	// pair planes and errOut survive by design.
	b.laneCountdown[l] = ResetDepth
}

// setLanePrio updates a lane's rotated grant priority, maintaining the
// count of lanes away from the fixed hardware order (the fast-path gate
// in moveReqs).
func (b *BatchMesh) setLanePrio(l, v int) {
	if (b.lanePrio[l] == 0) != (v == 0) {
		if v == 0 {
			b.anyPrio--
		} else {
			b.anyPrio++
		}
	}
	b.lanePrio[l] = v
}

// laneQuiescent reports whether lane l has no signal of any kind in
// flight. Exact because the any flags are exact ORs (see type comment).
func (b *BatchMesh) laneQuiescent(l int) bool {
	col := b.bg.laneCol[l]
	return (b.growW.curAny[col]|b.reqW.curAny[col]|b.grantW.curAny[col]|b.pairW.curAny[col])&
		b.bg.laneBits[l] == 0
}

// step advances every active lane one clock. The shared phases need no
// per-lane blocking: a lane mid-reset has empty grow/req/grant planes
// and latches (laneGlobalReset cleared them), so the input phases are
// natural no-ops for it, while pair signals keep propagating — exactly
// the scalar kernel's blocked branch.
func (b *BatchMesh) step() {
	b.growW.clearNext()
	b.reqW.clearNext()
	b.grantW.clearNext()
	b.pairW.clearNext()
	b.pairBW.clearNext()

	// Empty-wavefront phases are skipped outright — exact, since a phase
	// fed an all-zero wavefront writes nothing (the any flags are exact).
	var done uint64
	if b.growW.anyCur() != 0 {
		b.moveGrows()
	}
	if b.reqW.anyCur() != 0 {
		b.moveReqs()
	}
	if b.grantW.anyCur() != 0 {
		b.moveGrants()
	}
	if b.pairW.anyCur() != 0 {
		done = b.movePairs()
	}
	b.fireComplete()

	for l, cd := range b.laneCountdown {
		if cd == 0 {
			continue
		}
		b.laneCountdown[l] = cd - 1
		if cd == 1 {
			// The lane's blocking is over; its surviving hot modules
			// grow again next cycle.
			bg := b.bg
			lane := bg.laneBits[l]
			col := bg.laneCol[l]
			var acc uint64
			for d := 0; d < 4; d++ {
				nxt := b.growW.nxt[d]
				for k := col; k < len(b.hot); k += bg.words {
					hl := b.hot[k] & lane
					nxt[k] |= hl
					acc |= hl
				}
			}
			b.growW.nxtAny[col] |= acc
		}
	}

	b.growW.swap()
	b.reqW.swap()
	b.grantW.swap()
	b.pairW.swap()
	b.pairBW.swap()
	for l, idx := range b.laneSyn {
		if idx >= 0 {
			b.laneStats[l].Cycles++
		}
	}
	if done != 0 && b.variant.Reset {
		for l := range b.laneSyn {
			if done&(uint64(1)<<uint(l)) != 0 {
				b.laneGlobalReset(l)
				b.laneStats[l].Resets++
			}
		}
	}
}

// drainLane force-pairs lane l's remaining hot modules with their
// nearest boundary — planeState.drainToBoundary confined to one lane,
// same ascending cell order, charging the lane's own Stats.
func (b *BatchMesh) drainLane(l int) {
	geo, bg := b.geo, b.bg
	st := &b.laneStats[l]
	col := bg.laneCol[l]
	shift := uint(l % bg.perWord * geo.m)
	for r := 0; r < geo.rows; r++ {
		w := b.hot[r*bg.words+col] >> shift & bg.laneLow
		for w != 0 {
			c := bits.TrailingZeros64(w)
			w &= w - 1
			i := r*geo.m + c
			d, hops := geo.drainDir(i)
			for j := geo.neighbor(i, d); j >= 0 && geo.kind[j] == cellInterior; j = geo.neighbor(j, d) {
				b.errOut[j/geo.m*bg.words+col] ^= uint64(1) << (shift + uint(j%geo.m))
			}
			b.hot[r*bg.words+col] &^= uint64(1) << (shift + uint(c))
			b.laneHot[l]--
			st.Fallbacks++
			st.Pairings++
			st.BoundaryPairings++
			st.Cycles += 3*hops + ResetDepth
		}
	}
}

var (
	_ decoder.Decoder         = (*BatchMesh)(nil)
	_ decodepool.IntoDecoder  = (*BatchMesh)(nil)
	_ decodepool.BatchDecoder = (*BatchMesh)(nil)
)
