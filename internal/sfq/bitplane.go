package sfq

import (
	"math/bits"
)

// The bit-plane kernel packs every mesh predicate into []uint64 planes —
// one bit per cell, one plane per (signal class × direction) plus the
// hot/fired/granted/sentPair/errOut state — and advances wavefronts with
// word-parallel shift-and-mask operations over whole rows. It is the
// scalar production kernel and a cycle-exact re-expression of the
// original struct-of-bools kernel, which the tests keep as an
// independent oracle: every phase computes the same per-cell
// transition, just 64 cells per instruction, and the conformance suite
// pins corrections and Stats bit-identical.
//
// Two scan-order details of the legacy kernel are load-bearing and
// preserved here:
//
//   - The legacy per-cell loops process signal sources in ascending cell
//     index, so when several signals converge on one destination in one
//     cycle they arrive ordered from-north, from-west, from-east,
//     from-south (sources n-m, n-1, n+1, n+m). Phases with
//     order-sensitive destination state (movePairs clearing hot,
//     moveGrants consuming at boundaries) therefore process travel
//     directions in the order [South, East, West, North].
//   - The rotated stall-retry grant priority offsets by (retry + cell
//     index) % 4, which is cell-dependent; the kernel splits eligible
//     cells into four index-residue classes (geo.classMask) and runs the
//     rotated priority encoding per class.
//
// Quiescence detection is O(1): each wavefront keeps an OR-accumulator
// of every word written this cycle, and the hot population is a
// maintained counter, so the per-cycle anySignal/countHot scans of the
// legacy kernel disappear.

// pairOrder is the travel-direction processing order that reproduces the
// legacy kernel's ascending-source-index arrival order at any shared
// destination cell.
var pairOrder = [4]Dir{South, East, West, North}

// grantPrio is the hardware grant priority (entry directions).
var grantPrio = [4]Dir{North, West, East, South}

// wavefront is the double-buffered plane set of one signal class. any
// flags are OR-accumulators over every word written into the respective
// plane set; they make quiescence checks O(1) and let clearNext skip
// planes that are already zero.
type wavefront struct {
	cur, nxt       [4][]uint64
	curAny, nxtAny uint64
}

func (w *wavefront) swap() {
	w.cur, w.nxt = w.nxt, w.cur
	w.curAny, w.nxtAny = w.nxtAny, w.curAny
}

// clearNext zeroes the next-cycle planes (stale state from two cycles
// ago) if anything was ever written into them.
func (w *wavefront) clearNext() {
	if w.nxtAny == 0 {
		return
	}
	for d := range w.nxt {
		clearPlane(w.nxt[d])
	}
	w.nxtAny = 0
}

// clearCur zeroes the in-flight planes (globalReset).
func (w *wavefront) clearCur() {
	if w.curAny == 0 {
		return
	}
	for d := range w.cur {
		clearPlane(w.cur[d])
	}
	w.curAny = 0
}

// planeState is the per-mesh state of the bit-plane kernel.
type planeState struct {
	mesh *Mesh
	geo  *meshGeom

	// Persistent per-decode module state.
	hot, errOut, fired, sentPair, granted []uint64
	growFrom, reqDirs, grants             [4][]uint64

	// Signals in flight, double-buffered, indexed by travel direction
	// (pairB carries boundary provenance alongside pair).
	growW, reqW, grantW, pairW, pairBW wavefront

	// Per-cycle scratch.
	sh         [4][]uint64 // shifted arrival planes
	tmpA, tmpB []uint64
}

func newPlaneState(m *Mesh) *planeState {
	geo := m.geo
	// One backing array for all planes: 5 state + 3×4 latch + 5×2×4
	// wavefront + 4 shift scratch + 2 temp = 63 planes.
	backing := make([]uint64, 63*geo.pw)
	next := func() []uint64 {
		p := backing[:geo.pw:geo.pw]
		backing = backing[geo.pw:]
		return p
	}
	ps := &planeState{mesh: m, geo: geo}
	ps.hot, ps.errOut, ps.fired, ps.sentPair, ps.granted = next(), next(), next(), next(), next()
	for d := 0; d < 4; d++ {
		ps.growFrom[d], ps.reqDirs[d], ps.grants[d] = next(), next(), next()
		ps.sh[d] = next()
	}
	for _, w := range []*wavefront{&ps.growW, &ps.reqW, &ps.grantW, &ps.pairW, &ps.pairBW} {
		for d := 0; d < 4; d++ {
			w.cur[d], w.nxt[d] = next(), next()
		}
	}
	ps.tmpA, ps.tmpB = next(), next()
	return ps
}

// reset clears all per-decode state.
func (ps *planeState) reset() {
	clearPlane(ps.hot)
	clearPlane(ps.errOut)
	clearPlane(ps.fired)
	clearPlane(ps.sentPair)
	clearPlane(ps.granted)
	for d := 0; d < 4; d++ {
		clearPlane(ps.growFrom[d])
		clearPlane(ps.reqDirs[d])
		clearPlane(ps.grants[d])
	}
	for _, w := range []*wavefront{&ps.growW, &ps.reqW, &ps.grantW, &ps.pairW, &ps.pairBW} {
		w.clearCur()
		// Mark next dirty so clearNext wipes any state a previous
		// aborted decode left behind.
		w.nxtAny = 1
		w.clearNext()
	}
	m := ps.mesh
	m.hotCount = 0
	m.resetCountdown = 0
	m.priorityOffset = 0
	m.stats = Stats{}
}

// decodeAppend is the bit-plane decode core; same contract as
// Mesh.decodeAppend.
func (ps *planeState) decodeAppend(syn []bool, q []int) ([]int, error) {
	m, geo := ps.mesh, ps.geo
	ps.reset()
	for ci, h := range syn {
		if h {
			setPlaneBit(geo, ps.hot, geo.cellOf[ci])
			m.hotCount++
		}
	}
	if m.hotCount == 0 {
		return q, nil
	}
	// Emit grows in all four directions at every hot module.
	for d := 0; d < 4; d++ {
		copy(ps.growW.cur[d], ps.hot)
	}
	ps.growW.curAny = 1
	retries := 0
	for {
		if m.hotCount == 0 && ps.pairW.curAny == 0 && m.resetCountdown == 0 {
			break // every syndrome paired and every chain fully marked
		}
		if m.resetCountdown == 0 && ps.quiescent() {
			// Stalled with hot modules left: recover with a global
			// reset and a rotated grant priority, or give up.
			m.stats.Stalls++
			if m.variant.Reset && retries < m.maxRetries {
				retries++
				m.stats.Retries++
				m.priorityOffset = retries
				ps.globalReset()
			} else if m.variant.Boundary {
				m.stats.Unresolved = m.hotCount
				ps.drainToBoundary()
				break
			} else {
				m.stats.Unresolved = m.hotCount
				break
			}
		}
		if m.stats.Cycles >= m.MaxCycles {
			m.stats.Unresolved = m.hotCount
			if m.variant.Boundary {
				ps.drainToBoundary()
			}
			break
		}
		ps.step()
		if m.tracer != nil {
			m.tracer(m.stats.Cycles, m.Render())
		}
	}
	// Extract the correction in ascending cell order (rows, then
	// columns) — the same order the legacy kernel scans errOut.
	for r := 0; r < geo.rows; r++ {
		base := r * geo.m
		for w := 0; w < geo.words; w++ {
			word := ps.errOut[r*geo.words+w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				if q0 := geo.dataQ[base+w*64+b]; q0 >= 0 {
					q = append(q, q0)
				}
			}
		}
	}
	return q, nil
}

// quiescent reports whether no signal of any kind is in flight.
func (ps *planeState) quiescent() bool {
	return ps.growW.curAny|ps.reqW.curAny|ps.grantW.curAny|ps.pairW.curAny == 0
}

// globalReset implements the §VI-A reset: everything but pair
// propagation and error outputs is cleared and module inputs block for
// ResetDepth cycles (the circuit depth).
func (ps *planeState) globalReset() {
	for d := 0; d < 4; d++ {
		clearPlane(ps.growFrom[d])
		clearPlane(ps.reqDirs[d])
		clearPlane(ps.grants[d])
	}
	clearPlane(ps.fired)
	clearPlane(ps.sentPair)
	clearPlane(ps.granted)
	ps.growW.clearCur()
	ps.reqW.clearCur()
	ps.grantW.clearCur()
	// pair planes and errOut survive by design.
	ps.mesh.resetCountdown = ResetDepth
}

// step advances the mesh one clock.
func (ps *planeState) step() {
	m := ps.mesh
	ps.growW.clearNext()
	ps.reqW.clearNext()
	ps.grantW.clearNext()
	ps.pairW.clearNext()
	ps.pairBW.clearNext()

	pairingDone := false
	if m.resetCountdown > 0 {
		// Inputs blocked: only pair signals propagate.
		pairingDone = ps.movePairs()
		m.resetCountdown--
		if m.resetCountdown == 0 {
			// Blocking over; surviving hot modules grow again.
			var acc uint64
			for d := 0; d < 4; d++ {
				nxt := ps.growW.nxt[d]
				for k, h := range ps.hot {
					nxt[k] |= h
					acc |= h
				}
			}
			ps.growW.nxtAny |= acc
		}
	} else {
		ps.moveGrows()
		ps.moveReqs()
		ps.moveGrants()
		pairingDone = ps.movePairs()
		ps.fireIntermediates()
		ps.completeHandshakes()
	}

	ps.growW.swap()
	ps.reqW.swap()
	ps.grantW.swap()
	ps.pairW.swap()
	ps.pairBW.swap()
	m.stats.Cycles++

	if pairingDone && m.variant.Reset {
		ps.globalReset()
		m.stats.Resets++
	}
}

// moveGrows advances grow wavefronts one module and latches arrivals.
// Opposing wavefronts annihilate where they meet: a grow signal does not
// continue into territory an opposite-direction grow has already swept,
// so the meeting module is the unique intermediate on the line — without
// this, the two fronts would latch every module between the endpoints
// and flood the handshake with spurious intermediates. All arrivals
// latch into growFrom before propagation is decided, so head-on
// meetings stop both fronts symmetrically.
func (ps *planeState) moveGrows() {
	geo, v := ps.geo, ps.mesh.variant
	for d := 0; d < 4; d++ {
		geo.shiftInto(ps.sh[d], ps.growW.cur[d], Dir(d))
	}
	// Pass 1: latch interior arrivals by entry side.
	for d := 0; d < 4; d++ {
		sh := ps.sh[d]
		gf := ps.growFrom[Dir(d).Opposite()]
		for k, in := range geo.interior {
			gf[k] |= sh[k] & in
		}
	}
	// Pass 2: propagate into territory no opposite front has swept.
	for d := 0; d < 4; d++ {
		sh := ps.sh[d]
		gf := ps.growFrom[d]
		nxt := ps.growW.nxt[d]
		var acc uint64
		for k, in := range geo.interior {
			g := sh[k] & in &^ gf[k]
			nxt[k] |= g
			acc |= g
		}
		ps.growW.nxtAny |= acc
	}
	if !v.Boundary {
		return
	}
	// Boundary modules fire on first arrival. Each boundary cell has
	// exactly one interior neighbor, so at most one front can reach it
	// per cycle and no arrival-order tie-break is needed.
	for d := 0; d < 4; d++ {
		e := Dir(d).Opposite()
		sh := ps.sh[d]
		for k, bd := range geo.boundary {
			b := sh[k] & bd &^ ps.fired[k]
			if b == 0 {
				continue
			}
			ps.fired[k] |= b
			ps.reqDirs[e][k] |= b
			if v.ReqGrant {
				ps.reqW.nxt[e][k] |= b
				ps.reqW.nxtAny |= b
			} else {
				ps.sentPair[k] |= b
				ps.pairW.nxt[e][k] |= b
				ps.pairW.nxtAny |= b
				ps.pairBW.nxt[e][k] |= b
				ps.pairBW.nxtAny |= b
			}
		}
	}
}

// moveReqs advances pair requests; requests stop at hot modules, which
// grant at most one, by the (possibly rotated) hardware priority.
func (ps *planeState) moveReqs() {
	geo := ps.geo
	m := ps.mesh
	// Advance: requests pass through non-hot interior modules and latch
	// at hot ones. After this loop ps.sh[d] holds the arrivals that
	// latched at hot modules (travel direction d, entry Opposite(d)).
	for d := 0; d < 4; d++ {
		geo.shiftInto(ps.sh[d], ps.reqW.cur[d], Dir(d))
		sh := ps.sh[d]
		nxt := ps.reqW.nxt[d]
		var acc uint64
		for k, in := range geo.interior {
			mv := sh[k] & in
			pass := mv &^ ps.hot[k]
			sh[k] = mv & ps.hot[k]
			nxt[k] |= pass
			acc |= pass
		}
		ps.reqW.nxtAny |= acc
	}
	// Grant policy: one grant per hot module, never re-granting. The
	// grant travels back out the entry side of the winning request, so
	// arrival planes are addressed by entry: arrival[e] = sh[opp(e)].
	base := m.priorityOffset
	for k := range ps.tmpA {
		any := ps.sh[0][k] | ps.sh[1][k] | ps.sh[2][k] | ps.sh[3][k]
		elig := any & ps.hot[k] &^ ps.granted[k]
		if elig == 0 {
			continue
		}
		if base == 0 {
			var taken uint64
			for _, e := range grantPrio {
				c := ps.sh[e.Opposite()][k] & elig &^ taken
				if c != 0 {
					ps.grantW.nxt[e][k] |= c
					ps.grantW.nxtAny |= c
					taken |= c
				}
			}
		} else {
			// Rotated retry priority: the offset is (retry + cell
			// index) % 4, so encode per index-residue class.
			for cls := 0; cls < 4; cls++ {
				ecls := elig & geo.classMask[cls][k]
				if ecls == 0 {
					continue
				}
				off := (base + cls) % 4
				var taken uint64
				for j := 0; j < 4; j++ {
					e := grantPrio[(j+off)%4]
					c := ps.sh[e.Opposite()][k] & ecls &^ taken
					if c != 0 {
						ps.grantW.nxt[e][k] |= c
						ps.grantW.nxtAny |= c
						taken |= c
					}
				}
			}
		}
		ps.granted[k] |= elig
	}
}

// moveGrants advances pair grants; a grant is consumed by the first
// module that requested along its line. Directions run in legacy
// arrival order (see pairOrder) — irrelevant for interior consumption
// (per-entry latches are independent) but kept for the boundary
// sentPair latch.
func (ps *planeState) moveGrants() {
	geo := ps.geo
	for _, d := range pairOrder {
		geo.shiftInto(ps.tmpA, ps.grantW.cur[d], d)
		e := d.Opposite()
		nxt := ps.grantW.nxt[d]
		var acc uint64
		for k, in := range geo.interior {
			mv := ps.tmpA[k]
			if mv == 0 {
				continue
			}
			mvI := mv & in
			cons := mvI & ps.fired[k] & ps.reqDirs[e][k] &^ ps.grants[e][k]
			ps.grants[e][k] |= cons
			pass := mvI &^ cons
			nxt[k] |= pass
			acc |= pass
			bc := mv & geo.boundary[k] & ps.fired[k] & ps.reqDirs[e][k] &^ ps.sentPair[k]
			if bc != 0 {
				ps.sentPair[k] |= bc
				ps.pairW.nxt[e][k] |= bc
				ps.pairW.nxtAny |= bc
				ps.pairBW.nxt[e][k] |= bc
				ps.pairBW.nxtAny |= bc
			}
		}
		ps.grantW.nxtAny |= acc
	}
}

// movePairs advances pair signals, toggling the error output of every
// module they reach (chains from successive pairings that cross the
// same data qubit must cancel, Pauli operators being self-inverse) and
// clearing hot modules they terminate at. Directions run in legacy
// arrival order so that when two pair signals reach one hot module in
// the same cycle, the same one terminates there and the same one passes
// through.
func (ps *planeState) movePairs() bool {
	geo := ps.geo
	m := ps.mesh
	done := false
	for _, d := range pairOrder {
		geo.shiftInto(ps.tmpA, ps.pairW.cur[d], d)
		geo.shiftInto(ps.tmpB, ps.pairBW.cur[d], d)
		nxt, nxtB := ps.pairW.nxt[d], ps.pairBW.nxt[d]
		var acc, accB uint64
		for k, in := range geo.interior {
			mv := ps.tmpA[k] & in
			if mv == 0 {
				continue
			}
			ps.errOut[k] ^= mv
			hits := mv & ps.hot[k]
			if hits != 0 {
				ps.hot[k] &^= hits
				nh := bits.OnesCount64(hits)
				m.hotCount -= nh
				m.stats.Pairings += nh
				m.stats.BoundaryPairings += bits.OnesCount64(hits & ps.tmpB[k])
				done = true
			}
			pass := mv &^ hits
			nxt[k] |= pass
			acc |= pass
			bp := ps.tmpB[k] & pass
			nxtB[k] |= bp
			accB |= bp
		}
		ps.pairW.nxtAny |= acc
		ps.pairBW.nxtAny |= accB
	}
	return done
}

// fireIntermediates turns modules holding grows from two distinct
// directions into intermediates, with the legacy corner priority:
// West+East, then North+South, then North+West, then North+East.
func (ps *planeState) fireIntermediates() {
	geo, v := ps.geo, ps.mesh.variant
	gfN, gfE, gfS, gfW := ps.growFrom[North], ps.growFrom[East], ps.growFrom[South], ps.growFrom[West]
	for k, in := range geo.interior {
		elig := in &^ ps.fired[k] &^ ps.hot[k]
		if elig == 0 {
			continue
		}
		cWE := elig & gfW[k] & gfE[k]
		rem := elig &^ cWE
		cNS := rem & gfN[k] & gfS[k]
		rem &^= cNS
		cNW := rem & gfN[k] & gfW[k]
		rem &^= cNW
		cNE := rem & gfN[k] & gfE[k]
		firedNew := cWE | cNS | cNW | cNE
		if firedNew == 0 {
			continue
		}
		ps.fired[k] |= firedNew
		setN := cNS | cNW | cNE
		setS := cNS
		setE := cWE | cNE
		setW := cWE | cNW
		ps.reqDirs[North][k] |= setN
		ps.reqDirs[South][k] |= setS
		ps.reqDirs[East][k] |= setE
		ps.reqDirs[West][k] |= setW
		if v.ReqGrant {
			ps.reqW.nxt[North][k] |= setN
			ps.reqW.nxt[South][k] |= setS
			ps.reqW.nxt[East][k] |= setE
			ps.reqW.nxt[West][k] |= setW
			ps.reqW.nxtAny |= firedNew
		} else {
			ps.sentPair[k] |= firedNew
			ps.errOut[k] ^= firedNew
			ps.pairW.nxt[North][k] |= setN
			ps.pairW.nxt[South][k] |= setS
			ps.pairW.nxt[East][k] |= setE
			ps.pairW.nxt[West][k] |= setW
			ps.pairW.nxtAny |= firedNew
		}
	}
}

// completeHandshakes lets intermediates holding grants from both request
// directions emit their pair signals.
func (ps *planeState) completeHandshakes() {
	if !ps.mesh.variant.ReqGrant {
		return
	}
	geo := ps.geo
	for k, in := range geo.interior {
		pend := (ps.reqDirs[0][k] &^ ps.grants[0][k]) |
			(ps.reqDirs[1][k] &^ ps.grants[1][k]) |
			(ps.reqDirs[2][k] &^ ps.grants[2][k]) |
			(ps.reqDirs[3][k] &^ ps.grants[3][k])
		ready := (ps.fired[k] &^ ps.sentPair[k]) & in &^ pend
		if ready == 0 {
			continue
		}
		ps.sentPair[k] |= ready
		ps.errOut[k] ^= ready
		for d := 0; d < 4; d++ {
			p := ready & ps.reqDirs[d][k]
			ps.pairW.nxt[d][k] |= p
			ps.pairW.nxtAny |= p
		}
	}
}

// drainToBoundary force-pairs remaining hot modules with their nearest
// boundary, toggling the error outputs along the straight-line chain
// and charging the cycles the drive would take (request, grant and pair
// traversals plus a reset per pairing). Hot cells go in ascending
// order.
func (ps *planeState) drainToBoundary() {
	geo := ps.geo
	m := ps.mesh
	for r := 0; r < geo.rows; r++ {
		for w := 0; w < geo.words; w++ {
			word := ps.hot[r*geo.words+w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				i := r*geo.m + w*64 + b
				d, hops := geo.drainDir(i)
				for j := geo.neighbor(i, d); j >= 0 && geo.kind[j] == cellInterior; j = geo.neighbor(j, d) {
					ps.errOut[j/geo.m*geo.words+(j%geo.m)>>6] ^= uint64(1) << (uint(j%geo.m) & 63)
				}
				ps.hot[r*geo.words+w] &^= uint64(1) << (uint(w*64+b) & 63)
				m.hotCount--
				m.stats.Fallbacks++
				m.stats.Pairings++
				m.stats.BoundaryPairings++
				m.stats.Cycles += 3*hops + ResetDepth
			}
		}
	}
}
