package sfq

import (
	"fmt"

	"repro/internal/decoder"
	"repro/internal/lattice"
)

// legacyMesh is the original struct-of-bools mesh kernel, kept only as
// the independent oracle the production kernels are diffed against
// (TestBitplaneConformance*, TestStatsExitPathParity, FuzzMesh). It
// models the same hardware one cell and one direction at a time — no
// word packing, no shifts, no lane masks — so a bug in the bit-plane
// arithmetic cannot hide in both sides of a comparison.
type legacyMesh struct {
	g       *lattice.Graph
	variant Variant
	geo     *meshGeom

	// MaxCycles bounds one decode, as Mesh.MaxCycles does.
	MaxCycles  int
	maxRetries int

	hot      []bool
	growFrom [][4]bool
	fired    []bool
	reqDirs  [][4]bool
	grants   [][4]bool
	sentPair []bool
	granted  []bool
	errOut   []bool

	grow, req, grant, pair     [][4]bool // signals in flight, by direction of travel
	growN, reqN, grantN, pairN [][4]bool // next-cycle buffers
	pairB, pairBN              [][4]bool // provenance: pair signal originated at a boundary module

	reqArrived [][4]bool     // scratch: request arrivals at hot modules this cycle
	growArr    []growArrival // scratch: grow arrivals, reused across cycles
	reqArrAt   []int         // scratch: cells with request arrivals, reused

	hotCount       int
	resetCountdown int
	priorityOffset int
	stats          Stats
}

type growArrival struct {
	n int
	d Dir
}

// newLegacy builds an oracle mesh for the matching graph with the same
// defaults as New.
func newLegacy(g *lattice.Graph, v Variant) *legacyMesh {
	geo := geomFor(g)
	n := geo.n
	return &legacyMesh{
		g:          g,
		variant:    v,
		geo:        geo,
		MaxCycles:  200 * geo.m,
		maxRetries: 3,
		hot:        make([]bool, n),
		growFrom:   make([][4]bool, n),
		fired:      make([]bool, n),
		reqDirs:    make([][4]bool, n),
		grants:     make([][4]bool, n),
		sentPair:   make([]bool, n),
		granted:    make([]bool, n),
		errOut:     make([]bool, n),
		grow:       make([][4]bool, n),
		req:        make([][4]bool, n),
		grant:      make([][4]bool, n),
		pair:       make([][4]bool, n),
		growN:      make([][4]bool, n),
		reqN:       make([][4]bool, n),
		grantN:     make([][4]bool, n),
		pairN:      make([][4]bool, n),
		pairB:      make([][4]bool, n),
		pairBN:     make([][4]bool, n),
		reqArrived: make([][4]bool, n),
	}
}

// DecodeWithStats mirrors Mesh.DecodeWithStats.
func (m *legacyMesh) DecodeWithStats(syn []bool) (decoder.Correction, Stats, error) {
	if len(syn) != m.g.NumChecks() {
		return decoder.Correction{}, Stats{}, fmt.Errorf("sfq: syndrome has %d checks, graph has %d", len(syn), m.g.NumChecks())
	}
	q, err := m.decodeAppend(syn, nil)
	if err != nil {
		return decoder.Correction{}, Stats{}, err
	}
	return decoder.Correction{Qubits: q}, m.stats, nil
}

// decodeAppend is the oracle's decode core; same contract as
// Mesh.decodeAppend.
func (m *legacyMesh) decodeAppend(syn []bool, q []int) ([]int, error) {
	m.reset()
	for ci, h := range syn {
		if h {
			m.hot[m.geo.cellOf[ci]] = true
			m.hotCount++
		}
	}
	if m.hotCount == 0 {
		return q, nil
	}
	m.emitGrows()
	retries := 0
	for {
		if !m.anyHot() && !m.anySignal(m.pair) && m.resetCountdown == 0 {
			break // every syndrome paired and every chain fully marked
		}
		if m.resetCountdown == 0 && m.quiescent() {
			// Stalled with hot modules left: recover with a global
			// reset and a rotated grant priority, or give up.
			m.stats.Stalls++
			if m.variant.Reset && retries < m.maxRetries {
				retries++
				m.stats.Retries++
				m.priorityOffset = retries
				m.globalReset()
			} else if m.variant.Boundary {
				// Watchdog: drive every remaining hot module's chain
				// straight to its nearest boundary. This keeps the
				// final design live on grant deadlocks the handshake
				// retries could not break. The drained modules still
				// count as Unresolved: the protocol failed on them.
				m.stats.Unresolved = m.countHot()
				m.drainToBoundary()
				break
			} else {
				m.stats.Unresolved = m.countHot()
				break
			}
		}
		if m.stats.Cycles >= m.MaxCycles {
			m.stats.Unresolved = m.countHot()
			if m.variant.Boundary {
				m.drainToBoundary()
			}
			break
		}
		m.step()
	}
	for i, e := range m.errOut {
		if e && m.geo.dataQ[i] >= 0 {
			q = append(q, m.geo.dataQ[i])
		}
	}
	return q, nil
}

// reset clears all per-decode state.
func (m *legacyMesh) reset() {
	for i := range m.hot {
		m.hot[i] = false
		m.growFrom[i] = [4]bool{}
		m.fired[i] = false
		m.reqDirs[i] = [4]bool{}
		m.grants[i] = [4]bool{}
		m.sentPair[i] = false
		m.granted[i] = false
		m.errOut[i] = false
		m.grow[i] = [4]bool{}
		m.req[i] = [4]bool{}
		m.grant[i] = [4]bool{}
		m.pair[i] = [4]bool{}
		m.pairB[i] = [4]bool{}
	}
	m.hotCount = 0
	m.resetCountdown = 0
	m.priorityOffset = 0
	m.stats = Stats{}
}

// emitGrows loads a grow wavefront in all four directions at every hot
// module.
func (m *legacyMesh) emitGrows() {
	for i, h := range m.hot {
		if h {
			m.grow[i] = [4]bool{true, true, true, true}
		}
	}
}

func (m *legacyMesh) anyHot() bool { return m.hotCount > 0 }

func (m *legacyMesh) countHot() int { return m.hotCount }

func (m *legacyMesh) anySignal(buf [][4]bool) bool {
	for i := range buf {
		if buf[i] != ([4]bool{}) {
			return true
		}
	}
	return false
}

// quiescent reports whether no signal of any kind is in flight.
func (m *legacyMesh) quiescent() bool {
	return !m.anySignal(m.grow) && !m.anySignal(m.req) &&
		!m.anySignal(m.grant) && !m.anySignal(m.pair)
}

// globalReset implements the §VI-A reset: every subcircuit except pair
// propagation is cleared and module inputs are blocked for ResetDepth
// cycles.
func (m *legacyMesh) globalReset() {
	for i := range m.hot {
		m.growFrom[i] = [4]bool{}
		m.fired[i] = false
		m.reqDirs[i] = [4]bool{}
		m.grants[i] = [4]bool{}
		m.sentPair[i] = false
		m.granted[i] = false
		m.grow[i] = [4]bool{}
		m.req[i] = [4]bool{}
		m.grant[i] = [4]bool{}
		// pair and errOut survive by design.
	}
	m.resetCountdown = ResetDepth
}

// step advances the mesh one clock.
func (m *legacyMesh) step() {
	clearBuf(m.growN)
	clearBuf(m.reqN)
	clearBuf(m.grantN)
	clearBuf(m.pairN)
	clearBuf(m.pairBN)

	pairingDone := false
	if m.resetCountdown > 0 {
		// Inputs blocked: only pair signals propagate.
		pairingDone = m.movePairs()
		m.resetCountdown--
		if m.resetCountdown == 0 {
			// Blocking over; surviving hot modules grow again.
			for i, h := range m.hot {
				if h {
					m.growN[i] = [4]bool{true, true, true, true}
				}
			}
		}
	} else {
		m.moveGrows()
		m.moveReqs()
		m.moveGrants()
		pairingDone = m.movePairs()
		m.fireIntermediates()
		m.completeHandshakes()
	}

	m.grow, m.growN = m.growN, m.grow
	m.req, m.reqN = m.reqN, m.req
	m.grant, m.grantN = m.grantN, m.grant
	m.pair, m.pairN = m.pairN, m.pair
	m.pairB, m.pairBN = m.pairBN, m.pairB
	m.stats.Cycles++

	if pairingDone && m.variant.Reset {
		m.globalReset()
		m.stats.Resets++
	}
}

func clearBuf(buf [][4]bool) {
	for i := range buf {
		buf[i] = [4]bool{}
	}
}

// moveGrows advances grow wavefronts one module and latches arrivals.
// Opposing wavefronts annihilate where they meet: a grow signal does not
// continue into territory an opposite-direction grow has already swept,
// so the meeting module is the unique intermediate on the line — without
// this, the two fronts would latch every module between the endpoints
// and flood the handshake with spurious intermediates.
func (m *legacyMesh) moveGrows() {
	arrivals := m.growArr[:0]
	for i := range m.grow {
		for _, d := range dirs {
			if !m.grow[i][d] {
				continue
			}
			n := m.geo.neighbor(i, d)
			if n < 0 {
				continue
			}
			entry := d.Opposite()
			switch m.geo.kind[n] {
			case cellInterior:
				m.growFrom[n][entry] = true
				arrivals = append(arrivals, growArrival{n, d})
			case cellBoundary:
				if m.variant.Boundary && !m.fired[n] {
					m.fired[n] = true
					m.reqDirs[n][entry] = true
					if m.variant.ReqGrant {
						m.reqN[n][entry] = true
					} else {
						m.sentPair[n] = true
						m.pairN[n][entry] = true
						m.pairBN[n][entry] = true
					}
				}
			}
		}
	}
	// Propagation is decided after every arrival has latched, so
	// head-on meetings stop both fronts symmetrically.
	for _, a := range arrivals {
		if !m.growFrom[a.n][a.d] {
			m.growN[a.n][a.d] = true
		}
	}
	m.growArr = arrivals
}

// moveReqs advances pair requests; requests stop at hot modules, which
// grant at most one.
func (m *legacyMesh) moveReqs() {
	arrivedAt := m.reqArrAt[:0]
	for i := range m.req {
		for _, d := range dirs {
			if !m.req[i][d] {
				continue
			}
			n := m.geo.neighbor(i, d)
			if n < 0 || m.geo.kind[n] != cellInterior {
				continue
			}
			entry := d.Opposite()
			if m.hot[n] {
				if !m.reqArrived[n][entry] {
					m.reqArrived[n][entry] = true
					arrivedAt = append(arrivedAt, n)
				}
			} else {
				m.reqN[n][d] = true
			}
		}
	}
	// Grant policy: one grant per hot module, direction chosen by a
	// fixed priority rotated on stall retries.
	for _, n := range arrivedAt {
		if m.granted[n] || !m.hot[n] {
			m.reqArrived[n] = [4]bool{}
			continue
		}
		prio := [4]Dir{North, West, East, South}
		// The grant priority is fixed hardware order on the first
		// attempt; stall retries rotate it per module so symmetric
		// grant cycles cannot repeat verbatim.
		off := 0
		if m.priorityOffset > 0 {
			off = (m.priorityOffset + n) % 4
		}
		for k := 0; k < 4; k++ {
			d := prio[(k+off)%4]
			if m.reqArrived[n][d] {
				m.granted[n] = true
				m.grantN[n][d] = true
				break
			}
		}
		m.reqArrived[n] = [4]bool{}
	}
	m.reqArrAt = arrivedAt
}

// moveGrants advances pair grants; a grant is consumed by the first
// module that requested along its line (the intermediate, or a boundary
// module).
func (m *legacyMesh) moveGrants() {
	for i := range m.grant {
		for _, d := range dirs {
			if !m.grant[i][d] {
				continue
			}
			n := m.geo.neighbor(i, d)
			if n < 0 {
				continue
			}
			entry := d.Opposite()
			switch m.geo.kind[n] {
			case cellInterior:
				if m.fired[n] && m.reqDirs[n][entry] && !m.grants[n][entry] {
					m.grants[n][entry] = true
				} else {
					m.grantN[n][d] = true
				}
			case cellBoundary:
				if m.fired[n] && m.reqDirs[n][entry] && !m.sentPair[n] {
					m.sentPair[n] = true
					m.pairN[n][entry] = true
					m.pairBN[n][entry] = true
				}
			}
		}
	}
}

// movePairs advances pair signals, toggling the error output of every
// module they reach (chains from successive pairings that cross the same
// data qubit must cancel, Pauli operators being self-inverse); a pair
// signal terminates at a hot module, clearing it. It reports whether any
// pairing completed this cycle.
func (m *legacyMesh) movePairs() bool {
	done := false
	for i := range m.pair {
		for _, d := range dirs {
			if !m.pair[i][d] {
				continue
			}
			n := m.geo.neighbor(i, d)
			if n < 0 || m.geo.kind[n] != cellInterior {
				continue
			}
			m.errOut[n] = !m.errOut[n]
			if m.hot[n] {
				m.hot[n] = false
				m.hotCount--
				m.stats.Pairings++
				if m.pairB[i][d] {
					m.stats.BoundaryPairings++
				}
				done = true
			} else {
				m.pairN[n][d] = true
				m.pairBN[n][d] = m.pairB[i][d]
			}
		}
	}
	return done
}

// fireIntermediates turns modules holding grow signals from two distinct
// directions into intermediates. The hardwired effectiveness rule keeps
// exactly one of the two corners of any L-shaped meeting: head-on
// meetings always fire, and of the two corner candidates only the one
// whose grows arrived from the north fires.
func (m *legacyMesh) fireIntermediates() {
	for i := range m.growFrom {
		if m.geo.kind[i] != cellInterior || m.fired[i] || m.hot[i] {
			continue
		}
		gf := m.growFrom[i]
		var a, b Dir
		switch {
		case gf[West] && gf[East]:
			a, b = West, East
		case gf[North] && gf[South]:
			a, b = North, South
		case gf[North] && gf[West]:
			a, b = North, West
		case gf[North] && gf[East]:
			a, b = North, East
		default:
			continue
		}
		m.fired[i] = true
		m.reqDirs[i][a] = true
		m.reqDirs[i][b] = true
		if m.variant.ReqGrant {
			m.reqN[i][a] = true
			m.reqN[i][b] = true
		} else {
			m.sentPair[i] = true
			m.errOut[i] = !m.errOut[i]
			m.pairN[i][a] = true
			m.pairN[i][b] = true
		}
	}
}

// completeHandshakes lets intermediates holding grants from both request
// directions emit their pair signals.
func (m *legacyMesh) completeHandshakes() {
	if !m.variant.ReqGrant {
		return
	}
	for i := range m.fired {
		if !m.fired[i] || m.sentPair[i] || m.geo.kind[i] != cellInterior {
			continue
		}
		all := true
		for _, d := range dirs {
			if m.reqDirs[i][d] && !m.grants[i][d] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		m.sentPair[i] = true
		m.errOut[i] = !m.errOut[i]
		for _, d := range dirs {
			if m.reqDirs[i][d] {
				m.pairN[i][d] = true
			}
		}
	}
}

// drainToBoundary force-pairs every remaining hot module with its
// nearest boundary, toggling the error outputs along the straight-line
// chain and charging the cycles the drive would take (request, grant and
// pair traversals plus a reset per pairing).
func (m *legacyMesh) drainToBoundary() {
	for i, h := range m.hot {
		if !h {
			continue
		}
		d, hops := m.geo.drainDir(i)
		for j := m.geo.neighbor(i, d); j >= 0 && m.geo.kind[j] == cellInterior; j = m.geo.neighbor(j, d) {
			m.errOut[j] = !m.errOut[j]
		}
		m.hot[i] = false
		m.hotCount--
		m.stats.Fallbacks++
		m.stats.Pairings++
		m.stats.BoundaryPairings++
		m.stats.Cycles += 3*hops + ResetDepth
	}
}
