package sfq

import (
	"sync"

	"repro/internal/lattice"
)

// meshGeom holds the immutable geometry of one decoder mesh: the cell
// classification of the (2d+1)×(2d+1) grid, the cell↔qubit/check index
// maps, and the precomputed bit-plane masks of the word-parallel kernel.
// Geometry depends only on (distance, error type), so it is computed
// once per parameter pair and shared read-only by every mesh — any
// number of Monte-Carlo shards rebuilding their own lattices still hit
// one table, mirroring decodepool.Geometry.
type meshGeom struct {
	d int               // code distance
	e lattice.ErrorType // error type the mesh decodes
	m int               // mesh side length
	n int               // m*m cells

	kind     []cellKind
	dataQ    []int // interior data cells -> qubit index, else -1
	checkIdx []int // interior check cells -> check index, else -1
	cellOf   []int // check index -> cell index

	// Bit-plane layout: one plane is rows×words uint64s, cell (r, c)
	// living at word r*words + c/64, bit c%64.
	rows     int    // == m
	words    int    // words per row
	pw       int    // plane length: rows*words
	lastMask uint64 // valid-column mask of the last word of each row

	interior  []uint64    // plane mask of interior cells
	boundary  []uint64    // plane mask of boundary cells
	classMask [4][]uint64 // cells with index%4 == k (rotated grant priority)
}

type geomKey struct {
	d int
	e lattice.ErrorType
}

var (
	geomMu    sync.RWMutex
	geomCache = map[geomKey]*meshGeom{}
)

// geomFor returns the memoized mesh geometry of g, building it on first
// use. Racing builders construct private tables; the first one stored
// wins.
func geomFor(g *lattice.Graph) *meshGeom {
	k := geomKey{d: g.Lattice().Distance(), e: g.ErrorType()}
	geomMu.RLock()
	geo := geomCache[k]
	geomMu.RUnlock()
	if geo != nil {
		return geo
	}
	built := buildGeom(g)
	geomMu.Lock()
	if exist, ok := geomCache[k]; ok {
		built = exist
	} else {
		geomCache[k] = built
	}
	geomMu.Unlock()
	return built
}

func buildGeom(g *lattice.Graph) *meshGeom {
	l := g.Lattice()
	size := l.Size()
	side := size + 2
	geo := &meshGeom{
		d: l.Distance(),
		e: g.ErrorType(),
		m: side,
		n: side * side,
	}
	geo.kind = make([]cellKind, geo.n)
	geo.dataQ = make([]int, geo.n)
	geo.checkIdx = make([]int, geo.n)
	geo.cellOf = make([]int, g.NumChecks())
	for i := range geo.dataQ {
		geo.dataQ[i], geo.checkIdx[i] = -1, -1
	}
	for lr := 0; lr < size; lr++ {
		for lc := 0; lc < size; lc++ {
			i := geo.index(lr+1, lc+1)
			geo.kind[i] = cellInterior
			s := lattice.Site{Row: lr, Col: lc}
			if l.KindAt(s) == lattice.Data {
				geo.dataQ[i] = l.QubitIndex(s)
			} else if ci, ok := g.CheckIndex(s); ok {
				geo.checkIdx[i] = ci
				geo.cellOf[ci] = i
			}
		}
	}
	// Boundary modules sit on the ring, facing the two code edges the
	// decoded error type can terminate on, adjacent to boundary data
	// qubits (even lattice coordinates).
	for x := 0; x < size; x += 2 {
		if g.ErrorType() == lattice.ZErrors {
			geo.kind[geo.index(x+1, 0)] = cellBoundary
			geo.kind[geo.index(x+1, side-1)] = cellBoundary
		} else {
			geo.kind[geo.index(0, x+1)] = cellBoundary
			geo.kind[geo.index(side-1, x+1)] = cellBoundary
		}
	}

	// Bit-plane masks.
	geo.rows = side
	geo.words = (side + 63) / 64
	geo.pw = geo.rows * geo.words
	if rem := side % 64; rem == 0 {
		geo.lastMask = ^uint64(0)
	} else {
		geo.lastMask = (uint64(1) << rem) - 1
	}
	geo.interior = make([]uint64, geo.pw)
	geo.boundary = make([]uint64, geo.pw)
	for k := range geo.classMask {
		geo.classMask[k] = make([]uint64, geo.pw)
	}
	for i, kd := range geo.kind {
		switch kd {
		case cellInterior:
			setPlaneBit(geo, geo.interior, i)
		case cellBoundary:
			setPlaneBit(geo, geo.boundary, i)
		}
		setPlaneBit(geo, geo.classMask[i%4], i)
	}
	return geo
}

func (geo *meshGeom) index(r, c int) int { return r*geo.m + c }

// neighbor returns the cell index one step in direction d, or -1 when
// the step leaves the mesh.
func (geo *meshGeom) neighbor(i int, d Dir) int {
	dr, dc := d.Delta()
	r, c := i/geo.m+dr, i%geo.m+dc
	if r < 0 || r >= geo.m || c < 0 || c >= geo.m {
		return -1
	}
	return r*geo.m + c
}

// drainDir returns the direction and hop count of cell i's nearest
// boundary edge for the geometry's error type.
func (geo *meshGeom) drainDir(i int) (Dir, int) {
	if geo.e == lattice.ZErrors {
		c := i % geo.m
		if c <= geo.m-1-c {
			return West, c
		}
		return East, geo.m - 1 - c
	}
	r := i / geo.m
	if r <= geo.m-1-r {
		return North, r
	}
	return South, geo.m - 1 - r
}

// planeBit reports whether cell i is set in the plane.
func (geo *meshGeom) planeBit(p []uint64, i int) bool {
	r, c := i/geo.m, i%geo.m
	return p[r*geo.words+c>>6]>>(uint(c)&63)&1 != 0
}

func setPlaneBit(geo *meshGeom, p []uint64, i int) {
	r, c := i/geo.m, i%geo.m
	p[r*geo.words+c>>6] |= uint64(1) << (uint(c) & 63)
}

// shiftInto writes src advanced one hop in direction d into dst,
// dropping bits that step off the mesh. dst must not alias src.
func (geo *meshGeom) shiftInto(dst, src []uint64, d Dir) {
	W := geo.words
	switch d {
	case North: // row r receives row r+1
		copy(dst, src[W:])
		clearPlane(dst[len(dst)-W:])
	case South: // row r receives row r-1
		copy(dst[W:], src[:len(src)-W])
		clearPlane(dst[:W])
	case East: // column c receives column c-1
		for r := 0; r < geo.rows; r++ {
			row := src[r*W : (r+1)*W]
			out := dst[r*W : (r+1)*W]
			var carry uint64
			for w := 0; w < W; w++ {
				next := row[w] >> 63
				out[w] = row[w]<<1 | carry
				carry = next
			}
			out[W-1] &= geo.lastMask
		}
	case West: // column c receives column c+1
		for r := 0; r < geo.rows; r++ {
			row := src[r*W : (r+1)*W]
			out := dst[r*W : (r+1)*W]
			for w := 0; w < W; w++ {
				v := row[w] >> 1
				if w+1 < W {
					v |= row[w+1] << 63
				}
				out[w] = v
			}
		}
	}
}

func clearPlane(p []uint64) {
	for i := range p {
		p[i] = 0
	}
}
