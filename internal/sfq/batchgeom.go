package sfq

import (
	"math/bits"
	"sync"

	"repro/internal/knob"
	"repro/internal/lattice"
)

// batchGeom is the d-major lane layout of the SWAR batch kernel: B
// independent mesh instances packed side by side in the same []uint64
// planes. A batched plane is W machine words per row (W ∈ {1, 2, 4},
// the layout exists only for meshes with side ≤ 64): word k = r·W + c
// holds column c of row r, and each word column carries
// perWord = ⌊64/(2d+1)⌋ lanes. Lane l lives in column l/perWord at
// slot l%perWord, so cell i of lane l sits at word (i/m)·W + l/perWord,
// bit (l%perWord)·m + i%m. A single shift-and-mask pass over the rows
// therefore advances all W·perWord lanes at once while the lane masks
// keep wavefronts from bleeding across instances.
//
// Like meshGeom, a batchGeom depends only on (distance, error type,
// lanes) and is computed once and shared read-only.
type batchGeom struct {
	geo     *meshGeom
	lanes   int
	words   int // W: words per plane row, power of two
	wmask   int // words − 1; word k belongs to column k & wmask
	perWord int // lanes per fully occupied word column
	n       int // plane length: rows · words

	laneBits []uint64 // per-lane in-word mask: laneLow << ((l%perWord)·m)
	laneCol  []int    // word column of lane l: l / perWord
	colEnd   []int    // one past the last lane of column c
	allLanes uint64   // full-column occupancy: OR of the perWord slot masks
	laneLow  uint64   // (1<<m)−1, the slot-0 mask

	// Lane-safe horizontal shift masks, shared by every column. An East
	// shift (<<1) must not carry a bit into the next slot's column 0, so
	// eastMask clears the lowest bit of every slot; West (>>1)
	// symmetrically clears the highest. The masks are built for a fully
	// occupied column; in a partially filled last column they admit
	// stray bits into unoccupied slots, which is harmless — every
	// consumer masks with interior/boundary/hot planes, all zero there,
	// so strays never reach persistent state or the any accumulators.
	eastMask uint64
	westMask uint64

	// Lane-replicated copies of the scalar plane masks (length n).
	// classMask replicates the scalar cell index residue (r·m+c)%4 into
	// every lane, so the rotated grant priority matches the scalar
	// kernel per lane. Unoccupied slots of a partial last column are
	// zero in all of them.
	interior  []uint64
	boundary  []uint64
	classMask [4][]uint64
}

// BatchWords is the plane width of the wide SWAR kernel in 64-bit
// words: how many word columns NewBatch packs side by side. It is the
// REPRO_SFQ_WIDTH knob ("1", "2", "4"; "auto" or unset picks the widest
// layout the host word size profitably supports) resolved once at
// process start.
var BatchWords = batchWordsFromEnv()

func batchWordsFromEnv() int {
	switch v := knob.String("REPRO_SFQ_WIDTH"); v {
	case "1":
		return 1
	case "2":
		return 2
	case "4":
		return 4
	}
	return autoBatchWords()
}

// autoBatchWords picks the plane width from the CPU: a 64-bit machine
// word makes the four-word (256-bit) layout profitable — four
// independent single-word dependency chains per row keep a superscalar
// core's ALU ports busy — while a 32-bit host gets the two-word layout
// to bound the per-step footprint.
func autoBatchWords() int {
	if bits.UintSize >= 64 {
		return 4
	}
	return 2
}

// MaxBatchLanesAt returns how many independent distance-d meshes fit in
// a plane of the given word width: words·⌊64/(2d+1)⌋, floored at 1
// (meshes wider than a word fall back to scalar decoding inside
// BatchMesh).
func MaxBatchLanesAt(d, words int) int {
	side := 2*d + 1
	if side > 64 {
		return 1
	}
	return words * (64 / side)
}

// MaxBatchLanes returns the lane capacity of NewBatch meshes: the
// per-word capacity ⌊64/(2d+1)⌋ times the process-wide BatchWords plane
// width.
func MaxBatchLanes(d int) int { return MaxBatchLanesAt(d, BatchWords) }

// batchWordsFor returns the narrowest power-of-two column count that
// holds the requested lanes, capped at 4.
func batchWordsFor(d, lanes int) int {
	side := 2*d + 1
	if side > 64 {
		return 1
	}
	perWord := 64 / side
	switch {
	case lanes <= perWord:
		return 1
	case lanes <= 2*perWord:
		return 2
	default:
		return 4
	}
}

type batchGeomKey struct {
	d     int
	e     lattice.ErrorType
	lanes int
}

var (
	batchGeomMu    sync.RWMutex
	batchGeomCache = map[batchGeomKey]*batchGeom{}
)

// batchGeomFor returns the memoized lane geometry of g at the given
// width, building it on first use. Racing builders construct private
// tables; the first one stored wins. The word count is derived from the
// lane count (narrowest power-of-two layout that fits), so the key
// stays (d, e, lanes).
func batchGeomFor(g *lattice.Graph, lanes int) *batchGeom {
	k := batchGeomKey{d: g.Lattice().Distance(), e: g.ErrorType(), lanes: lanes}
	batchGeomMu.RLock()
	bg := batchGeomCache[k]
	batchGeomMu.RUnlock()
	if bg != nil {
		return bg
	}
	built := buildBatchGeom(g, lanes)
	batchGeomMu.Lock()
	if exist, ok := batchGeomCache[k]; ok {
		built = exist
	} else {
		batchGeomCache[k] = built
	}
	batchGeomMu.Unlock()
	return built
}

func buildBatchGeom(g *lattice.Graph, lanes int) *batchGeom {
	geo := geomFor(g)
	m := geo.m
	words := batchWordsFor(geo.d, lanes)
	perWord := 64 / m
	bg := &batchGeom{
		geo:     geo,
		lanes:   lanes,
		words:   words,
		wmask:   words - 1,
		perWord: perWord,
		n:       geo.rows * words,
	}
	bg.laneLow = (uint64(1) << uint(m)) - 1
	bg.laneBits = make([]uint64, lanes)
	bg.laneCol = make([]int, lanes)
	bg.colEnd = make([]int, words)
	var lowBits, highBits uint64
	for s := 0; s < perWord; s++ {
		shift := uint(s * m)
		bg.allLanes |= bg.laneLow << shift
		lowBits |= uint64(1) << shift
		highBits |= uint64(1) << (shift + uint(m) - 1)
	}
	bg.eastMask = bg.allLanes &^ lowBits
	bg.westMask = bg.allLanes &^ highBits
	for l := 0; l < lanes; l++ {
		bg.laneBits[l] = bg.laneLow << uint(l%perWord*m)
		bg.laneCol[l] = l / perWord
	}
	for c := 0; c < words; c++ {
		end := (c + 1) * perWord
		if end > lanes {
			end = lanes
		}
		bg.colEnd[c] = end
	}

	bg.interior = make([]uint64, bg.n)
	bg.boundary = make([]uint64, bg.n)
	for k := range bg.classMask {
		bg.classMask[k] = make([]uint64, bg.n)
	}
	for i, kd := range geo.kind {
		r, c := i/m, i%m
		for l := 0; l < lanes; l++ {
			w := r*words + bg.laneCol[l]
			bit := uint64(1) << uint(l%perWord*m+c)
			switch kd {
			case cellInterior:
				bg.interior[w] |= bit
			case cellBoundary:
				bg.boundary[w] |= bit
			}
			bg.classMask[i%4][w] |= bit
		}
	}
	return bg
}

// laneBit returns the plane word index and bit of cell i in lane l.
func (bg *batchGeom) laneBit(l, i int) (word int, bit uint64) {
	m := bg.geo.m
	return i/m*bg.words + bg.laneCol[l], uint64(1) << uint(l%bg.perWord*m+i%m)
}
