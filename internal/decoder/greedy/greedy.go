// Package greedy implements the software reference of the NISQ+
// approximate decoding algorithm (§V-B of the paper): a greedy
// approximation to minimum-weight matching.
//
// All pairwise distances between hot syndromes — and, to handle the
// code boundaries, the distance from each hot syndrome to its nearest
// boundary — are sorted in ascending order (descending likelihood).
// Edges are then accepted greedily whenever both endpoints are still
// unmatched; boundary pseudo-nodes never saturate, mirroring the paper's
// formulation in which external nodes are connected to one another with
// weight zero. By the classical result of Drake & Hougardy the result is
// a 2-approximation of the optimal matching.
//
// The matcher runs inside a caller-owned decodepool.Scratch over cached
// geometry tables; Decode and Match are views over that one core.
package greedy

import (
	"fmt"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
)

// Decoder is the greedy matching decoder. The zero value is ready to use.
type Decoder struct{}

// New returns a greedy decoder.
func New() *Decoder { return &Decoder{} }

// Name implements decoder.Decoder.
func (*Decoder) Name() string { return "greedy" }

// Match computes the greedy matching for the syndrome without converting
// it to a correction. Exposed so harnesses can inspect pairings.
func (*Decoder) Match(g *lattice.Graph, syn []bool) (decoder.Matching, error) {
	return MatchGeometry(decodepool.For(g), syn, decodepool.NewScratch())
}

// Decode implements decoder.Decoder: DecodeInto on a fresh scratch, so
// the caller owns the returned correction.
func (d *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return d.DecodeInto(g, syn, decodepool.NewScratch())
}

// DecodeInto implements decodepool.IntoDecoder. Steady state allocates
// nothing; the returned Correction aliases s.
func (*Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	return DecodeGeometry(decodepool.For(g), syn, s)
}

// DecodeGeometry runs the greedy matcher over any code layout's
// geometry table — internal/rotated builds its own, internal/spacetime
// decodes on a layered view — and lays down the matched chains. The
// returned Correction aliases s.
func DecodeGeometry(geo *decodepool.Geometry, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	m, err := MatchGeometry(geo, syn, s)
	if err != nil {
		return decoder.Correction{}, err
	}
	return geo.Emit(m, s), nil
}

// gedge is a candidate matching edge between hot checks i and j;
// j == -1 marks a boundary edge for i.
type gedge struct{ w, i, j int32 }

// intoState is the greedy decoder's private scratch: the candidate edge
// list in generation order, the counting-sort permutation and buckets,
// the matched flags, and the accepted matching.
type intoState struct {
	edges   []gedge
	idx     []int32
	counts  []int32
	matched []bool
	m       decoder.Matching
}

// MatchGeometry is the one greedy matcher. Edges are accepted in
// ascending distance; on ties, pair edges come before boundary edges — pairing
// two hot checks at distance w clears both for the price one boundary
// match would pay to clear one — and remaining ties go to ascending
// endpoint indices, so decoding is deterministic. A stable
// two-bucket-per-weight counting sort realizes that order: the key is
// 2·w + (1 for boundary edges), and within a bucket the generation
// order — ascending (i, j) for pairs, ascending i for boundary edges —
// already is the tie-break order. The returned Matching lists pairs and
// boundary matches in acceptance order and aliases s.
func MatchGeometry(geo *decodepool.Geometry, syn []bool, s *decodepool.Scratch) (decoder.Matching, error) {
	if err := geo.CheckSyndrome(syn); err != nil {
		return decoder.Matching{}, fmt.Errorf("greedy: %w", err)
	}
	hot := s.HotChecks(syn)
	if len(hot) == 0 {
		return decoder.Matching{}, nil
	}
	st := s.State("greedy", func() any { return new(intoState) }).(*intoState)
	edges := st.edges[:0]
	maxW := int32(0)
	for a := 0; a < len(hot); a++ {
		for b := a + 1; b < len(hot); b++ {
			w := int32(geo.Dist(hot[a], hot[b]))
			maxW = max(maxW, w)
			edges = append(edges, gedge{w, int32(hot[a]), int32(hot[b])})
		}
		w := int32(geo.BoundaryDist(hot[a]))
		maxW = max(maxW, w)
		edges = append(edges, gedge{w, int32(hot[a]), -1})
	}
	st.edges = edges

	nkeys := int(2*maxW) + 2
	if cap(st.counts) < nkeys {
		st.counts = make([]int32, nkeys)
	}
	counts := st.counts[:nkeys]
	clear(counts)
	key := func(e gedge) int32 {
		k := 2 * e.w
		if e.j < 0 {
			k++
		}
		return k
	}
	for _, e := range edges {
		counts[key(e)]++
	}
	var sum int32
	for k := range counts {
		counts[k], sum = sum, sum+counts[k]
	}
	if cap(st.idx) < len(edges) {
		st.idx = make([]int32, len(edges))
	}
	idx := st.idx[:len(edges)]
	for k, e := range edges {
		ky := key(e)
		idx[counts[ky]] = int32(k)
		counts[ky]++
	}

	if cap(st.matched) < geo.M {
		st.matched = make([]bool, geo.M)
	}
	matched := st.matched[:geo.M]
	clear(matched)
	m := decoder.Matching{Pairs: st.m.Pairs[:0], Boundary: st.m.Boundary[:0]}
	for _, k := range idx {
		e := edges[k]
		if matched[e.i] {
			continue
		}
		if e.j < 0 {
			matched[e.i] = true
			m.Boundary = append(m.Boundary, int(e.i))
			continue
		}
		if matched[e.j] {
			continue
		}
		matched[e.i], matched[e.j] = true, true
		m.Pairs = append(m.Pairs, [2]int{int(e.i), int(e.j)})
	}
	st.m = m
	return m, nil
}

var (
	_ decoder.Decoder        = (*Decoder)(nil)
	_ decodepool.IntoDecoder = (*Decoder)(nil)
)
