// Package mwpm implements the exact minimum-weight perfect-matching
// surface-code decoder of Fowler et al. — the offline software baseline
// the NISQ+ paper compares against.
//
// The open boundaries are folded into the instance without doubling it:
// hot checks i and j are joined by an edge of weight min(dist(i,j),
// bdist(i)+bdist(j)) — pairing them directly or sending both to their
// nearest boundary, whichever is lighter — and when the hot count is
// odd one extra boundary node with edges bdist(i) absorbs the leftover
// check. Every matching of the classic twin-per-check construction maps
// to a matching of this folded instance with the same total weight (two
// boundary-matched checks pair up through the min), so the optimum is
// unchanged while the blossom algorithm from internal/match runs on
// half the nodes (8x less O(n³) work). Matched pairs whose min came
// from the boundary sum are decomposed back into two boundary chains.
//
// The matcher runs inside a caller-owned decodepool.Scratch over cached
// geometry tables; Decode and Match are views over that one core.
package mwpm

import (
	"fmt"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/match"
)

// Decoder is the exact MWPM decoder. The zero value is ready to use.
type Decoder struct{}

// New returns an MWPM decoder.
func New() *Decoder { return &Decoder{} }

// Name implements decoder.Decoder.
func (*Decoder) Name() string { return "mwpm" }

// Match computes the optimal matching for the syndrome without
// converting it to a correction.
func (*Decoder) Match(g *lattice.Graph, syn []bool) (decoder.Matching, error) {
	return matchGeometry(decodepool.For(g), syn, decodepool.NewScratch())
}

// Decode implements decoder.Decoder: DecodeInto on a fresh scratch, so
// the caller owns the returned correction.
func (d *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return d.DecodeInto(g, syn, decodepool.NewScratch())
}

// DecodeInto implements decodepool.IntoDecoder. Steady state allocates
// nothing; the returned Correction aliases s and is valid until its next
// decode.
func (*Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	return DecodeGeometry(decodepool.For(g), syn, s)
}

// DecodeGeometry runs the exact matcher over any code layout's geometry
// table (internal/rotated builds its own) and lays down the matched
// chains. The returned Correction aliases s.
func DecodeGeometry(geo *decodepool.Geometry, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	m, err := matchGeometry(geo, syn, s)
	if err != nil {
		return decoder.Correction{}, err
	}
	return geo.Emit(m, s), nil
}

// intoState is the MWPM decoder's private scratch: a reusable blossom
// matcher, the flat weight matrix it consumes, and the accepted
// matching.
type intoState struct {
	matcher match.Matcher
	w       []int64
	m       decoder.Matching
}

// matchGeometry is the one exact matcher: it builds the folded instance
// from the geometry tables, solves it with the blossom matcher, and
// returns the pairs and boundary matches (aliasing s).
func matchGeometry(geo *decodepool.Geometry, syn []bool, s *decodepool.Scratch) (decoder.Matching, error) {
	if err := geo.CheckSyndrome(syn); err != nil {
		return decoder.Matching{}, fmt.Errorf("mwpm: %w", err)
	}
	hot := s.HotChecks(syn)
	n := len(hot)
	if n == 0 {
		return decoder.Matching{}, nil
	}
	st := s.State("mwpm", func() any { return new(intoState) }).(*intoState)
	// Nodes 0..n-1 are hot checks; node n (odd counts only) absorbs the
	// leftover check at its boundary distance.
	m := n + n%2
	if cap(st.w) < m*m {
		st.w = make([]int64, m*m)
	}
	w := st.w[:m*m]
	for u := 0; u < n; u++ {
		bu := int64(geo.BoundaryDist(hot[u]))
		w[u*m+u] = 0
		for v := u + 1; v < n; v++ {
			wt := int64(geo.Dist(hot[u], hot[v]))
			if bs := bu + int64(geo.BoundaryDist(hot[v])); bs < wt {
				wt = bs
			}
			w[u*m+v], w[v*m+u] = wt, wt
		}
		if m > n {
			w[u*m+n], w[n*m+u] = bu, bu
		}
	}
	if m > n {
		w[n*m+n] = 0
	}
	mate, _ := st.matcher.MinWeightPerfect(m, w)
	mm := decoder.Matching{Pairs: st.m.Pairs[:0], Boundary: st.m.Boundary[:0]}
	for u := 0; u < n; u++ {
		v := mate[u]
		if v >= n {
			mm.Boundary = append(mm.Boundary, hot[u])
		} else if v > u {
			// Ties go to the direct pair, so a decomposition never
			// lengthens the correction.
			if geo.Dist(hot[u], hot[v]) <= geo.BoundaryDist(hot[u])+geo.BoundaryDist(hot[v]) {
				mm.Pairs = append(mm.Pairs, [2]int{hot[u], hot[v]})
			} else {
				mm.Boundary = append(mm.Boundary, hot[u], hot[v])
			}
		}
	}
	st.m = mm
	return mm, nil
}

var (
	_ decoder.Decoder        = (*Decoder)(nil)
	_ decodepool.IntoDecoder = (*Decoder)(nil)
)
