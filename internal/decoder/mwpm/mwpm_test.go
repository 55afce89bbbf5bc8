package mwpm

import (
	"testing"

	"repro/internal/decoder"
	"repro/internal/lattice"
)

func syn(g *lattice.Graph, sites ...lattice.Site) []bool {
	s := make([]bool, g.NumChecks())
	for _, site := range sites {
		i, ok := g.CheckIndex(site)
		if !ok {
			panic("not a check")
		}
		s[i] = true
	}
	return s
}

// mustMatch returns the decoder's matching of s, failing the test on error.
func mustMatch(t *testing.T, g *lattice.Graph, s []bool) decoder.Matching {
	t.Helper()
	m, err := New().Match(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEmptySyndrome(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.ZErrors)
	m := mustMatch(t, g, make([]bool, g.NumChecks()))
	if len(m.Pairs) != 0 || len(m.Boundary) != 0 {
		t.Errorf("matched empty syndrome: %+v", m)
	}
}

func TestSingleCheckBoundary(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g, lattice.Site{Row: 2, Col: 3})
	m := mustMatch(t, g, s)
	if len(m.Boundary) != 1 || len(m.Pairs) != 0 {
		t.Fatalf("matching = %+v", m)
	}
	if err := m.Covers(s); err != nil {
		t.Fatal(err)
	}
}

// Optimality on a handcrafted instance where greedy-by-distance is
// suboptimal: three checks in a row where the middle one is closest to
// both ends — MWPM must pick the global optimum.
func TestOptimalOnAmbiguousRow(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	// Checks at columns 1, 5, 9 in row 0: pairwise distances 2, 2, 4;
	// boundary distances 1, 3, 2.
	s := syn(g,
		lattice.Site{Row: 0, Col: 1},
		lattice.Site{Row: 0, Col: 5},
		lattice.Site{Row: 0, Col: 9},
	)
	m := mustMatch(t, g, s)
	// Optimum: pair (5,9) at cost 2, send column-1 to the boundary at
	// cost 1 — total 3.
	if got := m.Weight(g); got != 3 {
		t.Fatalf("weight = %d, want 3 (matching %+v)", got, m)
	}
	if err := decoder.Validate(g, s, m.Correction(g)); err != nil {
		t.Fatal(err)
	}
}

// All-boundary optimum: an even number of checks all hugging opposite
// edges must not be paired across the lattice.
func TestPrefersBoundariesWhenCheaper(t *testing.T) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g,
		lattice.Site{Row: 0, Col: 1},
		lattice.Site{Row: 8, Col: 15},
		lattice.Site{Row: 16, Col: 1},
		lattice.Site{Row: 4, Col: 15},
	)
	m := mustMatch(t, g, s)
	if err := m.Covers(s); err != nil {
		t.Fatal(err)
	}
	// Several matchings tie at the optimum here (two co-column checks
	// sit exactly two apart); only the optimal weight is asserted.
	if m.Weight(g) != 4 {
		t.Errorf("weight = %d, want 4", m.Weight(g))
	}
}

func TestXErrorGraph(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.XErrors)
	s := syn(g, lattice.Site{Row: 3, Col: 4}, lattice.Site{Row: 5, Col: 4})
	m := mustMatch(t, g, s)
	if len(m.Pairs) != 1 {
		t.Fatalf("matching = %+v", m)
	}
	if err := decoder.Validate(g, s, m.Correction(g)); err != nil {
		t.Fatal(err)
	}
}
