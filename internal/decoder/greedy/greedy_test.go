package greedy

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
	d := New()
	m := mustMatch(t, g, make([]bool, g.NumChecks()))
	if len(m.Pairs) != 0 || len(m.Boundary) != 0 {
		t.Errorf("empty syndrome matched: %+v", m)
	}
	c, err := d.Decode(g, make([]bool, g.NumChecks()))
	if err != nil || len(c.Qubits) != 0 {
		t.Errorf("empty decode: %v %v", c, err)
	}
}

// The tie-break rule: a pair edge beats boundary edges of the same
// weight, because one pairing clears two syndromes.
func TestTieBreakPrefersPairing(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	// Checks (0,1) and (0,3): distance 1 from each other AND from their
	// respective boundaries.
	s := syn(g, lattice.Site{Row: 0, Col: 1}, lattice.Site{Row: 0, Col: 3})
	m := mustMatch(t, g, s)
	if len(m.Pairs) != 1 || len(m.Boundary) != 0 {
		t.Fatalf("matching = %+v, want one pair", m)
	}
	if m.Weight(g) != 1 {
		t.Errorf("weight = %d, want 1", m.Weight(g))
	}
}

// A lone far-from-partner check pairs with its nearest boundary.
func TestIsolatedCheckGoesToBoundary(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g, lattice.Site{Row: 4, Col: 1})
	m := mustMatch(t, g, s)
	if len(m.Boundary) != 1 || len(m.Pairs) != 0 {
		t.Fatalf("matching = %+v", m)
	}
	if m.Weight(g) != 1 {
		t.Errorf("weight = %d, want 1", m.Weight(g))
	}
}

// Two distant checks each adjacent to opposite boundaries: boundary
// matching (total weight 2) beats pairing (weight 4).
func TestBoundaryBeatsLongPair(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g, lattice.Site{Row: 0, Col: 1}, lattice.Site{Row: 0, Col: 7})
	m := mustMatch(t, g, s)
	if len(m.Boundary) != 2 || len(m.Pairs) != 0 {
		t.Fatalf("matching = %+v, want two boundary matches", m)
	}
}

func TestMatchingIsDeterministic(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g,
		lattice.Site{Row: 2, Col: 3}, lattice.Site{Row: 2, Col: 7},
		lattice.Site{Row: 6, Col: 5}, lattice.Site{Row: 10, Col: 9},
		lattice.Site{Row: 8, Col: 1},
	)
	a := mustMatch(t, g, s)
	b := mustMatch(t, g, s)
	if len(a.Pairs) != len(b.Pairs) || len(a.Boundary) != len(b.Boundary) {
		t.Fatal("nondeterministic matching")
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatal("pair order changed")
		}
	}
	if err := a.Covers(s); err != nil {
		t.Fatal(err)
	}
	if err := decoder.Validate(g, s, a.Correction(g)); err != nil {
		t.Fatal(err)
	}
}
