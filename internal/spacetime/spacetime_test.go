package spacetime

import (
	"testing"

	"repro/internal/decodepool"
	"repro/internal/lattice"
)

func TestMethodString(t *testing.T) {
	if Greedy.String() != "greedy" || Exact.String() != "exact" {
		t.Error("method names wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSimulator(Config{Distance: 3, P: 0.01, Q: 0.01, Rounds: 0}); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := NewSimulator(Config{Distance: 4, P: 0.01, Q: 0.01, Rounds: 3}); err == nil {
		t.Error("even distance accepted")
	}
	if _, err := NewSimulator(Config{Distance: 3, P: 2, Q: 0.01, Rounds: 3}); err == nil {
		t.Error("bad p accepted")
	}
	if _, err := NewSimulator(Config{Distance: 3, P: 0.01, Q: -1, Rounds: 3}); err == nil {
		t.Error("bad q accepted")
	}
}

func TestSpaceTimeMetric(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	geo := decodepool.For(g).Layered(5)
	i, _ := g.CheckIndex(lattice.Site{Row: 0, Col: 1})
	j, _ := g.CheckIndex(lattice.Site{Row: 0, Col: 5})
	node := func(c, r int) int { return r*g.NumChecks() + c }
	if got := geo.Dist(node(i, 0), node(j, 0)); got != 2 {
		t.Errorf("spatial dist = %d, want 2", got)
	}
	if got := geo.Dist(node(i, 0), node(i, 3)); got != 3 {
		t.Errorf("time dist = %d, want 3", got)
	}
	if got := geo.Dist(node(i, 4), node(j, 1)); got != 5 {
		t.Errorf("mixed dist = %d, want 5", got)
	}
}

// A pure measurement error produces two time-adjacent events at the
// same check; both methods must pair them together (no data correction).
func TestMeasurementErrorMatchedInTime(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	i, _ := g.CheckIndex(lattice.Site{Row: 2, Col: 3})
	events := []Node{{i, 1}, {i, 2}}
	for _, m := range []Method{Greedy, Exact} {
		pairs, boundary, q := decodeEvents(t, g, m, 4, events)
		if len(pairs) != 1 || len(boundary) != 0 {
			t.Fatalf("%v: pairs=%v boundary=%v", m, pairs, boundary)
		}
		if len(q) != 0 {
			t.Errorf("%v: time-like pair produced data correction %v", m, q)
		}
	}
}

// A data error produces two same-round events one apart; the correction
// must be that single data qubit.
func TestDataErrorMatchedInSpace(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	i, _ := g.CheckIndex(lattice.Site{Row: 2, Col: 3})
	j, _ := g.CheckIndex(lattice.Site{Row: 2, Col: 5})
	events := []Node{{i, 0}, {j, 0}}
	for _, m := range []Method{Greedy, Exact} {
		pairs, boundary, q := decodeEvents(t, g, m, 4, events)
		if len(pairs) != 1 || len(boundary) != 0 {
			t.Fatalf("%v: pairs=%v boundary=%v", m, pairs, boundary)
		}
		if len(q) != 1 || q[0] != l.QubitIndex(lattice.Site{Row: 2, Col: 4}) {
			t.Errorf("%v: correction = %v", m, q)
		}
	}
}

func TestEmptyEvents(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.ZErrors)
	for _, m := range []Method{Greedy, Exact} {
		pairs, boundary, _ := decodeEvents(t, g, m, 4, nil)
		if pairs != nil || boundary != nil {
			t.Errorf("%v matched empty events", m)
		}
	}
}

// Lifetime smoke: runs are deterministic per seed, every block clears
// its syndrome (runBlock errors otherwise), and the logical error rate
// responds to the noise rates.
func TestLifetimeRuns(t *testing.T) {
	for _, m := range []Method{Greedy, Exact} {
		run := func(p, q float64, seed int64) Result {
			s, err := NewSimulator(Config{Distance: 3, P: p, Q: q, Rounds: 4, Method: m, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run(300)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		a := run(0.03, 0.03, 5)
		b := run(0.03, 0.03, 5)
		if a != b {
			t.Errorf("%v: nondeterministic: %+v vs %+v", m, a, b)
		}
		if a.Blocks != 300 || a.Rounds != 1200 {
			t.Errorf("%v: accounting wrong: %+v", m, a)
		}
		quiet := run(0.001, 0.001, 7)
		loud := run(0.08, 0.08, 7)
		if quiet.PL >= loud.PL {
			t.Errorf("%v: PL(quiet)=%v >= PL(loud)=%v", m, quiet.PL, loud.PL)
		}
	}
}

// With q = 0 and one round per block, space-time decoding degenerates to
// the paper's 2D decoding; exact matching must then suppress errors with
// distance below threshold.
func TestDegeneratesTo2D(t *testing.T) {
	pl := func(d int) float64 {
		s, err := NewSimulator(Config{Distance: d, P: 0.04, Q: 0, Rounds: 1, Method: Exact, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(8000)
		if err != nil {
			t.Fatal(err)
		}
		return r.PL
	}
	if p3, p5 := pl(3), pl(5); p5 >= p3 {
		t.Errorf("no suppression: PL(5)=%v >= PL(3)=%v", p5, p3)
	}
}

// Measurement noise must hurt: at fixed p, adding q raises PL.
func TestMeasurementNoiseHurts(t *testing.T) {
	run := func(q float64) float64 {
		s, err := NewSimulator(Config{Distance: 3, P: 0.02, Q: q, Rounds: 5, Method: Exact, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return r.PL
	}
	if clean, noisy := run(0), run(0.05); noisy <= clean {
		t.Errorf("PL(q=0.05)=%v <= PL(q=0)=%v", noisy, clean)
	}
}
