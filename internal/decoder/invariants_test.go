package decoder_test

import (
	"math/rand"
	"testing"

	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/pauli"
)

// randomSyndrome injects i.i.d. errors at rate p and returns the
// resulting syndrome.
func randomSyndrome(rng *rand.Rand, l *lattice.Lattice, g *lattice.Graph, p float64) []bool {
	op := pauli.Z
	if g.ErrorType() == lattice.XErrors {
		op = pauli.X
	}
	f := pauli.NewFrame(l.NumQubits())
	for _, s := range l.DataSites() {
		if rng.Float64() < p {
			f.Apply(l.QubitIndex(s), op)
		}
	}
	return g.Syndrome(f)
}

// The fundamental decoder invariant: every decoder's correction must
// reproduce the observed syndrome exactly, for every distance, error
// type and a wide range of error rates.
func TestAllDecodersClearSyndrome(t *testing.T) {
	decoders := []decoder.Decoder{greedy.New(), mwpm.New(), unionfind.New()}
	rng := noise.NewRand(17)
	for _, d := range []int{3, 5, 7, 9} {
		l := lattice.MustNew(d)
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(e)
			for _, p := range []float64{0.01, 0.05, 0.15, 0.3} {
				for trial := 0; trial < 25; trial++ {
					syn := randomSyndrome(rng, l, g, p)
					for _, dec := range decoders {
						c, err := dec.Decode(g, syn)
						if err != nil {
							t.Fatalf("%s d=%d %v p=%v: %v", dec.Name(), d, e, p, err)
						}
						if err := decoder.Validate(g, syn, c); err != nil {
							t.Fatalf("%s d=%d %v p=%v: %v", dec.Name(), d, e, p, err)
						}
					}
				}
			}
		}
	}
}

// MWPM must never produce a heavier matching than greedy (it is exact),
// and both matchings must cover the syndrome. (Greedy's classical
// 2-approximation guarantee is in likelihood weight, not chain length,
// so no multiplicative distance bound is asserted here.)
func TestGreedyNeverBeatsMWPM(t *testing.T) {
	gr, mw := greedy.New(), mwpm.New()
	rng := noise.NewRand(23)
	for _, d := range []int{3, 5, 7} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		for trial := 0; trial < 200; trial++ {
			syn := randomSyndrome(rng, l, g, 0.08)
			mg := mustMatch(t, gr.Match, g, syn)
			mm := mustMatch(t, mw.Match, g, syn)
			if err := mg.Covers(syn); err != nil {
				t.Fatalf("greedy matching does not cover: %v", err)
			}
			if err := mm.Covers(syn); err != nil {
				t.Fatalf("mwpm matching does not cover: %v", err)
			}
			wg, wm := mg.Weight(g), mm.Weight(g)
			if wm > wg {
				t.Fatalf("d=%d mwpm weight %d > greedy %d", d, wm, wg)
			}
		}
	}
}

// MWPM optimality cross-check: for tiny syndromes the optimal matching
// weight can be brute forced over all pairings.
func TestMWPMOptimalSmall(t *testing.T) {
	mw := mwpm.New()
	rng := noise.NewRand(29)
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	var bestWeight func(hot []int) int
	bestWeight = func(hot []int) int {
		if len(hot) == 0 {
			return 0
		}
		h := hot[0]
		rest := hot[1:]
		best := g.BoundaryDist(h) + bestWeight(rest)
		for i, other := range rest {
			sub := make([]int, 0, len(rest)-1)
			sub = append(sub, rest[:i]...)
			sub = append(sub, rest[i+1:]...)
			if w := g.Dist(h, other) + bestWeight(sub); w < best {
				best = w
			}
		}
		return best
	}
	for trial := 0; trial < 60; trial++ {
		syn := randomSyndrome(rng, l, g, 0.05)
		hot := lattice.HotChecks(syn)
		if len(hot) > 8 {
			continue
		}
		m := mustMatch(t, mw.Match, g, syn)
		if got, want := m.Weight(g), bestWeight(hot); got != want {
			t.Fatalf("trial %d: mwpm weight %d, optimal %d (hot=%v)", trial, got, want, hot)
		}
	}
}

// Single-error syndromes must be corrected perfectly by every decoder:
// the residual (error + correction) must be stabilizer-trivial AND not a
// logical operator.
func TestSingleErrorsCorrectedExactly(t *testing.T) {
	decoders := []decoder.Decoder{greedy.New(), mwpm.New(), unionfind.New()}
	for _, d := range []int{3, 5} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		cut := l.LogicalCutSupport(lattice.ZErrors)
		for _, s := range l.DataSites() {
			f := pauli.NewFrame(l.NumQubits())
			f.Set(l.QubitIndex(s), pauli.Z)
			syn := g.Syndrome(f)
			for _, dec := range decoders {
				c, err := dec.Decode(g, syn)
				if err != nil {
					t.Fatalf("%s: %v", dec.Name(), err)
				}
				res := f.Clone()
				res.ApplyFrame(c.Frame(l, lattice.ZErrors))
				for i, hot := range g.Syndrome(res) {
					if hot {
						t.Fatalf("%s d=%d error at %v: residual check %d hot", dec.Name(), d, s, i)
					}
				}
				if res.ParityZ(cut) != 0 {
					t.Fatalf("%s d=%d single error at %v became logical", dec.Name(), d, s)
				}
			}
		}
	}
}

// The union-find decoder reports its growth rounds; they must be
// positive when the syndrome is nonempty and zero when it is empty.
func TestUnionFindRounds(t *testing.T) {
	uf := unionfind.New()
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	if _, err := uf.Decode(g, make([]bool, g.NumChecks())); err != nil {
		t.Fatal(err)
	}
	if uf.Rounds != 0 {
		t.Errorf("empty syndrome rounds=%d", uf.Rounds)
	}
	f := pauli.NewFrame(l.NumQubits())
	f.Set(l.QubitIndex(lattice.Site{Row: 2, Col: 2}), pauli.Z)
	if _, err := uf.Decode(g, g.Syndrome(f)); err != nil {
		t.Fatal(err)
	}
	if uf.Rounds == 0 {
		t.Error("nonempty syndrome took zero rounds")
	}
}

func TestDecoderNames(t *testing.T) {
	if greedy.New().Name() != "greedy" || mwpm.New().Name() != "mwpm" || unionfind.New().Name() != "union-find" {
		t.Error("decoder names wrong")
	}
}
