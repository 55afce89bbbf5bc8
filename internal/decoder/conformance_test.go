package decoder_test

import (
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/mld"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/pauli"
)

// conformanceSyndromes enumerates every weight-0, weight-1 and weight-2
// error pattern of the lattice plus seeded random syndromes, giving the
// differential suite deterministic, exhaustive low-weight coverage and
// some high-weight stress.
func conformanceSyndromes(t *testing.T, l *lattice.Lattice, g *lattice.Graph) [][]bool {
	t.Helper()
	op := pauli.Z
	if g.ErrorType() == lattice.XErrors {
		op = pauli.X
	}
	sites := l.DataSites()
	var syns [][]bool
	syns = append(syns, make([]bool, g.NumChecks())) // weight 0
	for a := 0; a < len(sites); a++ {
		f := pauli.NewFrame(l.NumQubits())
		f.Set(l.QubitIndex(sites[a]), op)
		syns = append(syns, g.Syndrome(f))
		for b := a + 1; b < len(sites); b++ {
			f2 := pauli.NewFrame(l.NumQubits())
			f2.Set(l.QubitIndex(sites[a]), op)
			f2.Set(l.QubitIndex(sites[b]), op)
			syns = append(syns, g.Syndrome(f2))
		}
	}
	rng := noise.NewRand(int64(31 + l.Distance()))
	for trial := 0; trial < 50; trial++ {
		syns = append(syns, randomSyndrome(rng, l, g, 0.08))
	}
	return syns
}

// Every decoder must clear every conformance syndrome, and each
// production view — DecodeInto on a scratch reused across all cases and
// on a fresh one, the Decode wrapper, and Match — must return exactly
// what the decoder's allocating test oracle (oracle_test.go) returns:
// the same qubit sequence, the same pair and boundary lists. MLD is
// checked Decode against DecodeInto. Union-find's DecodeErasure must
// reproduce the oracle's erasure peel on seeded erasure masks.
func TestConformancePooledMatchesLegacy(t *testing.T) {
	for _, d := range []int{3, 5} {
		l := lattice.MustNew(d)
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(e)
			cases := oracleCases()
			if l.NumData() <= mld.MaxDataQubits {
				ml, err := mld.New(g, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, oracleCase{dec: ml, oracle: ml.Decode})
			}
			syns := conformanceSyndromes(t, l, g)
			reused := decodepool.NewScratch()
			for _, c := range cases {
				dec := c.dec
				for si, syn := range syns {
					want, err := c.oracle(g, syn)
					if err != nil {
						t.Fatalf("%s d=%d %v syn %d: oracle: %v", dec.Name(), d, e, si, err)
					}
					if err := decoder.Validate(g, syn, want); err != nil {
						t.Fatalf("%s d=%d %v syn %d: oracle correction invalid: %v", dec.Name(), d, e, si, err)
					}
					pooled, err := dec.DecodeInto(g, syn, reused)
					if err != nil {
						t.Fatalf("%s d=%d %v syn %d: pooled: %v", dec.Name(), d, e, si, err)
					}
					if !sameQubits(want.Qubits, pooled.Qubits) {
						t.Fatalf("%s d=%d %v syn %d: pooled %v != oracle %v",
							dec.Name(), d, e, si, pooled.Qubits, want.Qubits)
					}
					plain, err := dec.Decode(g, syn)
					if err != nil {
						t.Fatalf("%s d=%d %v syn %d: Decode: %v", dec.Name(), d, e, si, err)
					}
					if !sameQubits(want.Qubits, plain.Qubits) {
						t.Fatalf("%s d=%d %v syn %d: Decode %v != oracle %v",
							dec.Name(), d, e, si, plain.Qubits, want.Qubits)
					}
					if c.match != nil {
						if got, wantM := mustMatch(t, c.match, g, syn), c.oracleMatch(g, syn); !sameMatching(got, wantM) {
							t.Fatalf("%s d=%d %v syn %d: Match %+v != oracle %+v",
								dec.Name(), d, e, si, got, wantM)
						}
					}
					if si%17 == 0 {
						// Fresh scratch must agree too: reuse cannot be
						// load-bearing.
						fresh, err := dec.DecodeInto(g, syn, decodepool.NewScratch())
						if err != nil {
							t.Fatalf("%s d=%d %v syn %d: fresh scratch: %v", dec.Name(), d, e, si, err)
						}
						if !sameQubits(want.Qubits, fresh.Qubits) {
							t.Fatalf("%s d=%d %v syn %d: fresh-scratch pooled %v != oracle %v",
								dec.Name(), d, e, si, fresh.Qubits, want.Qubits)
						}
					}
				}
			}
			checkErasureConformance(t, l, g)
		}
	}
}

// checkErasureConformance diffs unionfind.DecodeErasure against the
// oracle's erasure peel on seeded erasure masks over a range of erasure
// rates, comparing qubit sequences and errors.
func checkErasureConformance(t *testing.T, l *lattice.Lattice, g *lattice.Graph) {
	t.Helper()
	op := pauli.Z
	if g.ErrorType() == lattice.XErrors {
		op = pauli.X
	}
	var targets []int
	for _, s := range l.DataSites() {
		targets = append(targets, l.QubitIndex(s))
	}
	rng := noise.NewRand(int64(53 + l.Distance()))
	uf, oracle := unionfind.New(), new(oracleUnionFind)
	for _, pe := range []float64{0.05, 0.2, 0.4, 0.6} {
		ch, err := noise.NewErasure(pe, op)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			f := pauli.NewFrame(l.NumQubits())
			erased := make([]bool, l.NumQubits())
			for i, hit := range ch.SampleErasure(rng, f, targets) {
				erased[targets[i]] = hit
			}
			syn := g.Syndrome(f)
			want, wantErr := oracle.DecodeErasure(g, erased, syn)
			got, err := uf.DecodeErasure(g, erased, syn)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("d=%d %v pe=%v trial %d: DecodeErasure err %v, oracle err %v",
					l.Distance(), g.ErrorType(), pe, trial, err, wantErr)
			}
			if !sameQubits(want.Qubits, got.Qubits) {
				t.Fatalf("d=%d %v pe=%v trial %d: DecodeErasure %v != oracle %v",
					l.Distance(), g.ErrorType(), pe, trial, got.Qubits, want.Qubits)
			}
		}
	}
}

// The generic dispatcher must route through DecodeInto when given a
// scratch and fall back to the decoder's Decode without one, with
// identical results either way.
func TestConformanceDispatch(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := noise.NewRand(37)
	s := decodepool.NewScratch()
	dec := mwpm.New()
	for trial := 0; trial < 20; trial++ {
		syn := randomSyndrome(rng, l, g, 0.08)
		pooled, err := decodepool.Decode(dec, g, syn, s)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := decodepool.Decode(dec, g, syn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameQubits(pooled.Qubits, legacy.Qubits) {
			t.Fatalf("trial %d: dispatch mismatch %v vs %v", trial, pooled.Qubits, legacy.Qubits)
		}
	}
}

// MWPM is exact: its matching weight must equal the true minimum error
// weight. At d=3 the oracle is the exact ML decoder's minimum-weight
// coset representative (at p=0.01 the lighter coset always dominates);
// at d=5 it is brute force over all pairings.
func TestConformanceMWPMWeightOptimal(t *testing.T) {
	mw := mwpm.New()

	// d=3: every conformance syndrome against the MLD representative.
	l3 := lattice.MustNew(3)
	for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
		g := l3.MatchingGraph(e)
		ml, err := mld.New(g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for si, syn := range conformanceSyndromes(t, l3, g) {
			m := mustMatch(t, mw.Match, g, syn)
			c, err := ml.Decode(g, syn)
			if err != nil {
				t.Fatalf("syn %d: mld: %v", si, err)
			}
			if got, want := m.Weight(g), len(c.Qubits); got != want {
				t.Fatalf("d=3 %v syn %d: mwpm weight %d, ml minimum %d", e, si, got, want)
			}
		}
	}

	// d=5: small syndromes against brute-force optimal pairing.
	l5 := lattice.MustNew(5)
	g := l5.MatchingGraph(lattice.ZErrors)
	var bestWeight func(hot []int) int
	bestWeight = func(hot []int) int {
		if len(hot) == 0 {
			return 0
		}
		h, rest := hot[0], hot[1:]
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
	for si, syn := range conformanceSyndromes(t, l5, g) {
		hot := lattice.HotChecks(syn)
		if len(hot) > 8 {
			continue
		}
		if got, want := mustMatch(t, mw.Match, g, syn).Weight(g), bestWeight(hot); got != want {
			t.Fatalf("d=5 syn %d: mwpm weight %d, brute-force optimum %d (hot=%v)", si, got, want, hot)
		}
	}
}

// sameQubits compares correction contents; one side may return a
// non-nil empty slice where the other returns nil.
func sameQubits(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A syndrome with one check too few or too many is an error from every
// entry point of the software decoders — never a silent decode of the
// prefix, a panic, or a wrong correction.
func TestDecodersRejectWrongLengthSyndromes(t *testing.T) {
	type entry struct {
		name string
		run  func() error
	}
	g := lattice.MustNew(5).MatchingGraph(lattice.ZErrors)
	m := g.NumChecks()
	for _, c := range oracleCases() {
		dec := c.dec
		for _, n := range []int{m - 1, m + 1} {
			syn := make([]bool, n)
			syn[0], syn[n-1] = true, true
			entries := []entry{
				{"Decode", func() error { _, err := dec.Decode(g, syn); return err }},
				{"DecodeInto", func() error { _, err := dec.DecodeInto(g, syn, decodepool.NewScratch()); return err }},
			}
			if c.match != nil {
				entries = append(entries, entry{"Match", func() error { _, err := c.match(g, syn); return err }})
			}
			for _, e := range entries {
				if err := e.run(); err == nil {
					t.Errorf("%s %s: %d-check syndrome on a %d-check graph accepted", dec.Name(), e.name, n, m)
				}
			}
		}
	}
}
