package sfq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/pauli"
)

// The conformance suite pins the bit-plane kernel bit-identical to the
// legacy struct-of-bools oracle (legacy_oracle_test.go): same correction qubits, same Stats
// (cycles, pairings, resets, retries, fallbacks, unresolved) for every
// variant, error type, and syndrome thrown at them.

func confShort() bool {
	return testing.Short() || knob.Bool("REPRO_MC_SHORT")
}

// kernelPair builds a legacy oracle and a bit-plane mesh over the same
// graph.
func kernelPair(g *lattice.Graph, v Variant) (*legacyMesh, *Mesh) {
	return newLegacy(g, v), New(g, v)
}

// assertSameDecode decodes syn on both meshes and fails on any
// divergence in corrections or stats.
func assertSameDecode(t *testing.T, legacy *legacyMesh, bit *Mesh, syn []bool, desc string) {
	t.Helper()
	cl, sl, errL := legacy.DecodeWithStats(syn)
	cb, sb, errB := bit.DecodeWithStats(syn)
	if (errL == nil) != (errB == nil) {
		t.Fatalf("%s: error divergence: legacy=%v bitplane=%v", desc, errL, errB)
	}
	if errL != nil {
		return
	}
	if sl != sb {
		t.Fatalf("%s: stats diverge:\nlegacy   %+v\nbitplane %+v", desc, sl, sb)
	}
	if len(cl.Qubits) != len(cb.Qubits) {
		t.Fatalf("%s: corrections diverge:\nlegacy   %v\nbitplane %v", desc, cl.Qubits, cb.Qubits)
	}
	for i := range cl.Qubits {
		if cl.Qubits[i] != cb.Qubits[i] {
			t.Fatalf("%s: corrections diverge:\nlegacy   %v\nbitplane %v", desc, cl.Qubits, cb.Qubits)
		}
	}
}

// errorSyndrome computes the syndrome of a Z- or X-error pattern on the
// given data qubits.
func errorSyndrome(l *lattice.Lattice, g *lattice.Graph, f *pauli.Frame, qubits ...int) []bool {
	f.Clear()
	op := pauli.Z
	if g.ErrorType() == lattice.XErrors {
		op = pauli.X
	}
	for _, q := range qubits {
		f.Apply(q, op)
	}
	return g.Syndrome(f)
}

// TestBitplaneConformanceLowWeight checks every weight-≤2 error pattern:
// all variants and both error types at d ∈ {3, 5}, the final variant
// at d ∈ {7, 9} (full pair enumeration there is ~10k syndromes each).
func TestBitplaneConformanceLowWeight(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		variants := []Variant{Baseline, WithReset, WithBoundary, Final}
		etypes := []lattice.ErrorType{lattice.ZErrors, lattice.XErrors}
		if d >= 7 {
			variants = []Variant{Final}
			etypes = []lattice.ErrorType{lattice.ZErrors}
		}
		if confShort() && d >= 7 {
			continue
		}
		for _, etype := range etypes {
			l := lattice.MustNew(d)
			g := l.MatchingGraph(etype)
			var qubits []int
			for _, s := range l.DataSites() {
				qubits = append(qubits, l.QubitIndex(s))
			}
			f := pauli.NewFrame(l.NumQubits())
			for _, v := range variants {
				legacy, bit := kernelPair(g, v)
				// Weight 0 and 1.
				assertSameDecode(t, legacy, bit, errorSyndrome(l, g, f),
					fmt.Sprintf("d=%d %v %s weight-0", d, etype, v.Name()))
				for _, q := range qubits {
					assertSameDecode(t, legacy, bit, errorSyndrome(l, g, f, q),
						fmt.Sprintf("d=%d %v %s err{%d}", d, etype, v.Name(), q))
				}
				// Weight 2: all pairs.
				for i := 0; i < len(qubits); i++ {
					for j := i + 1; j < len(qubits); j++ {
						assertSameDecode(t, legacy, bit, errorSyndrome(l, g, f, qubits[i], qubits[j]),
							fmt.Sprintf("d=%d %v %s err{%d,%d}", d, etype, v.Name(), qubits[i], qubits[j]))
					}
				}
			}
		}
	}
}

// TestBitplaneConformanceRandom drives both kernels over seeded random
// raw syndromes (each check hot independently), which reach states —
// odd-parity syndromes, dense stall patterns — that error-derived
// syndromes rarely produce. ≥ 1k syndromes in the full run.
func TestBitplaneConformanceRandom(t *testing.T) {
	trials := 50
	if confShort() {
		trials = 8
	}
	for _, d := range []int{3, 5, 7, 9} {
		for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			l := lattice.MustNew(d)
			g := l.MatchingGraph(etype)
			for _, p := range []float64{0.02, 0.08, 0.2} {
				rng := rand.New(rand.NewSource(int64(1000*d) + int64(100*p*float64(d)) + int64(etype)))
				for _, v := range []Variant{Baseline, WithReset, WithBoundary, Final} {
					legacy, bit := kernelPair(g, v)
					for trial := 0; trial < trials; trial++ {
						syn := make([]bool, g.NumChecks())
						for i := range syn {
							syn[i] = rng.Float64() < p
						}
						assertSameDecode(t, legacy, bit, syn,
							fmt.Sprintf("d=%d %v %s p=%g trial=%d", d, etype, v.Name(), p, trial))
					}
				}
			}
		}
	}
}

// TestBitplaneConformanceReuse interleaves decodes on shared meshes, so
// any state leaking across Decode calls in either kernel diverges.
func TestBitplaneConformanceReuse(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	legacy, bit := kernelPair(g, Final)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		syn := make([]bool, g.NumChecks())
		p := []float64{0, 0.05, 0.3}[trial%3]
		for i := range syn {
			syn[i] = rng.Float64() < p
		}
		assertSameDecode(t, legacy, bit, syn, fmt.Sprintf("reuse trial=%d", trial))
	}
}

// TestBitplaneConformanceMultiWord diffs the multi-word bit-plane path
// against the legacy oracle on corrections and full Stats. At d=33 the
// mesh side is 67, so every plane row spans two words: the cross-word
// carries of the row shifts and the per-word correction and drain scans
// run only here. The BatchMesh side > 64 fallback (a private scalar
// mesh, one lane) is checked against the same oracle. Weight-1 errors
// on the data qubits around the word seam come first, then seeded
// random syndromes over all variants.
func TestBitplaneConformanceMultiWord(t *testing.T) {
	const d = 33
	l := lattice.MustNew(d)
	geo := geomFor(l.MatchingGraph(lattice.ZErrors))
	if geo.words != 2 {
		t.Fatalf("d=%d: %d words per plane row, want 2", d, geo.words)
	}
	trials := 3
	if confShort() {
		trials = 1
	}
	// Mesh columns 61..66 straddle the bit-63/bit-64 seam; mesh column c
	// is lattice column c-1.
	var seamQubits []int
	for _, s := range l.DataSites() {
		if s.Col+1 >= 61 && s.Col+1 <= 66 {
			seamQubits = append(seamQubits, l.QubitIndex(s))
		}
	}
	f := pauli.NewFrame(l.NumQubits())
	s := decodepool.NewScratch()
	for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
		g := l.MatchingGraph(etype)
		for _, v := range []Variant{Baseline, WithReset, WithBoundary, Final} {
			legacy, bit := kernelPair(g, v)
			batch := NewBatch(g, v)
			check := func(syn []bool, desc string) {
				t.Helper()
				assertSameDecode(t, legacy, bit, syn, desc)
				wantC, want, _ := legacy.DecodeWithStats(syn)
				wantQ := fmt.Sprint(wantC.Qubits)
				corr, err := batch.DecodeBatchInto(g, [][]bool{syn}, s)
				if err != nil {
					t.Fatalf("%s: batch fallback: %v", desc, err)
				}
				if got := batch.LaneStats(0); got != want {
					t.Fatalf("%s: batch fallback stats diverge:\nlegacy %+v\nbatch  %+v", desc, want, got)
				}
				if got := fmt.Sprint(corr[0].Qubits); got != wantQ {
					t.Fatalf("%s: batch fallback corrections diverge:\nlegacy %s\nbatch  %s", desc, wantQ, got)
				}
			}
			if v == Final {
				for _, q := range seamQubits {
					check(errorSyndrome(l, g, f, q), fmt.Sprintf("d=%d %v %s err{%d}", d, etype, v.Name(), q))
				}
			}
			rng := rand.New(rand.NewSource(3300 + int64(etype)))
			for _, p := range []float64{0.003, 0.01, 0.03} {
				for trial := 0; trial < trials; trial++ {
					syn := make([]bool, g.NumChecks())
					for i := range syn {
						syn[i] = rng.Float64() < p
					}
					check(syn, fmt.Sprintf("d=%d %v %s p=%g trial=%d", d, etype, v.Name(), p, trial))
				}
			}
		}
	}
}

// FuzzMesh cross-checks the bit-plane kernel against the legacy oracle
// on fuzzer-chosen (distance, variant, syndrome) triples.
func FuzzMesh(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{0x01})
	f.Add(uint8(1), uint8(0), []byte{0xff, 0x10})
	f.Add(uint8(2), uint8(2), []byte{0x03, 0x00, 0x81})
	f.Add(uint8(3), uint8(1), []byte{0xaa, 0x55, 0xaa, 0x55})
	dists := []int{3, 5, 7, 9}
	variants := []Variant{Baseline, WithReset, WithBoundary, Final}
	type pairKey struct {
		d int
		v uint8
	}
	graphs := map[int]*lattice.Graph{}
	for _, d := range dists {
		graphs[d] = lattice.MustNew(d).MatchingGraph(lattice.ZErrors)
	}
	type meshPair struct {
		legacy *legacyMesh
		bit    *Mesh
	}
	meshes := map[pairKey]meshPair{}
	for _, d := range dists {
		for vi, v := range variants {
			legacy, bit := kernelPair(graphs[d], v)
			meshes[pairKey{d, uint8(vi)}] = meshPair{legacy, bit}
		}
	}
	f.Fuzz(func(t *testing.T, dSel, vSel uint8, synBytes []byte) {
		d := dists[int(dSel)%len(dists)]
		g := graphs[d]
		pair := meshes[pairKey{d, vSel % 4}]
		syn := make([]bool, g.NumChecks())
		for i := range syn {
			if i/8 < len(synBytes) {
				syn[i] = synBytes[i/8]>>(i%8)&1 == 1
			}
		}
		assertSameDecode(t, pair.legacy, pair.bit, syn, fmt.Sprintf("fuzz d=%d v=%d", d, vSel%4))
	})
}

// TestMeshDecodeIntoZeroAllocs is the PR 2 guarantee extended to the
// mesh decoder: a warmed-up pooled mesh decodes with zero heap
// allocations at d=9.
func TestMeshDecodeIntoZeroAllocs(t *testing.T) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := rand.New(rand.NewSource(7))
	syndromes := make([][]bool, 32)
	for i := range syndromes {
		syndromes[i] = make([]bool, g.NumChecks())
		for j := range syndromes[i] {
			syndromes[i][j] = rng.Float64() < 0.08
		}
	}
	mesh := New(g, Final)
	s := decodepool.NewScratch()
	for _, syn := range syndromes {
		if _, err := mesh.DecodeInto(g, syn, s); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(len(syndromes)*4, func() {
		if _, err := mesh.DecodeInto(g, syndromes[i%len(syndromes)], s); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs/decode, want 0", allocs)
	}
}

// TestMeshPoolReuse checks the pool hands back parked meshes instead of
// building new ones, and that recycled meshes decode correctly.
func TestMeshPoolReuse(t *testing.T) {
	pool := NewPool(Final)
	m1 := pool.Get(5, lattice.ZErrors)
	g := pool.Graph(5, lattice.ZErrors)
	syn := make([]bool, g.NumChecks())
	syn[0], syn[1] = true, true
	c1, _, err := m1.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)
	m2 := pool.Get(5, lattice.ZErrors)
	if m2 != m1 {
		t.Fatalf("pool built a new mesh instead of reusing the parked one")
	}
	if m2.Stats() != (Stats{}) {
		t.Fatalf("recycled mesh carries stale stats: %+v", m2.Stats())
	}
	c2, _, err := m2.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(c1.Qubits) != fmt.Sprint(c2.Qubits) {
		t.Fatalf("recycled mesh decodes differently: %v vs %v", c1.Qubits, c2.Qubits)
	}
	// A mesh of a foreign variant must not enter the pool.
	pool.Put(New(pool.Graph(5, lattice.ZErrors), Baseline))
	if got := pool.Get(5, lattice.ZErrors); got == nil || got.Variant() != Final {
		t.Fatalf("pool handed out a foreign-variant mesh")
	}
}

// TestMeshPoolRelease checks the decoder.Decoder adapter ignores
// non-mesh decoders and recycles meshes.
func TestMeshPoolRelease(t *testing.T) {
	pool := NewPool(Final)
	m := pool.Get(3, lattice.XErrors)
	pool.Release(m)
	if got := pool.Get(3, lattice.XErrors); got != m {
		t.Fatalf("Release did not recycle the mesh")
	}
	pool.Release(nil) // non-mesh decoder: must not panic
}

// TestDecodeIntoMatchesDecode checks the pooled path returns the same
// correction as the allocating path, and that a structurally identical
// graph (distinct pointer) is accepted while a foreign one is rejected.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	g2 := lattice.MustNew(5).MatchingGraph(lattice.ZErrors) // same structure, different pointer
	wrong := l.MatchingGraph(lattice.XErrors)
	mesh := New(g, Final)
	s := decodepool.NewScratch()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		syn := make([]bool, g.NumChecks())
		for i := range syn {
			syn[i] = rng.Float64() < 0.1
		}
		want, err := mesh.Decode(g, syn)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mesh.DecodeInto(g2, syn, s)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want.Qubits) != fmt.Sprint(got.Qubits) {
			t.Fatalf("trial %d: DecodeInto %v != Decode %v", trial, got.Qubits, want.Qubits)
		}
	}
	if _, err := mesh.DecodeInto(wrong, make([]bool, wrong.NumChecks()), s); err == nil {
		t.Fatalf("DecodeInto accepted a graph of the wrong error type")
	}
}
