package sfq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/lattice"
	"repro/internal/pauli"
)

// The batch conformance suite pins the SWAR kernel bit-identical to the
// scalar bit-plane kernel: same correction qubits and same per-lane
// Stats for every syndrome of a batch, across variants, error types,
// lane widths, and decode-order permutations induced by dynamic refill.

// assertBatchMatches decodes every syndrome on the scalar mesh, then
// all of them in one DecodeBatchInto, and fails on any divergence in
// corrections or per-lane Stats.
func assertBatchMatches(t *testing.T, g *lattice.Graph, scalar *Mesh, batch *BatchMesh, s *decodepool.Scratch, syns [][]bool, desc string) {
	t.Helper()
	type want struct {
		qubits string
		st     Stats
	}
	wants := make([]want, len(syns))
	for i, syn := range syns {
		c, st, err := scalar.DecodeWithStats(syn)
		if err != nil {
			t.Fatalf("%s: scalar decode %d: %v", desc, i, err)
		}
		wants[i] = want{fmt.Sprint(c.Qubits), st}
	}
	corr, err := batch.DecodeBatchInto(g, syns, s)
	if err != nil {
		t.Fatalf("%s: batch decode: %v", desc, err)
	}
	if len(corr) != len(syns) {
		t.Fatalf("%s: got %d corrections for %d syndromes", desc, len(corr), len(syns))
	}
	for i := range syns {
		if got := fmt.Sprint(corr[i].Qubits); got != wants[i].qubits {
			t.Fatalf("%s: syndrome %d corrections diverge:\nscalar %s\nbatch  %s",
				desc, i, wants[i].qubits, got)
		}
		if st := batch.LaneStats(i); st != wants[i].st {
			t.Fatalf("%s: syndrome %d stats diverge:\nscalar %+v\nbatch  %+v",
				desc, i, wants[i].st, st)
		}
	}
}

// TestBatchMeshConformanceLowWeight decodes every weight-≤2 error
// pattern as one large batch (heavy dynamic refill) at several lane
// widths, for all variants and both error types.
func TestBatchMeshConformanceLowWeight(t *testing.T) {
	for _, d := range []int{3, 5} {
		for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			l := lattice.MustNew(d)
			g := l.MatchingGraph(etype)
			var qubits []int
			for _, site := range l.DataSites() {
				qubits = append(qubits, l.QubitIndex(site))
			}
			f := pauli.NewFrame(l.NumQubits())
			var syns [][]bool
			syns = append(syns, errorSyndrome(l, g, f)) // weight 0
			for _, q := range qubits {
				syns = append(syns, errorSyndrome(l, g, f, q))
			}
			for i := 0; i < len(qubits); i++ {
				for j := i + 1; j < len(qubits); j++ {
					syns = append(syns, errorSyndrome(l, g, f, qubits[i], qubits[j]))
				}
			}
			widths := []int{1, 2, MaxBatchLanes(d)}
			if confShort() {
				widths = []int{MaxBatchLanes(d)}
			}
			for _, v := range []Variant{Baseline, WithReset, WithBoundary, Final} {
				scalar := New(g, v)
				s := decodepool.NewScratch()
				for _, lanes := range widths {
					batch := NewBatchWithLanes(g, v, lanes)
					assertBatchMatches(t, g, scalar, batch, s, syns,
						fmt.Sprintf("d=%d %v %s lanes=%d", d, etype, v.Name(), batch.Lanes()))
				}
			}
		}
	}
}

// TestBatchMeshConformanceRandom drives scalar and batched kernels over
// seeded random raw syndromes, including the dense stall patterns that
// exercise per-lane retry priorities and global resets.
func TestBatchMeshConformanceRandom(t *testing.T) {
	batches := 6
	if confShort() {
		batches = 2
	}
	dists := []int{3, 5, 7, 9}
	if !confShort() {
		dists = append(dists, 13)
	}
	for _, d := range dists {
		for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			l := lattice.MustNew(d)
			g := l.MatchingGraph(etype)
			for _, p := range []float64{0.02, 0.08, 0.2} {
				rng := rand.New(rand.NewSource(int64(9000*d) + int64(100*p*float64(d)) + int64(etype)))
				variants := []Variant{Baseline, WithReset, WithBoundary, Final}
				if d > 5 {
					variants = []Variant{Final}
				}
				for _, v := range variants {
					scalar := New(g, v)
					batch := NewBatch(g, v)
					s := decodepool.NewScratch()
					for b := 0; b < batches; b++ {
						n := 2*batch.Lanes() + b // uneven tails exercise partial refill
						syns := make([][]bool, n)
						for i := range syns {
							syns[i] = make([]bool, g.NumChecks())
							for j := range syns[i] {
								syns[i][j] = rng.Float64() < p
							}
						}
						assertBatchMatches(t, g, scalar, batch, s, syns,
							fmt.Sprintf("d=%d %v %s p=%g batch=%d", d, etype, v.Name(), p, b))
					}
				}
			}
		}
	}
}

// TestBatchMeshSingleDecodeAdapters checks the decoder.Decoder and
// IntoDecoder faces of BatchMesh against the scalar kernel, including
// Stats of the last single decode.
func TestBatchMeshSingleDecodeAdapters(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	scalar := New(g, Final)
	batch := NewBatch(g, Final)
	s := decodepool.NewScratch()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		syn := make([]bool, g.NumChecks())
		p := []float64{0, 0.05, 0.25}[trial%3]
		for i := range syn {
			syn[i] = rng.Float64() < p
		}
		want, wantSt, err := scalar.DecodeWithStats(syn)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batch.DecodeInto(g, syn, s)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Qubits) != fmt.Sprint(want.Qubits) {
			t.Fatalf("trial %d: DecodeInto %v != scalar %v", trial, got.Qubits, want.Qubits)
		}
		if batch.Stats() != wantSt {
			t.Fatalf("trial %d: stats %+v != scalar %+v", trial, batch.Stats(), wantSt)
		}
		got2, err := batch.Decode(g, syn)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got2.Qubits) != fmt.Sprint(want.Qubits) {
			t.Fatalf("trial %d: Decode %v != scalar %v", trial, got2.Qubits, want.Qubits)
		}
	}
}

// TestBatchMeshWideFallback checks the side > 64 fallback: BatchMesh at
// a distance whose mesh exceeds one word decodes through a private
// scalar mesh, lane width 1, still conformant.
func TestBatchMeshWideFallback(t *testing.T) {
	if confShort() {
		t.Skip("short mode")
	}
	d := 33 // side 2d+1 = 67 > 64
	if MaxBatchLanes(d) != 1 {
		t.Fatalf("MaxBatchLanes(%d) = %d, want 1", d, MaxBatchLanes(d))
	}
	l := lattice.MustNew(d)
	g := l.MatchingGraph(lattice.ZErrors)
	scalar := New(g, Final)
	batch := NewBatch(g, Final)
	if batch.Lanes() != 1 {
		t.Fatalf("fallback lanes = %d, want 1", batch.Lanes())
	}
	s := decodepool.NewScratch()
	rng := rand.New(rand.NewSource(5))
	syns := make([][]bool, 3)
	for i := range syns {
		syns[i] = make([]bool, g.NumChecks())
		for j := range syns[i] {
			syns[i][j] = rng.Float64() < 0.01
		}
	}
	assertBatchMatches(t, g, scalar, batch, s, syns, "wide fallback d=33")
}

// FuzzBatchMesh cross-checks batched against scalar decoding on
// fuzzer-chosen (distance, variant, lane width, syndromes) tuples.
func FuzzBatchMesh(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(2), []byte{0x01, 0x80, 0x03})
	f.Add(uint8(1), uint8(0), uint8(0), []byte{0xff, 0x10, 0x00, 0x42})
	f.Add(uint8(2), uint8(2), uint8(1), []byte{0x03, 0x00, 0x81, 0xaa, 0x55})
	f.Add(uint8(3), uint8(1), uint8(7), []byte{0xaa, 0x55, 0xaa, 0x55, 0x0f, 0xf0})
	dists := []int{3, 5, 7, 9}
	variants := []Variant{Baseline, WithReset, WithBoundary, Final}
	graphs := map[int]*lattice.Graph{}
	for _, d := range dists {
		graphs[d] = lattice.MustNew(d).MatchingGraph(lattice.ZErrors)
	}
	f.Fuzz(func(t *testing.T, dSel, vSel, wSel uint8, synBytes []byte) {
		d := dists[int(dSel)%len(dists)]
		g := graphs[d]
		v := variants[vSel%4]
		lanes := 1 + int(wSel)%MaxBatchLanes(d)
		scalar := New(g, v)
		batch := NewBatchWithLanes(g, v, lanes)
		s := decodepool.NewScratch()
		// Slice the fuzz bytes into a batch of syndromes, one byte per
		// 8 checks, cycling through the input with a shifting offset so
		// the lanes see distinct patterns.
		nc := g.NumChecks()
		n := 2*lanes + 1
		syns := make([][]bool, n)
		for k := range syns {
			syns[k] = make([]bool, nc)
			if len(synBytes) == 0 {
				continue
			}
			for i := 0; i < nc; i++ {
				b := synBytes[(i/8+k)%len(synBytes)]
				syns[k][i] = b>>(i%8)&1 == 1
			}
		}
		assertBatchMatches(t, g, scalar, batch, s, syns,
			fmt.Sprintf("fuzz d=%d v=%s lanes=%d", d, v.Name(), lanes))
	})
}

// TestBatchMeshZeroAllocs extends the zero-allocation guarantee to the
// batched hot path: a warmed-up BatchMesh decodes full batches (and
// single syndromes through the adapter) with zero heap allocations.
func TestBatchMeshZeroAllocs(t *testing.T) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := rand.New(rand.NewSource(7))
	batch := NewBatch(g, Final)
	n := 4 * batch.Lanes()
	syns := make([][]bool, n)
	for i := range syns {
		syns[i] = make([]bool, g.NumChecks())
		for j := range syns[i] {
			syns[i][j] = rng.Float64() < 0.08
		}
	}
	s := decodepool.NewScratch()
	for i := 0; i < 4; i++ {
		if _, err := batch.DecodeBatchInto(g, syns, s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(16, func() {
		if _, err := batch.DecodeBatchInto(g, syns, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batched: %.1f allocs/batch, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(64, func() {
		if _, err := batch.DecodeInto(g, syns[0], s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("single adapter: %.1f allocs/decode, want 0", allocs)
	}
}
