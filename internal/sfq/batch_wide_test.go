package sfq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/lattice"
)

// The width-conformance suite pins the W-word plane layouts against the
// scalar bit-plane kernel: for every supported width (1, 2 and 4 words)
// the batch kernel must produce bit-identical corrections and per-lane
// Stats. Every width steps through the same fused phases, so the widths
// differ only in lane layout: word columns, lane seams and a partially
// filled last column.

// TestBatchMeshWidthConformance crosses distances, variants and error
// types with every explicit plane width on seeded random syndromes.
func TestBatchMeshWidthConformance(t *testing.T) {
	dists := []int{3, 5, 7}
	if !confShort() {
		dists = append(dists, 9, 13)
	}
	for _, d := range dists {
		for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			l := lattice.MustNew(d)
			g := l.MatchingGraph(etype)
			variants := []Variant{Baseline, WithReset, WithBoundary, Final}
			if d > 5 {
				variants = []Variant{Final}
			}
			for _, v := range variants {
				scalar := New(g, v)
				s := decodepool.NewScratch()
				for _, words := range []int{1, 2, 4} {
					batch := NewBatchWithWidth(g, v, words)
					if got := batch.Words(); got != words {
						t.Fatalf("d=%d W=%d: Words() = %d", d, words, got)
					}
					if want := MaxBatchLanesAt(d, words); batch.Lanes() != want {
						t.Fatalf("d=%d W=%d: lanes = %d, want %d", d, words, batch.Lanes(), want)
					}
					rng := rand.New(rand.NewSource(int64(7700*d+words) + int64(etype)))
					for _, p := range []float64{0.02, 0.1, 0.25} {
						n := 2*batch.Lanes() + 1 // uneven tail exercises partial refill
						syns := make([][]bool, n)
						for i := range syns {
							syns[i] = make([]bool, g.NumChecks())
							for j := range syns[i] {
								syns[i][j] = rng.Float64() < p
							}
						}
						assertBatchMatches(t, g, scalar, batch, s, syns,
							fmt.Sprintf("d=%d %v %s W=%d p=%g", d, etype, v.Name(), words, p))
					}
				}
			}
		}
	}
}

// TestBatchMeshWidthsAgree decodes one syndrome set at every width and
// requires identical corrections lane for lane — the cross-width
// counterpart of scalar conformance, pinning that REPRO_SFQ_WIDTH can
// never change results.
func TestBatchMeshWidthsAgree(t *testing.T) {
	for _, d := range []int{5, 9} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		rng := rand.New(rand.NewSource(int64(31 * d)))
		n := 3*MaxBatchLanesAt(d, 4) + 2
		syns := make([][]bool, n)
		for i := range syns {
			syns[i] = make([]bool, g.NumChecks())
			for j := range syns[i] {
				syns[i][j] = rng.Float64() < 0.08
			}
		}
		s := decodepool.NewScratch()
		var ref []string
		var refStats []Stats
		for _, words := range []int{1, 2, 4} {
			batch := NewBatchWithWidth(g, Final, words)
			corr, err := batch.DecodeBatchInto(g, syns, s)
			if err != nil {
				t.Fatalf("d=%d W=%d: %v", d, words, err)
			}
			if words == 1 {
				ref = make([]string, n)
				refStats = make([]Stats, n)
				for i := range corr {
					ref[i] = fmt.Sprint(corr[i].Qubits)
					refStats[i] = batch.LaneStats(i)
				}
				continue
			}
			for i := range corr {
				if got := fmt.Sprint(corr[i].Qubits); got != ref[i] {
					t.Fatalf("d=%d W=%d syndrome %d: corrections diverge from W=1:\nW=1 %s\nW=%d %s",
						d, words, i, ref[i], words, got)
				}
				if st := batch.LaneStats(i); st != refStats[i] {
					t.Fatalf("d=%d W=%d syndrome %d: stats diverge from W=1:\nW=1 %+v\nW=%d %+v",
						d, words, i, refStats[i], words, st)
				}
			}
		}
	}
}

// FuzzWideBatch cross-checks the W-word layouts against the scalar
// kernel on fuzzer-chosen (distance, variant, width, syndromes) tuples.
func FuzzWideBatch(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(1), []byte{0x01, 0x80, 0x03})
	f.Add(uint8(1), uint8(3), uint8(2), []byte{0xff, 0x10, 0x00, 0x42})
	f.Add(uint8(2), uint8(0), uint8(4), []byte{0x03, 0x00, 0x81, 0xaa, 0x55})
	f.Add(uint8(3), uint8(2), uint8(2), []byte{0xaa, 0x55, 0xaa, 0x55, 0x0f, 0xf0})
	dists := []int{3, 5, 7, 9}
	variants := []Variant{Baseline, WithReset, WithBoundary, Final}
	graphs := map[int]*lattice.Graph{}
	for _, d := range dists {
		graphs[d] = lattice.MustNew(d).MatchingGraph(lattice.ZErrors)
	}
	widths := []int{1, 2, 4}
	f.Fuzz(func(t *testing.T, dSel, vSel, wSel uint8, synBytes []byte) {
		d := dists[int(dSel)%len(dists)]
		g := graphs[d]
		v := variants[vSel%4]
		words := widths[int(wSel)%len(widths)]
		scalar := New(g, v)
		batch := NewBatchWithWidth(g, v, words)
		s := decodepool.NewScratch()
		nc := g.NumChecks()
		n := batch.Lanes() + 3
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
			fmt.Sprintf("fuzz d=%d v=%s W=%d", d, v.Name(), words))
	})
}

// TestBatchMeshWidthZeroAllocs extends the zero-allocation guarantee to
// every plane width at d = 9 and 13: warmed-up wide meshes decode full
// batches without touching the heap.
func TestBatchMeshWidthZeroAllocs(t *testing.T) {
	for _, d := range []int{9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		rng := rand.New(rand.NewSource(int64(d)))
		for _, words := range []int{1, 2, 4} {
			batch := NewBatchWithWidth(g, Final, words)
			n := 2 * batch.Lanes()
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
				t.Errorf("d=%d W=%d: %.1f allocs/batch, want 0", d, words, allocs)
			}
		}
	}
}
