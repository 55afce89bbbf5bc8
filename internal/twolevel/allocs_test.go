package twolevel

import (
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sfq"
)

// The synchronous two-level hot path must stay allocation-free after
// warmup — escalations included (MWPM re-decodes run in the same
// decodepool.Scratch, escalated batch corrections in a scratch-owned
// arena) — with the obs counter mirror enabled.
func TestTwoLevelZeroAllocs(t *testing.T) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := rand.New(rand.NewSource(7))
	mkSyn := func(p float64) []bool {
		syn := make([]bool, g.NumChecks())
		for j := range syn {
			syn[j] = rng.Float64() < p
		}
		return syn
	}
	quiet := mkSyn(0.02) // decodes clean, no escalation under hot6
	dense := mkSyn(0.25) // always escalates under hot6
	reg := obs.NewRegistry()
	pol := Policy{OnRetry: true, OnUnresolved: true, OnFallback: true, HotThreshold: 6}

	t.Run("scalar", func(t *testing.T) {
		tl := New(sfq.New(g, sfq.Final), mwpm.New(), pol)
		tl.Instrument(reg)
		s := decodepool.NewScratch()
		for _, syn := range [][]bool{quiet, dense} {
			for i := 0; i < 8; i++ {
				if _, err := tl.DecodeInto(g, syn, s); err != nil {
					t.Fatal(err)
				}
			}
			escalated := tl.Escalated(0)
			allocs := testing.AllocsPerRun(64, func() {
				if _, err := tl.DecodeInto(g, syn, s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("scalar escalated=%v: %.1f allocs/decode, want 0", escalated, allocs)
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		tl := NewBatch(sfq.NewBatch(g, sfq.Final), mwpm.New(), pol)
		tl.Instrument(reg)
		s := decodepool.NewScratch()
		// A mixed batch: some lanes escalate, some do not.
		n := 2*tl.BatchWidth() + 1
		syns := make([][]bool, n)
		for i := range syns {
			if i%3 == 0 {
				syns[i] = dense
			} else {
				syns[i] = quiet
			}
		}
		for i := 0; i < 8; i++ {
			if _, err := tl.DecodeBatchInto(g, syns, s); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[bool]bool{}
		for i := range syns {
			seen[tl.Escalated(i)] = true
		}
		if !seen[true] || !seen[false] {
			t.Fatalf("batch corpus not mixed: verdicts %v", seen)
		}
		allocs := testing.AllocsPerRun(16, func() {
			if _, err := tl.DecodeBatchInto(g, syns, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("batch: %.1f allocs/batch, want 0", allocs)
		}
	})
}
