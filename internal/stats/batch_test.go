package stats

// Acceptance gate of the SWAR batching PR: Monte-Carlo sweep results
// must be bit-identical with batching enabled vs disabled under the
// same seeds — per-trial streams are untouched by chunking and the
// batch kernel is conformance-pinned to the scalar one, so any
// divergence here is a real bug in one of those layers.

import (
	"testing"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/sfq"
)

func batchSweepConfig(cycles int, batch, dual bool, pool *sfq.Pool) CurveConfig {
	cfg := CurveConfig{
		Distances:  []int{3, 5, 7},
		Rates:      []float64{0.02, 0.06},
		Cycles:     cycles,
		NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		NewDecoderZ: func(d int) decoder.Decoder {
			if batch {
				return pool.GetBatch(d, lattice.ZErrors)
			}
			return pool.Get(d, lattice.ZErrors)
		},
		FreeDecoder: pool.Release,
		Seed:        1234,
		Batch:       batch,
	}
	if dual {
		cfg.NewChannel = func(p float64) (noise.Channel, error) { return noise.NewDepolarizing(p) }
		cfg.NewDecoderX = func(d int) decoder.Decoder {
			if batch {
				return pool.GetBatch(d, lattice.XErrors)
			}
			return pool.Get(d, lattice.XErrors)
		}
	}
	return cfg
}

func pointsEqual(t *testing.T, desc string, a, b []Point) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d points", desc, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: point %d diverges:\nscalar  %+v\nbatched %+v", desc, i, a[i], b[i])
		}
	}
}

// TestCurvesBatchDeterminism runs the same sweep with batching off and
// on (across worker/shard shapes and pinned plane widths W = 1, 2, 4)
// and requires bit-identical points: same logical-error counts, same
// forced completions, same trial counts.
func TestCurvesBatchDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		dual bool
	}{
		{"dephasing-Z", false},
		{"depolarizing-ZX", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycles := shortOr(1500, 400)
			pool := sfq.NewPool(sfq.Final)
			scalar, err := Curves(batchSweepConfig(cycles, false, tc.dual, pool))
			if err != nil {
				t.Fatal(err)
			}
			anyErrors := false
			for _, pt := range scalar {
				anyErrors = anyErrors || pt.Errors > 0
			}
			if !anyErrors {
				t.Fatal("scalar sweep saw no logical errors; determinism check is vacuous")
			}
			// words > 0 pins every batch mesh to that plane width instead
			// of the process default the pool builds.
			for _, shape := range []struct{ workers, shardSize, words int }{
				{0, 0, 0}, {3, 17, 0}, {1, 64, 0},
				{2, 0, 1}, {2, 0, 2}, {2, 0, 4},
			} {
				cfg := batchSweepConfig(cycles, true, tc.dual, pool)
				cfg.Workers = shape.workers
				cfg.ShardSize = shape.shardSize
				if shape.words > 0 {
					cfg.NewDecoderZ = pinnedWidth(lattice.ZErrors, shape.words)
					if tc.dual {
						cfg.NewDecoderX = pinnedWidth(lattice.XErrors, shape.words)
					}
					cfg.FreeDecoder = nil
				}
				batched, err := Curves(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pointsEqual(t, tc.name, scalar, batched)
			}
		})
	}
}

// pinnedWidth builds batch meshes of one explicit plane width, outside
// any pool.
func pinnedWidth(etype lattice.ErrorType, words int) func(d int) decoder.Decoder {
	return func(d int) decoder.Decoder {
		return sfq.NewBatchWithWidth(lattice.MustNew(d).MatchingGraph(etype), sfq.Final, words)
	}
}

// TestCurvesBatchPoolRecycling checks the sweep returns its batch
// meshes: after FreeDecoder ran for every point, the pool reports no
// outstanding meshes and later sweeps reuse parked ones.
func TestCurvesBatchPoolRecycling(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	if _, err := Curves(batchSweepConfig(300, true, false, pool)); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("pool reports %d outstanding meshes after sweep, want 0 (%+v)", st.Outstanding, st)
	}
	if _, err := Curves(batchSweepConfig(300, true, false, pool)); err != nil {
		t.Fatal(err)
	}
	st2 := pool.Stats()
	if st2.Hits == st.Hits {
		t.Fatalf("second sweep reused no parked batch meshes: %+v", st2)
	}
}
