package repro_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/sfq"
	"repro/internal/stats"
)

// TestSweepScalingGuard pins the work-stealing engine's multi-core
// scaling: a mixed-distance batched sweep (d 5/9/13, p .03/.05, 4000
// cycles per point) must reach at least 0.8x ideal speedup at every
// worker count the CPUs can carry, where ideal is min(workers, NumCPU).
// Oversubscribed counts are not run: scheduler overhead is all they
// would measure. Every run must also return the single-worker points
// bit for bit. Opt-in with REPRO_OBS_GUARD like the other wall-clock
// guards; each side keeps the minimum over interleaved rounds, the
// least-noisy estimator of its true cost.
func TestSweepScalingGuard(t *testing.T) {
	if !knob.Bool("REPRO_OBS_GUARD") {
		t.Skip("timing guard; set REPRO_OBS_GUARD=1 to run")
	}
	if decodepool.RaceEnabled {
		t.Skip("timing is not meaningful under -race")
	}
	ncpu := runtime.NumCPU()
	var counts []int
	for _, w := range []int{2, 4, 8} {
		if w <= ncpu {
			counts = append(counts, w)
		}
	}
	if len(counts) == 0 {
		t.Skip("one CPU: no worker count to scale to")
	}

	pool := sfq.NewPool(sfq.Final)
	sweep := func(workers int) ([]stats.Point, time.Duration) {
		start := time.Now()
		points, err := stats.Curves(stats.CurveConfig{
			Distances:   []int{5, 9, 13},
			Rates:       []float64{0.03, 0.05},
			Cycles:      4000,
			NewChannel:  func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
			NewDecoderZ: func(d int) decoder.Decoder { return pool.GetBatch(d, lattice.ZErrors) },
			FreeDecoder: pool.Release,
			Seed:        42,
			Workers:     workers,
			Batch:       true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return points, time.Since(start)
	}

	ref, _ := sweep(1) // warm the geometry cache and the mesh pool
	best := map[int]time.Duration{}
	for round := 0; round < 5; round++ {
		for _, w := range append([]int{1}, counts...) {
			points, wall := sweep(w)
			if len(points) != len(ref) {
				t.Fatalf("workers=%d: %d points, want %d", w, len(points), len(ref))
			}
			for i := range ref {
				if points[i] != ref[i] {
					t.Fatalf("workers=%d: point %d diverges:\nworkers=1 %+v\ngot       %+v", w, i, ref[i], points[i])
				}
			}
			if b, ok := best[w]; !ok || wall < b {
				best[w] = wall
			}
		}
	}
	for _, w := range counts {
		speedup := float64(best[1]) / float64(best[w])
		eff := speedup / float64(w) // w <= NumCPU, so ideal is w
		t.Logf("workers=%d: %v vs %v at 1 worker, %.2fx, efficiency %.2f", w, best[w], best[1], speedup, eff)
		if eff < 0.8 {
			t.Errorf("workers=%d: scaling efficiency %.2f is below the 0.8 floor", w, eff)
		}
	}
}
