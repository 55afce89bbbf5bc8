package stats

// Acceptance gate of the work-stealing scheduler: sweep results must be
// bit-identical at every worker count and steal schedule. ForceSteal
// makes workers migrate tasks on every dequeue, hammering the steal
// path far beyond natural imbalance; a sweep whose verdicts move under
// it has scheduling-dependent results, which the counter-based trial
// streams are supposed to make impossible. ci.sh runs this under -race.

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sfq"
)

// TestCurvesStealScheduleDeterminism runs one batched sweep as the
// reference, then replays it across worker counts with and without
// forced stealing, requiring identical points every time. The forced
// multi-worker runs must actually steal — otherwise the schedule
// hammer is vacuous.
func TestCurvesStealScheduleDeterminism(t *testing.T) {
	cycles := shortOr(1500, 400)
	pool := sfq.NewPool(sfq.Final)
	ref, err := Curves(batchSweepConfig(cycles, true, false, pool))
	if err != nil {
		t.Fatal(err)
	}
	anyErrors := false
	for _, pt := range ref {
		anyErrors = anyErrors || pt.Errors > 0
	}
	if !anyErrors {
		t.Fatal("reference sweep saw no logical errors; determinism check is vacuous")
	}
	for _, shape := range []struct {
		workers    int
		forceSteal bool
	}{
		{1, false}, {1, true}, {2, false}, {2, true}, {4, false}, {8, true}, {8, false},
	} {
		var ss sched.Stats
		cfg := batchSweepConfig(cycles, true, false, pool)
		cfg.Workers = shape.workers
		cfg.ForceSteal = shape.forceSteal
		cfg.SchedStats = &ss
		// A small fixed shard size splits every point into many tasks,
		// giving the steal schedule real work to shuffle.
		cfg.ShardSize = 16
		got, err := Curves(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pointsEqual(t, "steal schedule", ref, got)
		if shape.forceSteal && shape.workers > 1 && ss.Steals == 0 {
			t.Fatalf("workers=%d forceSteal: scheduler reports zero steals; the hammer did nothing", shape.workers)
		}
	}
}
