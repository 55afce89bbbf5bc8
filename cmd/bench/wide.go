package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sfq"
	"repro/internal/stats"
)

// WideArtifact is the on-disk schema of BENCH_pr8.json: the W-word SWAR
// kernel sweep and the multi-core scaling sweep. ServeRows is written
// empty here and appended in place by `loadgen -sweep`, so the one
// artifact carries the whole multi-core story.
type WideArtifact struct {
	Manifest    *obs.Manifest `json:"manifest"`
	KernelRows  []WideRow     `json:"kernel_rows"`
	ScalingRows []ScaleRow    `json:"scaling_rows"`
	ServeRows   []any         `json:"serve_rows,omitempty"`
}

// WideRow is one (distance, plane width) measurement of the SWAR batch
// kernel. Lanes is the full lane complement at that width; SpeedupVsW1
// is the per-decode throughput ratio against the one-word layout of the
// same distance, so ≥1 means the wider plane pays for its extra word
// traffic. Corrections and cycle counts are cross-checked bit-exactly
// against the scalar bit-plane kernel before timing.
type WideRow struct {
	Distance             int     `json:"d"`
	Words                int     `json:"words"`
	Lanes                int     `json:"lanes"`
	Iters                int     `json:"iters"`
	NsPerDecode          float64 `json:"ns_per_decode"`
	DecodesPerSec        float64 `json:"decodes_per_sec"`
	SpeedupVsW1          float64 `json:"speedup_vs_w1"`
	CyclesPerDecode      float64 `json:"cycles_per_decode"`
	BatchAllocsPerDecode float64 `json:"batch_allocs_per_decode"`
}

// ScaleRow is one Monte-Carlo sweep wall-clock measurement at a worker
// count. Fingerprint hashes every returned point; all rows of a run
// must agree (the harness fails otherwise), which pins bit-identical
// sweep output across worker counts, steal schedules, and plane widths.
// Ideal is min(workers, NumCPU) — on a box with fewer cores than
// workers, oversubscription cannot speed anything up and Efficiency is
// measured against what the silicon can actually deliver.
type ScaleRow struct {
	Workers     int     `json:"workers"`
	ForceSteal  bool    `json:"force_steal,omitempty"`
	Words       int     `json:"words,omitempty"` // 0: process default width
	WallMs      float64 `json:"wall_ms"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
	Ideal       int     `json:"ideal"`
	Efficiency  float64 `json:"efficiency"`
	Fingerprint string  `json:"fingerprint"`
	Steals      uint64  `json:"steals"`
	Stolen      uint64  `json:"stolen"`
	Parks       uint64  `json:"parks"`
}

// benchWideKernel times the SWAR batch kernel at every supported plane
// width on identical seeded syndromes. Each width is conformance-checked
// against the scalar bit-plane kernel (bit-identical corrections and
// cycle counts) before its timing loop, so the artifact is also a
// width-conformance record.
func benchWideKernel(iters int) ([]WideRow, error) {
	var rows []WideRow
	for _, d := range []int{5, 9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		syndromes, err := sampleSyndromes(l, g, 64, int64(100+d))
		if err != nil {
			return nil, err
		}
		mesh := sfq.New(g, sfq.Final)
		ss := decodepool.NewScratch()
		cycles := 0
		for _, syn := range syndromes {
			if _, err := mesh.DecodeInto(g, syn, ss); err != nil {
				return nil, err
			}
			cycles += mesh.Stats().Cycles
		}
		var w1Ns float64
		for _, words := range []int{1, 2, 4} {
			batch := sfq.NewBatchWithWidth(g, sfq.Final, words)
			lanes := batch.Lanes()
			wins := make([][][]bool, len(syndromes))
			for i := range wins {
				win := make([][]bool, lanes)
				for j := range win {
					win[j] = syndromes[(i+j)%len(syndromes)]
				}
				wins[i] = win
			}
			sb := decodepool.NewScratch()
			for wi, win := range wins {
				corrs, err := batch.DecodeBatchInto(g, win, sb)
				if err != nil {
					return nil, fmt.Errorf("wide d=%d W=%d window %d: %w", d, words, wi, err)
				}
				for j, syn := range win {
					want, err := mesh.DecodeInto(g, syn, ss)
					if err != nil {
						return nil, err
					}
					if fmt.Sprint(want.Qubits) != fmt.Sprint(corrs[j].Qubits) {
						return nil, fmt.Errorf("d=%d W=%d window %d lane %d: corrections diverge",
							d, words, wi, j)
					}
					if got := batch.LaneStats(j).Cycles; got != mesh.Stats().Cycles {
						return nil, fmt.Errorf("d=%d W=%d window %d lane %d: cycles diverge: scalar %d, batch %d",
							d, words, wi, j, mesh.Stats().Cycles, got)
					}
				}
			}
			calls := (iters + lanes - 1) / lanes
			bat, err := measureWindows(calls, wins, func(win [][]bool) error {
				_, err := batch.DecodeBatchInto(g, win, sb)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("wide d=%d W=%d: %w", d, words, err)
			}
			ns := bat.NsPerDecode / float64(lanes)
			if words == 1 {
				w1Ns = ns
			}
			row := WideRow{
				Distance:             d,
				Words:                words,
				Lanes:                lanes,
				Iters:                calls * lanes,
				NsPerDecode:          ns,
				DecodesPerSec:        1e9 / ns,
				SpeedupVsW1:          w1Ns / ns,
				CyclesPerDecode:      float64(cycles) / float64(len(syndromes)),
				BatchAllocsPerDecode: bat.AllocsPerDecode / float64(lanes),
			}
			rows = append(rows, row)
			fmt.Printf("sfq wide    d=%-3d W=%d %3d lanes %9.0f ns/decode | %.2fx vs W=1  (%.0f decodes/sec, %.2f allocs)\n",
				d, words, lanes, row.NsPerDecode, row.SpeedupVsW1, row.DecodesPerSec,
				row.BatchAllocsPerDecode)
		}
	}
	// Acceptance floor: at d ≥ 9 the four-word layout must beat the
	// single-word (PR 5) layout measured in the same run by ≥1.5× per
	// decode, allocation-free. Regenerating the artifact is the perf
	// gate — ci.sh relies on this hard failure.
	for _, row := range rows {
		if row.Words != 4 || row.Distance < 9 {
			continue
		}
		if row.SpeedupVsW1 < 1.5 {
			return nil, fmt.Errorf("wide d=%d W=4: %.2fx vs W=1 is below the 1.5x floor", row.Distance, row.SpeedupVsW1)
		}
		if row.BatchAllocsPerDecode > 0.01 {
			return nil, fmt.Errorf("wide d=%d W=4: %.2f allocs/decode, want 0", row.Distance, row.BatchAllocsPerDecode)
		}
	}
	return rows, nil
}

// scaleSweep runs one mixed-distance Monte-Carlo sweep and returns its
// points, wall-clock, and scheduler counters. words > 0 pins every mesh
// to that plane width; 0 uses the process default through the batch
// decoder pool.
func scaleSweep(cycles, workers, words int, forceSteal bool) ([]stats.Point, time.Duration, sched.Stats, error) {
	var ss sched.Stats
	cfg := stats.CurveConfig{
		Distances:  []int{5, 9, 13},
		Rates:      []float64{0.03, 0.05},
		Cycles:     cycles,
		NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		Seed:       42,
		Workers:    workers,
		ForceSteal: forceSteal,
		SchedStats: &ss,
		Batch:      true,
	}
	if words > 0 {
		cfg.NewDecoderZ = func(d int) decoder.Decoder {
			return sfq.NewBatchWithWidth(lattice.MustNew(d).MatchingGraph(lattice.ZErrors), sfq.Final, words)
		}
	} else {
		pool := sfq.NewPool(sfq.Final)
		cfg.NewDecoderZ = func(d int) decoder.Decoder { return pool.GetBatch(d, lattice.ZErrors) }
		cfg.FreeDecoder = pool.Release
	}
	start := time.Now()
	points, err := stats.Curves(cfg)
	return points, time.Since(start), ss, err
}

// fingerprintPoints hashes the full point set (FNV-1a over the fields
// that define a verdict). Two sweeps with the same fingerprint produced
// bit-identical results.
func fingerprintPoints(points []stats.Point) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, pt := range points {
		put(uint64(pt.D))
		put(math.Float64bits(pt.P))
		put(uint64(pt.Errors))
		put(uint64(pt.Cycles))
		put(uint64(pt.Forced))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// benchScaling measures the work-stealing engine's throughput scaling:
// the same mixed-distance sweep at 1/2/4/8 workers, once more at 8
// workers with forced stealing, and once per explicit plane width at 2
// workers. Every run must produce the same point fingerprint — the
// multi-core path is only fast if it is also exact.
func benchScaling(cycles int) ([]ScaleRow, error) {
	type run struct {
		workers    int
		words      int
		forceSteal bool
	}
	runs := []run{
		{workers: 1}, {workers: 2}, {workers: 4}, {workers: 8},
		{workers: 8, forceSteal: true},
		{workers: 2, words: 1}, {workers: 2, words: 2}, {workers: 2, words: 4},
	}
	var rows []ScaleRow
	var baseWall time.Duration
	baseFP := ""
	for _, r := range runs {
		points, wall, ss, err := scaleSweep(cycles, r.workers, r.words, r.forceSteal)
		if err != nil {
			return nil, fmt.Errorf("scaling workers=%d W=%d: %w", r.workers, r.words, err)
		}
		fp := fingerprintPoints(points)
		if baseFP == "" {
			baseFP, baseWall = fp, wall
		} else if fp != baseFP {
			return nil, fmt.Errorf("scaling workers=%d W=%d forceSteal=%v: point fingerprint %s diverges from baseline %s — sweep results depend on the schedule",
				r.workers, r.words, r.forceSteal, fp, baseFP)
		}
		ideal := r.workers
		if n := runtime.NumCPU(); ideal > n {
			ideal = n
		}
		speedup := float64(baseWall) / float64(wall)
		row := ScaleRow{
			Workers:     r.workers,
			ForceSteal:  r.forceSteal,
			Words:       r.words,
			WallMs:      float64(wall.Microseconds()) / 1e3,
			SpeedupVs1:  speedup,
			Ideal:       ideal,
			Efficiency:  speedup / float64(ideal),
			Fingerprint: fp,
			Steals:      ss.Steals,
			Stolen:      ss.Stolen,
			Parks:       ss.Parks,
		}
		rows = append(rows, row)
		fmt.Printf("mc scaling  workers=%d%s%s %8.1f ms | %.2fx vs 1 worker (ideal %d, efficiency %.2f) | %d steals / %d stolen\n",
			r.workers, wordsTag(r.words), stealTag(r.forceSteal),
			row.WallMs, row.SpeedupVs1, row.Ideal, row.Efficiency, ss.Steals, ss.Stolen)
		// Scaling floor: whenever the cores exist (workers ≤ NumCPU),
		// the sweep must reach ≥0.8× ideal. Oversubscribed rows are
		// diagnostics — on a 1-CPU box running 8 workers, scheduler
		// overhead is the measurement, not a regression.
		if r.workers <= runtime.NumCPU() && r.words == 0 && row.Efficiency < 0.8 {
			return nil, fmt.Errorf("scaling workers=%d: efficiency %.2f is below the 0.8 floor at ideal=%d",
				r.workers, row.Efficiency, ideal)
		}
	}
	return rows, nil
}

func wordsTag(w int) string {
	if w == 0 {
		return ""
	}
	return fmt.Sprintf(" W=%d", w)
}

func stealTag(f bool) string {
	if !f {
		return ""
	}
	return " force-steal"
}
